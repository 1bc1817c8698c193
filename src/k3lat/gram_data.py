"""Fixed Gram matrices and glue-code data for the lattice catalog.

Root lattice conventions and glue vectors follow Conway & Sloane (SPLAG);
the exceptional rank-4 forms are the standard representatives of their
genera (Nipp's tables).
"""


def gram_A(n):
    """A_n: path diagram, diagonal 2."""
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0
             for j in range(n)] for i in range(n)]


def gram_D(n):
    """D_n (n >= 3): fork at the last node."""
    if n < 3:
        raise ValueError("D_n only for n >= 3")
    G = gram_A(n)
    G[n - 1][n - 2] = G[n - 2][n - 1] = 0
    G[n - 1][n - 3] = G[n - 3][n - 1] = -1
    return G


def gram_E(n):
    """E_6, E_7, E_8: the exceptional node hangs off the third vertex."""
    if n not in (6, 7, 8):
        raise ValueError("E_n only for n in {6, 7, 8}")
    G = gram_A(n)
    G[n - 1][n - 2] = G[n - 2][n - 1] = 0
    G[n - 1][2] = G[2][n - 1] = -1
    return G


U = [[0, 1], [1, 0]]
A2 = gram_A(2)
E8 = gram_E(8)

# Rank-4 S-lattice Grams (negative definite; named by their 2^i 3^j census).
S_LATTICE_2_5_3_10 = [
    [-4, -1, -1, 1],
    [-1, -4, 1, -1],
    [-1, 1, -4, -1],
    [1, -1, -1, -4],
]

S_LATTICE_2_9_3_6 = [
    [-4, 2, -2, 1],
    [2, -4, 1, -2],
    [-2, 1, -4, 2],
    [1, -2, 2, -4],
]

# The positive definite form opposite to the 2^5 3^10 S-lattice; it is the
# orthogonal complement of the rank-20 order-5 coinvariant lattice in the
# Mukai lattice.
POS_2_5_3_10 = [[-a for a in row] for row in S_LATTICE_2_5_3_10]

# The genus of positive definite rank-4 forms of determinant 121 (Nipp).
# Exactly this genus contains the Mukai complements of the order-11
# coinvariant lattice.
DET121_GENUS = [
    [[4, 2, 1, 0],
     [2, 4, 1, 1],
     [1, 1, 4, 2],
     [0, 1, 2, 4]],
    [[2, 1, 1, 0],
     [1, 2, 1, 1],
     [1, 1, 8, 4],
     [0, 1, 4, 8]],
    [[2, 0, 1, 0],
     [0, 2, 0, 1],
     [1, 0, 6, 0],
     [0, 1, 0, 6]],
]

# Niemeier rows built from glue codes over pure A_n^m diagrams, plus E8^3.
# Each entry: (component n of A_n, multiplicity m, Coxeter number, seed word,
#              mode). Mode "tail" fixes the first letter and rotates the rest
#              cyclically, "all" rotates the whole word, "single" uses the
#              word as-is; the listed rotations generate the glue code.
NIEMEIER_ROWS = {
    "N3": ("E8", 3, 30, None, "single"),
    "N4": (24, 1, 25, [5], "single"),
    "N10": (12, 2, 13, [1, 5], "single"),
    "N15": (8, 3, 9, [1, 1, 4], "all"),
    "N17": (6, 4, 7, [1, 2, 1, 6], "tail"),
    "N20": (4, 6, 5, [1, 0, 1, 4, 4, 1], "tail"),
    "N21": (3, 8, 4, [3, 2, 0, 0, 1, 0, 1, 1], "tail"),
    "N22": (2, 12, 3, [2, 1, 1, 2, 1, 1, 1, 2, 2, 2, 1, 2], "tail"),
    "N23": (1, 24, 2,
            [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1,
             1, 1, 1], "tail"),
}

# First-order Reed-Muller code RM(1, 4): length 16, dimension 5.
RM_1_4_GENERATORS = [
    [1] * 16,
    [1 if (i >> 0) & 1 else 0 for i in range(16)],
    [1 if (i >> 1) & 1 else 0 for i in range(16)],
    [1 if (i >> 2) & 1 else 0 for i in range(16)],
    [1 if (i >> 3) & 1 else 0 for i in range(16)],
]
