"""Isometries and finite isometry groups of lattices.

An isometry is an integer matrix P acting on basis coordinates by
v -> v P (row convention), so P G P^t = G. Groups are stored by full
element enumeration; invariant and coinvariant sublattices and
discriminant actions reduce to exact kernel and transport computations.
The explicit isometries of the Leech and Niemeier models (sign changes,
coordinate permutations, glue translations) are built in `catalog`, as
signed coordinate permutations of a `catalog.CoordinateModel`.
"""

from . import enumeration, linalg
from .discforms import Verdict, backtrack, discriminant_data
from .lattice import int_matrix

GROUP_ORDER_CAP = 10 ** 6
ISOMETRY_SEARCH_NODE_CAP = 2_000_000


class GroupOrderCap(RuntimeError):
    """Raised when a group closure exceeds its element-count cap."""


class Isometry:
    """An isometry of a lattice, v -> v P on basis coordinates."""

    def __init__(self, lattice, matrix, check=True):
        matrix = int_matrix(matrix, what="isometry matrix")
        if check and not is_isometry(lattice, matrix):
            raise ValueError("matrix does not preserve the Gram matrix")
        self.lattice = lattice
        self.matrix = matrix

    def order(self):
        n = self.lattice.rank
        ident = linalg.identity(n)
        P = self.matrix
        k = 1
        while P != ident:
            P = linalg.mat_mul(P, self.matrix)
            k += 1
            if k > GROUP_ORDER_CAP:
                raise GroupOrderCap(f"order not reached within the cap of "
                                    f"{GROUP_ORDER_CAP}")
        return k

    def __repr__(self):
        return f"<isometry of {self.lattice!r}>"


def is_isometry(L, P):
    """True iff P preserves the Gram matrix and is invertible over Z.

    For a nondegenerate Gram, P G P^t = G gives det(P)^2 = 1; only a
    degenerate Gram needs the determinant.
    """
    if len(P) != L.rank or any(len(row) != L.rank for row in P):
        return False
    if linalg.mat_mul(linalg.mat_mul(P, L.gram), linalg.transpose(P)) != L.gram:
        return False
    return not L.degenerate or abs(linalg.det(P)) == 1


def identity_isometry(L):
    return Isometry(L, linalg.identity(L.rank), check=False)


def minus_identity(L):
    return Isometry(L, [[-int(i == j) for j in range(L.rank)]
                        for i in range(L.rank)], check=False)


class IsometryGroup:
    """A finite group of isometries, stored by its generators and order."""

    def __init__(self, lattice, generators, order):
        self.lattice = lattice
        self.generators = generators
        self.order = order


def group_closure(generators, cap=GROUP_ORDER_CAP):
    """Breadth-first closure of a generator list into a full group."""
    if not generators:
        raise ValueError("need at least one generator")
    L = generators[0].lattice
    n = L.rank
    for g in generators:
        if g.lattice is not L:
            raise ValueError("generators act on different lattices")
    ident = tuple(tuple(row) for row in linalg.identity(n))
    gens = [tuple(tuple(row) for row in g.matrix) for g in generators]
    seen = {ident}
    queue = [ident]
    while queue:
        cur = queue.pop()
        for g in gens:
            nxt = tuple(map(tuple, linalg.mat_mul(cur, g)))
            if nxt not in seen:
                if len(seen) >= cap:
                    raise GroupOrderCap(f"group not verified finite within "
                                        f"the cap of {cap} elements")
                seen.add(nxt)
                queue.append(nxt)
    return IsometryGroup(L, generators, len(seen))


def _matrices(gens):
    if not gens:
        raise ValueError("need at least one generator")
    return gens[0].lattice, [g.matrix for g in gens]


def invariant_lattice(gens, name=None):
    """T_G: the saturated sublattice fixed by every generator."""
    L, mats = _matrices(gens)
    n = L.rank
    stacked = [[] for _ in range(n)]
    for P in mats:
        for i in range(n):
            for j in range(n):
                stacked[i].append(P[i][j] - int(i == j))
    ker = linalg.kernel_basis(stacked)
    return L.sublattice(ker, name=name)


def coinvariant_lattice(gens, name=None):
    """S_G: the orthogonal complement of the invariant lattice."""
    return invariant_lattice(gens).orthogonal_complement(name=name)


def torsion_check(group):
    """|G| * b lies in T_G + S_G for every basis vector b."""
    L = group.lattice
    T = invariant_lattice(group.generators)
    S = T.orthogonal_complement()
    targets = [[group.order * a for a in row] for row in linalg.identity(L.rank)]
    sol = linalg.rowspace_solver(T.coords + S.coords)(targets)
    return sol is not None and sol[1] == 1


def discriminant_action(L, isometry):
    """The induced action on A_L: "trivial" or a generator-image table."""
    data = discriminant_data(L)
    if data.form.is_trivial():
        return "trivial"
    images = [data.class_coords(linalg.vec_mat(g, isometry.matrix), f)
              for g, f in zip(data.gens, data.form.factors)]
    k = data.form.length
    trivial = all(img == tuple(int(i == j) for j in range(k))
                  for i, img in enumerate(images))
    return "trivial" if trivial else images


def group_acts_trivially_on_discriminant(L, gens):
    return all(discriminant_action(L, g) == "trivial" for g in gens)


def leech_pair_check(M, gens):
    """The four defining conditions of a Leech pair, as a dict of booleans."""
    L, _ = _matrices(gens)
    if L is not M:
        raise ValueError("group does not act on the given lattice")
    plus, minus = M.signature()
    negdef = plus == 0 and minus == M.rank
    rootfree = not enumeration.has_roots(M) if negdef else False
    trivial = group_acts_trivially_on_discriminant(M, gens)
    coinv = invariant_lattice(gens).rank == 0
    return {
        "negative_definite": negdef,
        "no_minus_two_vectors": rootfree,
        "trivial_discriminant_action": trivial,
        "coinvariant_is_whole": coinv,
    }


def extend_by_identity(isometry, gluing):
    """Extend g on S to the glued overlattice, acting as Id on T.

    Requires g to act trivially on A_S; otherwise the block map does not
    preserve the overlattice.
    """
    S = gluing.s_sub
    g = isometry
    if g.lattice.gram != S.gram:
        raise ValueError("isometry does not act on the glued S factor")
    if discriminant_action(g.lattice, g) != "trivial":
        raise ValueError("isometry acts nontrivially on the discriminant "
                         "group, so no extension by the identity exists")
    L = gluing.lattice
    n = L.rank
    ns, nt = S.rank, gluing.t_sub.rank
    # block map on the S+T coordinate space, conjugated into L's basis
    split = S.coords + gluing.t_sub.coords  # rows: S+T basis in L's basis
    block = [row[:] + [0] * nt for row in g.matrix] + \
            [[0] * ns + [int(j == i) for j in range(nt)] for i in range(nt)]
    images = linalg.mat_mul(block, split)  # images of S+T basis, in L coords
    # X split = d I: row i of X / d is e_i in S+T coordinates
    X, d = linalg.rowspace_solver(split)(linalg.identity(n))
    P = linalg.mat_mul(X, images)
    if any(a % d for row in P for a in row):
        raise ValueError("extension is not integral on the overlattice")
    return Isometry(L, [[a // d for a in row] for row in P])


def restrict_isometry(isometry, sub):
    """Restrict an isometry to a stable sublattice (as its own lattice)."""
    if sub.ambient is not isometry.lattice:
        raise ValueError("sublattice does not live in the isometry's lattice")
    images = linalg.mat_mul(sub.coords, isometry.matrix)
    sol = linalg.rowspace_solver(sub.coords)(images)
    if sol is None or sol[1] != 1:
        raise ValueError("sublattice is not stable under the isometry")
    return Isometry(sub, sol[0])


def find_isometry(L1, L2):
    """Search for an isometry between definite lattices of equal rank.

    Backtracks over images of L1's basis among the vectors of L2 of the
    same norms. Returns a Verdict: "yes" with the matrix (rows: images of
    L1's basis in L2's basis) in witness["images"], "no" when none exists,
    "inconclusive" past ISOMETRY_SEARCH_NODE_CAP nodes. For small ranks.
    """
    if L1.rank != L2.rank or L1.det() != L2.det():
        return Verdict("no", witness={"nodes": 0},
                       reason="ranks or determinants differ")
    norms = [L1.gram[i][i] for i in range(L1.rank)]
    vecs = enumeration.short_vectors(L2, max(abs(q) for q in norms))
    cands = {q: [v for p, v in vecs if p == q] for q in set(norms)}

    def extend(chosen, x):
        i = len(chosen)
        return x if all(linalg.dot(x, y, L2.gram) == L1.gram[i][j]
                        for j, y in enumerate(chosen)) else None

    # T G2 T^t = G1 with det G1 = det G2 != 0 forces det(T)^2 = 1
    return backtrack([cands[q] for q in norms], extend, lambda images: True,
                     ISOMETRY_SEARCH_NODE_CAP)
