"""Frozen copy of the two hand-written backtracking searches of k3lat.

`find_generator_images` is `discforms._find_generator_images` and
`find_isometry` is `isometries.find_isometry` as they were before both
ran on `discforms.backtrack`, copied with their node caps and with the
`is_prime` helper. Each also returns its node count, and a spent budget
reads "inconclusive" where the copies raised: every function returns
(status, images or None, nodes). The tests require the engine to give
the same status, images and node count. Nothing in `src/` imports this
module.
"""

from operator import mul

from k3lat import enumeration, linalg
from k3lat.discforms import subgroup_order

SEARCH_NODE_CAP = 500_000
ISOMETRY_SEARCH_NODE_CAP = 2_000_000


class _Budget(RuntimeError):
    pass


def find_generator_images(q1, q2, sign):
    """Images in q2 of q1's generators under a (sign=+1) isometry or
    (sign=-1) anti-isometry; None if none exists, or raises on cap."""
    if q1.factors != q2.factors:
        return "no", None, 0
    if q1.is_trivial():
        return "yes", [], 0
    k = q1.length
    e = q1.exponent  # the shared exponent: the factors agree
    qn = q1._qnum
    targets_q = [sign * qn[i][i] % (2 * e) for i in range(k)]
    targets_b = [[sign * qn[i][j] % e for j in range(i)] for i in range(k)]
    by_profile = {}
    for x, (v, o) in zip(q2.elements(), q2._walk()):
        by_profile.setdefault((o, v), []).append(x)
    p = q1.factors[0]
    elementary = all(d == p for d in q1.factors) and is_prime(p)
    nodes = 0
    chosen = []
    pairings = []  # per chosen y, the row e b(-, y) mod e
    echelon = []  # F_p row echelon of the chosen images, when elementary

    def reduces_to_zero(y):
        row = list(y)
        for piv, base in echelon:
            if row[piv]:
                c = row[piv] * pow(base[piv], -1, p) % p
                row = [(a - c * b) % p for a, b in zip(row, base)]
        return not any(row), row

    def dfs(i):
        nonlocal nodes
        if i == k:
            if elementary:
                return True  # independent images of a basis generate
            return subgroup_order(chosen, q2.factors) == q2.order()
        cands = by_profile.get((q1.factors[i], targets_q[i]), [])
        for y in cands:
            nodes += 1
            if nodes > SEARCH_NODE_CAP:
                raise _Budget("search budget exceeded")
            if not all(sum(map(mul, y, w)) % e == t
                       for w, t in zip(pairings, targets_b[i])):
                continue
            if elementary:
                dependent, reduced = reduces_to_zero(y)
                if dependent:
                    continue
                piv = next(idx for idx, a in enumerate(reduced) if a)
                echelon.append((piv, reduced))
            chosen.append(y)
            pairings.append([sum(map(mul, row, y)) % e for row in q2._qnum])
            if dfs(i + 1):
                return True
            chosen.pop()
            pairings.pop()
            if elementary:
                echelon.pop()
        return False

    try:
        found = dfs(0)
    except _Budget:
        return "inconclusive", None, nodes
    finally:
        del dfs  # a self-referencing closure: free by_profile now, not at gc
    if found:
        return "yes", [list(y) for y in chosen], nodes
    return "no", None, nodes


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def find_isometry(L1, L2):
    """Search for an isometry between definite lattices of equal rank.

    Backtracks over images of the basis among short vectors; returns the
    transformation matrix (rows: images of L1's basis in L2's basis) or
    None. Meant for small ranks.
    """
    if L1.rank != L2.rank or L1.det() != L2.det():
        return "no", None, 0
    n = L1.rank
    norms_needed = [L1.gram[i][i] for i in range(n)]
    bound = max(abs(q) for q in norms_needed)
    cands = {}
    vecs = enumeration.short_vectors(L2, bound)
    for q in set(norms_needed):
        cands[q] = [v for p, v in vecs if p == q]
    chosen = []
    nodes = 0

    def pairing_ok(x):
        i = len(chosen)
        return all(linalg.dot(x, chosen[j], L2.gram) == L1.gram[i][j]
                   for j in range(i))

    def dfs():
        nonlocal nodes
        i = len(chosen)
        if i == n:
            return True
        for x in cands[L1.gram[i][i]]:
            nodes += 1
            if nodes > ISOMETRY_SEARCH_NODE_CAP:
                raise _Budget("isometry search budget exceeded")
            if pairing_ok(x):
                chosen.append(x)
                if dfs():
                    return True
                chosen.pop()
        return False

    try:
        found = dfs()
    except _Budget:
        return "inconclusive", None, nodes
    if not found:
        return "no", None, nodes
    # T G2 T^t = G1 with det G1 = det G2 != 0 forces det(T)^2 = 1
    return "yes", [row[:] for row in chosen], nodes
