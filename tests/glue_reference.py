"""Frozen copy of the element-wise overlattice gluing of `discforms`.

`glue_overlattice` is `discforms.glue_overlattice` as it was when it
listed the glue graph: it spans the graph H in A_S + A_T element by
element (`subgroup`, copied here as it was), then checks on every element
that the map is well defined, that q_S + q_T vanishes and that the map is
injective, in that order, and builds the overlattice from the lifts of
the glue rows. The tests check that the generator-wise checks accept and
reject the same maps with the same leading message, and that accepted
maps give the same index and Gram. Nothing in `src/` imports this module.
"""

import math

from k3lat import linalg
from k3lat.discforms import Gluing, discriminant_data
from k3lat.lattice import Lattice


def subgroup(gens, factors):
    """The subgroup of Z/f_1 + ... + Z/f_k spanned by gens, as a set of
    tuples reduced mod the factors f_i."""
    H = {tuple(0 for _ in factors)}
    for g in gens:
        g = tuple(a % f for a, f in zip(g, factors))
        if g in H:
            continue
        new = []
        coset = list(H)
        while True:
            coset = [tuple((a + b) % f for a, b, f in zip(x, g, factors))
                     for x in coset]
            if coset[0] in H:
                break
            new.extend(coset)
        H.update(new)
    return H


def glue_overlattice(S, T, glue, name=None):
    """Overlattice of S + T generated by lifts of the glue graph, with the
    graph listed and checked element by element."""
    dS = discriminant_data(S)
    dT = discriminant_data(T)
    qS, qT = dS.form, dT.form
    pairs = [(list(d), list(i)) for d, i in zip(glue.domain, glue.images)]
    if len(glue.domain) != len(glue.images) or any(
            len(d) != qS.length or len(i) != qT.length for d, i in pairs):
        raise ValueError("glue rows do not match the discriminant groups")
    graph = {}
    for z in subgroup([d + i for d, i in pairs], qS.factors + qT.factors):
        x, y = z[:qS.length], z[qS.length:]
        if graph.setdefault(x, y) != y:
            raise ValueError(f"glue map is not well defined at {x}")
    eS, eT = qS.exponent, qT.exponent
    for x, y in graph.items():
        if (qS._q_num(x) * eT + qT._q_num(y) * eS) % (2 * eS * eT):
            raise ValueError(f"glue is not an anti-isometry at element {x}: "
                             f"q_S = {qS._q_num(x)}/{eS}, "
                             f"q_T = {qT._q_num(y)}/{eT}")
    if len(set(graph.values())) != len(graph):
        raise ValueError("glue map is not injective")
    index = len(graph)

    ns, nt = S.rank, T.rank
    amb = S + T
    den = math.lcm(eS, eT)

    def scaled_lift(coeffs, data, n):
        w = [c * (den // f) for c, f in zip(coeffs, data.form.factors)]
        return linalg.vec_mat(w, data.gens) if w else [0] * n

    rows = [[den * a for a in row] for row in linalg.identity(ns + nt)]
    for d, i in pairs:
        rows.append(scaled_lift(d, dS, ns) + scaled_lift(i, dT, nt))
    basis = linalg.hnf(rows)
    gram = linalg.mat_mul(linalg.mat_mul(basis, amb.gram),
                          linalg.transpose(basis))
    if any(a % (den * den) for row in gram for a in row):
        raise ValueError("glue lifts do not pair integrally")
    L = Lattice([[a // (den * den) for a in row] for row in gram], name=name)
    if not L.is_even():
        raise ValueError("glued overlattice is not even")
    X, d = linalg.rowspace_solver(basis)(rows[:ns + nt])
    if d != 1:
        raise AssertionError("factor does not embed integrally")
    return Gluing(lattice=L, s_sub=L.sublattice(X[:ns], name=S.name),
                  t_sub=L.sublattice(X[ns:], name=T.name), index=index)
