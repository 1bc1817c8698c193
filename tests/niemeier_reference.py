"""Frozen copy of the A-type Niemeier build of `catalog.niemeier_model`.

`niemeier_model` is the builder as it was before the A-type rows were
read off the hole of their holy frame: the simple roots of every A_n copy
and, for each generator word of the glue code, the sum of the scaled dual
coset representatives [i] of its letters, spanned in the R^((n+1)m) model
scaled by n + 1. The tests check that the hole has the same Gram and name
(its basis is this one doubled, on coordinates scaled by 2(n + 1)).
Nothing in `src/` imports this module.
"""

from k3lat.catalog import _generator_words, lattice_from_span
from k3lat.gram_data import NIEMEIER_ROWS


def _glue_rep(n, i):
    """Dual coset representative [i] of A_n, scaled by n + 1."""
    size = n + 1
    return [i] * (size - i) + [i - size] * i


def _simple_root_rows(n, m, scale):
    rows = []
    size = n + 1
    for j in range(m):
        for i in range(n):
            row = [0] * (size * m)
            row[j * size + i] = -scale
            row[j * size + i + 1] = scale
            rows.append(row)
    return rows


def niemeier_model(name):
    """(basis, lattice) of a pure A-type Niemeier row."""
    n, m, _, seed, mode = NIEMEIER_ROWS[name]
    size = n + 1
    rows = _simple_root_rows(n, m, size)
    if seed is not None:
        for w in _generator_words(seed, mode):
            row = []
            for letter in w:
                row += _glue_rep(n, letter % size)
            rows.append(row)
    basis, lattice = lattice_from_span(rows, size * size, name=name)
    if lattice.rank != 24 or lattice.det() != 1:
        raise AssertionError(f"{name} failed its invariants")
    return basis, lattice
