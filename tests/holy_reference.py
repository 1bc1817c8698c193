"""Frozen copy of the all-codeword holy-construction build of `catalog`.

`HolyFrame` is `catalog.HolyFrame.__init__` as it was before the frames
were built from the glue code's generators: it evaluates h_w for every
word w of the glue code (4 096 for N23) and hands every h_w - h_0 to
`lattice_from_span`, once for the Leech basis and once for the hole. The
HNF is canonical, so the tests check that the current frames have the
same bases and Grams; the h-rows it keeps are the frame vectors the
cocycle property reads. Nothing in `src/` imports this module.
"""

from k3lat.catalog import glue_code, lattice_from_span
from k3lat.gram_data import NIEMEIER_ROWS


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


class HolyFrame:
    """Frame data of the holy construction over a pure A_n^m diagram.

    f-vectors are the extended roots of every copy, h-vectors the glue
    words evaluated on the deep-hole generators g_i; the hole (glue
    coefficients summing to zero) is the Niemeier lattice and the totally
    sum-zero span is the Leech lattice.
    """

    def __init__(self, name):
        if name not in NIEMEIER_ROWS or NIEMEIER_ROWS[name][0] == "E8":
            raise ValueError(f"holy construction needs a pure A-type row, "
                             f"not {name}")
        n, m, _, seed, mode = NIEMEIER_ROWS[name]
        self.name = name
        self.n, self.m = n, m
        size = n + 1
        scale = 2 * size  # clears the half-integer entries of g_0
        dim = size * m
        self.code = glue_code(name)
        self.code_set = set(self.code)

        self.f_rows = _simple_root_rows(n, m, scale)
        f0 = [0] * dim
        g0 = [2 * k - n for k in range(size)]  # g_0 scaled by 2(n+1)/h terms
        self.f0_rows = []
        for j in range(m):
            row = [0] * dim
            row[j * size] = scale
            row[j * size + size - 1] = -scale
            self.f0_rows.append(row)
        self.h_rows = {}
        for w in self.code:
            row = []
            for letter in w:
                row += g0[-letter:] + g0[:-letter] if letter else g0[:]
            self.h_rows[w] = row
        zero = tuple([0] * m)
        h0 = self.h_rows[zero]
        fam = self.f_rows + self.f0_rows + \
            [self.h_rows[w] for w in self.code if w != zero]
        diff = [[a - b for a, b in zip(row, h0)] for row in fam]
        self.basis, self.leech = lattice_from_span(
            diff, scale * scale, name=f"Leech[{name}]")
        if self.leech.rank != 24 or self.leech.det() != 1:
            raise AssertionError("holy construction gave a wrong lattice")
        hole_rows = self.f_rows + self.f0_rows + \
            [[a - b for a, b in zip(self.h_rows[w], h0)] for w in self.code]
        self.hole_basis, self.hole = lattice_from_span(
            hole_rows, scale * scale, name=f"{name}[hole]")
