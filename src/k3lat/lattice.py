"""Lattices as integer Gram matrices, with sublattice coordinates.

A Lattice is a free Z-module with a symmetric integer bilinear form given
on a fixed basis; a vector is the list of its coordinates in that basis.
A sublattice (`Lattice.sublattice`) remembers its ambient lattice and the
coordinate matrix of its basis inside it; saturation and orthogonal
complements are computed exactly from those data.

The inertia of the form (signature, determinant, degeneracy) is one
elimination, made when one of them is first read. `Lattice(gram)` reads
it at once, to refuse a degenerate Gram; a lattice built with
`allow_degenerate` (sublattices, direct sums, rescalings and
`from_json` records among them) makes it only if it is read, so the
wall search's many saturated spans never pay for it.
"""

import functools

from . import linalg


def int_matrix(rows, width=None, what="matrix"):
    """A copy of rows (a list or tuple of lists or tuples) as lists of
    `width` ints each; by default the matrix must be square.

    Floats, strings and bools are refused with ValueError, not coerced.
    """
    seq = (list, tuple)
    if not (isinstance(rows, seq) and all(isinstance(r, seq) for r in rows)
            and all(len(r) == (len(rows) if width is None else width)
                    and all(type(a) is int for a in r) for r in rows)):
        shape = "square matrix" if width is None else f"{width}-column matrix"
        raise ValueError(f"{what} must be a {shape} of integers")
    return [list(r) for r in rows]


class Lattice:
    """Integer Gram matrix, optionally sitting inside an ambient lattice."""

    def __init__(self, gram, name=None, allow_degenerate=False):
        gram = int_matrix(gram, what="Gram")
        if not linalg.is_symmetric(gram):
            raise ValueError("Gram matrix must be symmetric")
        self._store(gram, name, None, None, allow_degenerate)

    def _store(self, gram, name, ambient, coords, allow_degenerate):
        self.gram = gram
        self.name = name
        self.ambient = ambient
        self.coords = coords
        if not allow_degenerate and self.degenerate:
            raise ValueError("degenerate form (pass allow_degenerate to allow)")

    @functools.cached_property
    def _inertia(self):
        """(plus, minus, zero, det): det(), signature() and degenerate
        read this one elimination, made on the first read."""
        return linalg.inertia(self.gram)

    @property
    def degenerate(self):
        return self._inertia[2] > 0

    def _gram_of(self, rows):
        """Gram matrix rows G rows^T of the given coordinate rows."""
        return linalg.mat_mul(linalg.mat_mul(rows, self.gram),
                              linalg.transpose(rows))

    # -- basic invariants ---------------------------------------------------

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self._inertia[3]

    def signature(self):
        """(n_plus, n_minus) from linalg.inertia, fraction-free."""
        if self.degenerate:
            raise ValueError("signature of a degenerate lattice")
        return self._inertia[:2]

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_definite(self):
        if self.rank == 0:
            return True
        plus, minus = self.signature()
        return plus == 0 or minus == 0

    # -- constructions ------------------------------------------------------

    def rescale(self, k):
        if k == 0:
            raise ValueError("rescaling by zero")
        name = None
        if self.name:
            name = f"{self.name}({k})" if k != 1 else self.name
        return Lattice([[k * a for a in row] for row in self.gram], name=name,
                       allow_degenerate=True)

    def direct_sum(self, other):
        """The orthogonal sum."""
        n, m = self.rank, other.rank
        gram = ([row + [0] * m for row in self.gram]
                + [[0] * n + row for row in other.gram])
        name = None
        if self.name and other.name:
            name = f"{self.name}+{other.name}"
        # both blocks are symmetric integer Grams, so the constructor's
        # checks are skipped
        out = Lattice.__new__(Lattice)
        out._store(gram, name, None, None, allow_degenerate=True)
        return out

    def __add__(self, other):
        return self.direct_sum(other)

    def sublattice(self, vectors, name=None):
        """Sublattice spanned by independent coordinate rows."""
        rows = int_matrix(vectors, self.rank, "coordinates")
        if rows and linalg.row_rank(rows) != len(rows):
            ker = linalg.kernel_basis(linalg.transpose(rows))
            raise ValueError(f"dependent vectors, e.g. relation {ker[0]}")
        # the Gram is computed here, so the constructor's check is skipped
        sub = Lattice.__new__(Lattice)
        sub._store(self._gram_of(rows), name, self, rows,
                   allow_degenerate=True)
        return sub

    def saturation(self, name=None):
        """Primitive closure inside the ambient lattice (HNF-canonical)."""
        if self.ambient is None:
            raise ValueError("saturation needs an ambient lattice")
        C = self.coords
        n = self.ambient.rank
        if not C:
            return self.ambient.sublattice([], name=name)
        # x is in the rational row span of C iff x kills the right kernel.
        K = linalg.kernel_basis(linalg.transpose(C))
        if K:
            sat = linalg.kernel_basis(linalg.transpose(K))
        else:
            sat = linalg.identity(n)
        return self.ambient.sublattice(sat, name=name)

    def orthogonal_complement(self, name=None):
        """{x in ambient : (x, s) = 0 for all s}, a primitive sublattice."""
        if self.ambient is None:
            raise ValueError("orthogonal complement needs an ambient lattice")
        pairing = linalg.mat_mul(self.ambient.gram, linalg.transpose(self.coords))
        ker = linalg.kernel_basis(pairing)
        return self.ambient.sublattice(ker, name=name)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        obj = {"name": self.name or "", "gram": [row[:] for row in self.gram]}
        if self.ambient is not None:
            obj["ambient"] = self.ambient.name or ""
            obj["coords"] = [row[:] for row in self.coords]
        return obj

    @classmethod
    def from_json(cls, obj):
        """Lattice of a record's 'gram' and 'name'; other keys are ignored."""
        return cls(obj["gram"], name=obj.get("name") or None,
                   allow_degenerate=True)

    def __repr__(self):
        label = self.name or "lattice"
        return f"<{label} rank {self.rank} det {self.det()}>"
