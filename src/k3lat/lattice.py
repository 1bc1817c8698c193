"""Lattices as integer Gram matrices, with sublattice coordinates.

A Lattice is a free Z-module with a symmetric integer bilinear form given
on a fixed basis. A sublattice remembers its ambient lattice and the
coordinate matrix of its basis inside it; saturation, orthogonal
complements and divisibility are computed exactly from those data.
"""

import math

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

    def __init__(self, gram, name=None, ambient=None, coords=None,
                 allow_degenerate=False):
        gram = int_matrix(gram, what="Gram")
        if not linalg.is_symmetric(gram):
            raise ValueError("Gram matrix must be symmetric")
        if (ambient is None) != (coords is None):
            raise ValueError("ambient and coords must be supplied together")
        if coords is not None:
            coords = int_matrix(coords, ambient.rank, "coordinates")
            if len(coords) != len(gram):
                raise ValueError("coordinate rows must match the rank")
            if ambient._gram_of(coords) != gram:
                raise ValueError("Gram does not match coordinates in ambient")
        self._store(gram, name, ambient, coords, allow_degenerate)

    def _store(self, gram, name, ambient, coords, allow_degenerate,
               det=None):
        self.gram = gram
        self.name = name
        self.ambient = ambient
        self.coords = coords
        self._det = linalg.det(gram) if det is None else det
        self.degenerate = self._det == 0 and self.rank > 0
        if self.degenerate and not allow_degenerate:
            raise ValueError("degenerate form (pass allow_degenerate to allow)")

    def _gram_of(self, rows):
        """Gram matrix rows G rows^T of the given coordinate rows."""
        return linalg.mat_mul(linalg.mat_mul(rows, self.gram),
                              linalg.transpose(rows))

    # -- basic invariants ---------------------------------------------------

    @property
    def rank(self):
        return len(self.gram)

    def det(self):
        return self._det

    def signature(self):
        """(n_plus, n_minus) from linalg.inertia, fraction-free."""
        if self.degenerate:
            raise ValueError("signature of a degenerate lattice")
        return linalg.inertia(self.gram)[:2]

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_definite(self):
        if self.rank == 0:
            return True
        plus, minus = self.signature()
        return plus == 0 or minus == 0

    def is_unimodular(self):
        return abs(self._det) == 1

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
        """The orthogonal sum; its determinant is the product of the
        summands', so no elimination runs on the block Gram."""
        n, m = self.rank, other.rank
        gram = ([row + [0] * m for row in self.gram]
                + [[0] * n + row for row in other.gram])
        name = None
        if self.name and other.name:
            name = f"{self.name}+{other.name}"
        # both blocks are symmetric integer Grams, so the constructor's
        # checks are skipped
        out = Lattice.__new__(Lattice)
        out._store(gram, name, None, None, allow_degenerate=True,
                   det=self._det * other._det)
        return out

    def __add__(self, other):
        return self.direct_sum(other)

    def vector(self, coords):
        return LatticeVector(self, coords)

    def sublattice(self, vectors, name=None):
        """Sublattice spanned by the given vectors (must be independent)."""
        rows = int_matrix([v.coords if isinstance(v, LatticeVector)
                           else list(v) for v in vectors],
                          self.rank, "coordinates")
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
    def from_json(cls, obj, ambient=None):
        name = obj.get("name") or None
        if "coords" in obj:
            if ambient is None:
                raise ValueError("lattice record references an ambient lattice")
            return cls(obj["gram"], name=name, ambient=ambient,
                       coords=obj["coords"], allow_degenerate=True)
        return cls(obj["gram"], name=name, allow_degenerate=True)

    def __repr__(self):
        label = self.name or "lattice"
        return f"<{label} rank {self.rank} det {self._det}>"


class LatticeVector:
    """Integer coordinate row in the basis of a fixed lattice."""

    def __init__(self, lattice, coords):
        (coords,) = int_matrix([coords], lattice.rank, "vector coordinates")
        self.lattice = lattice
        self.coords = coords

    def is_zero(self):
        return not any(self.coords)

    def norm(self):
        return linalg.dot(self.coords, self.coords, self.lattice.gram)

    def dot(self, other):
        if other.lattice is not self.lattice:
            raise ValueError("vectors live in different lattices")
        return linalg.dot(self.coords, other.coords, self.lattice.gram)

    def divisibility(self):
        """Positive generator of the pairing ideal (v, L)."""
        if self.is_zero():
            raise ValueError("divisibility of the zero vector")
        pairings = linalg.mat_vec(self.lattice.gram, self.coords)
        return math.gcd(*pairings) if len(pairings) > 1 else abs(pairings[0])

    def is_primitive(self):
        return math.gcd(*self.coords) == 1 if len(self.coords) > 1 \
            else abs(self.coords[0]) == 1

    def to_ambient(self):
        """The same vector as an element of the ambient lattice."""
        if self.lattice.ambient is None:
            raise ValueError("vector's lattice has no ambient")
        return LatticeVector(self.lattice.ambient,
                             linalg.vec_mat(self.coords, self.lattice.coords))

    def __neg__(self):
        return LatticeVector(self.lattice, [-a for a in self.coords])

    def __add__(self, other):
        return LatticeVector(self.lattice,
                             [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return LatticeVector(self.lattice,
                             [a - b for a, b in zip(self.coords, other.coords)])

    def __repr__(self):
        return f"<vector {self.coords} of {self.lattice!r}>"
