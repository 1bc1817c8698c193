"""Frozen copy of the dense ambient-map route of `isometries`.

`isometry_from_ambient_map` is `isometries.isometry_from_ambient_map` as
it was before the coordinate models mapped their basis rows directly: it
multiplies the basis by a dense ambient matrix A (x -> x A) and solves
the images back into the basis. `ambient_matrix` builds the A that the
old builders built for a coordinate map i -> perm[i], times signs[i] if
given. The tests check that `catalog.CoordinateModel.isometry` gives the
same matrix. Nothing in `src/` imports this module.
"""

from k3lat import linalg
from k3lat.isometries import Isometry


def ambient_matrix(perm, signs=None):
    """The matrix with entry signs[i] (or 1) at (i, perm[i])."""
    A = [[0] * len(perm) for _ in perm]
    for i, j in enumerate(perm):
        A[i][j] = 1 if signs is None else signs[i]
    return A


def isometry_from_ambient_map(lattice, basis, ambient_map, solver=None):
    """Isometry of a coordinate-model lattice from a map of the ambient.

    basis holds the lattice's basis as integer coordinate rows; ambient_map
    is a matrix acting on coordinates by x -> x A. The restriction must be
    integral on the lattice, else ValueError. solver, when given, is
    linalg.rowspace_solver(basis), reused across calls.
    """
    images = linalg.mat_mul(basis, ambient_map)
    if solver is None:
        solver = linalg.rowspace_solver(basis)
    sol = solver(images)
    if sol is None or sol[1] != 1:
        raise ValueError("ambient map does not preserve the lattice")
    return Isometry(lattice, sol[0])
