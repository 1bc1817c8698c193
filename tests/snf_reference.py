"""Frozen copy of the Smith normal form of `linalg`.

`snf` is `linalg.snf` as it was before the pivot scan stopped at the
first unit and the elimination ran on the trailing block alone: every
step scans the whole trailing block for the first entry of least |a| in
row-major order, clears its column and row across all of D, U and V,
and sweeps for divisibility after every pivot. The property test checks
that `linalg.snf` returns the same D, U and V, so every discriminant form
keeps its generators; nothing in `src/` imports this module.
"""

from k3lat.linalg import copy_mat, identity


def snf(M):
    """Smith normal form.

    Returns (D, U, V) with D = U * M * V diagonal, nonnegative, and
    d1 | d2 | ... ; U and V are unimodular.
    """
    D = copy_mat(M)
    rows = len(D)
    cols = len(D[0]) if rows else 0
    U = identity(rows)
    V = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in D:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        # Move a minimal nonzero entry of the trailing block to (t, t).
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < best):
                    piv, best = (i, j), abs(D[i][j])
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Clear the pivot row and column; restart if a remainder survives.
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                row_op(i, t, q)
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                col_op(j, t, q)
                if D[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility of the remaining block by the pivot.
        stop = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t] != 0:
                    row_op(t, i, -1)
                    stop = False
                    break
            if not stop:
                break
        if stop:
            if D[t][t] < 0:
                D[t] = [-a for a in D[t]]
                U[t] = [-a for a in U[t]]
            t += 1
    return D, U, V
