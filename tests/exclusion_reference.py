"""Frozen copy of the hand-typed Mukai vectors of the exclusion witnesses.

`exclusion_vector` is `walls._exclusion_vector` as it was before the
exclusion witnesses took their Mukai vector from the chooser
`walls._isotropic_pair_vector`: a primitive v of square 2n - 2 in the
complement of an excluded lattice, in the complement's own coordinates,
or None when the complement does not take that norm. The tests check
that the chooser returns the same vectors. Nothing in `src/` imports this
module.
"""


def exclusion_vector(name, n):
    target = 2 * n - 2
    if name == "BW16(-1)":
        if target % 4:
            return None  # U(2)^4 only takes norms divisible by 4
        return [1, target // 4] + [0] * 6
    if name == "S_3exo":
        if target % 6:
            return None  # U(3)^4 only takes norms divisible by 6
        return [1, target // 6] + [0] * 6
    if name == "D12+(-2)":
        if target % 4 == 0:
            return [1, target // 4] + [0] * 10
        return [1, (target + 2) // 4] + [0] * 6 + [1, 0, 0, 0]
    raise ValueError(name)
