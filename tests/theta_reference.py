"""Theta series of the even unimodular lattices of rank 8 and 24, in
integers.

An even unimodular lattice of rank 24 with N_2 roots has theta series
E_12 + (N_2 - 65520/691) Delta (Conway-Sloane, SPLAG ch. 7 and 16; Serre,
A Course in Arithmetic, ch. VII), so its number of vectors of norm 2k is
    65520 (sigma_11(k) - tau(k)) / 691 + N_2 tau(k),
an integer by Ramanujan's congruence tau(k) = sigma_11(k) mod 691. E8's
theta series is E_4 = 1 + 240 sum_k sigma_3(k) q^k. tau is read off
Delta = q prod_{n >= 1} (1 - q^n)^24, truncated. Nothing here reads a
lattice, so a census compared with these counts is checked against
mathematics, not against another walk.
"""


def sigma(r, k):
    """The sum of d^r over the positive divisors d of k."""
    return sum(d ** r for d in range(1, k + 1) if k % d == 0)


def tau(k):
    """Ramanujan's tau(k), k >= 1: the coefficient of q^k in
    q prod_{n >= 1} (1 - q^n)^24."""
    series = [1] + [0] * (k - 1)  # prod_{n < k} (1 - q^n)^24 mod q^k
    for n in range(1, k):
        for _ in range(24):
            for i in range(k - 1, n - 1, -1):
                series[i] -= series[i - n]
    return series[k - 1]


def rank_24(k, roots):
    """Vectors of norm 2k in an even unimodular lattice of rank 24 with
    that many roots (vectors of norm 2)."""
    count, rest = divmod(65520 * (sigma(11, k) - tau(k)), 691)
    assert rest == 0, "tau(k) = sigma_11(k) mod 691"
    return count + roots * tau(k)


def e8(k):
    """Vectors of norm 2k in E8."""
    return 240 * sigma(3, k)
