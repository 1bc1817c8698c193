"""Frozen copy of the Gauss-sum Milgram signature of k3lat.

`milgram_signature` is `discforms.milgram_signature` as it was before it
summed one orthogonal p-block at a time: one Gauss sum over the whole
group, matched in Z[zeta_N], N = lcm(2e, 8, odd primes of the squarefree
part of |A|), against sqrt(|A|) zeta_8^s by polynomial division. It is
copied with its helpers and its cap. The tests require the block sum to
give the same residue. Nothing in `src/` imports this module.
"""

import math

MILGRAM_ORDER_CAP = 10 ** 6


def _cyclotomic_poly(n, _cache={}):
    """Coefficient list of the n-th cyclotomic polynomial (exact)."""
    if n in _cache:
        return _cache[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic_poly(d)
            poly = _poly_divide_exact(poly, phi_d)
    _cache[n] = poly
    return poly


def _poly_divide_exact(num, den):
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise ArithmeticError("inexact polynomial division")
        c //= den[-1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


def _poly_mod_cyclotomic(coeffs, n):
    """Reduce an exponent-vector of Z[x]/(x^n - 1) modulo Phi_n; [] iff zero."""
    phi = _cyclotomic_poly(n)
    deg = len(phi) - 1
    rem = coeffs[:]
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j in range(deg + 1):
                rem[i - deg + j] -= c * phi[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _poly_mul_mod_xn(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % n] += ai * bj
    return out


def milgram_signature(form):
    """Signature mod 8 of a finite quadratic form, by exact Gauss sum.

    Computes sum_x exp(pi i q(x)) in a cyclotomic integer ring and matches
    it against sqrt(|A|) zeta_8^s for s = 0..7. No floating point.
    """
    if form.is_trivial():
        return 0
    size = form.order()
    if size > MILGRAM_ORDER_CAP:
        raise ValueError(
            f"group order {size} exceeds the Milgram cap {MILGRAM_ORDER_CAP}; "
            f"the Gauss sum visits every element")
    den = form.exponent
    # squarefree part s of |A| decides which sqrt factors we need
    m, s = 1, size
    d = 2
    while d * d <= s:
        while s % (d * d) == 0:
            s //= d * d
            m *= d
        d += 1
    odd_primes = []
    rest = s if s % 2 else s // 2
    p = 3
    while p * p <= rest:
        if rest % p == 0:
            odd_primes.append(p)
            rest //= p
        else:
            p += 2
    if rest > 1:
        odd_primes.append(rest)
    N = math.lcm(2 * den, 8, *odd_primes)
    # Gauss sum as an exponent vector over zeta_N
    S = [0] * N
    scale = N // (2 * den)
    for v, _ in form._walk():
        S[v * scale] += 1
    # sqrt(|A|) = m * prod sqrt(p) over primes p | s, via quadratic Gauss sums
    root = [0] * N
    root[0] = m
    if s % 2 == 0:
        step = N // 8
        factor = [0] * N
        factor[step] = 1
        factor[-step] = 1  # zeta_8 + zeta_8^-1 = sqrt(2)
        root = _poly_mul_mod_xn(root, factor, N)
    for p in odd_primes:
        g = [0] * N
        for a in range(1, p):
            ls = pow(a, (p - 1) // 2, p)
            g[a * (N // p)] += 1 if ls == 1 else -1
        if p % 4 == 3:  # g = i sqrt(p); divide by i = zeta_8^2
            shift = [0] * N
            shift[-(N // 4)] = 1
            g = _poly_mul_mod_xn(g, shift, N)
        root = _poly_mul_mod_xn(root, g, N)
    for sigma in range(8):
        target = _poly_mul_mod_xn(root, _unit_vector(N, sigma * N // 8), N)
        diff = [a - b for a, b in zip(S, target)]
        if not _poly_mod_cyclotomic(diff, N):
            return sigma
    raise AssertionError("Gauss sum did not match any eighth root of unity")


def _unit_vector(n, k):
    v = [0] * n
    v[k % n] = 1
    return v
