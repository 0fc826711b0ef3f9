"""Exact rational values via closed-form binomial sums.

Every quantity here is also computable by exhaustive enumeration and by the
series recurrences; this module provides the third, independent route.  All
results are fractions.Fraction (or int where the value is integral).

Each closed form is a weighted sum, over k = step, 2 step, ..., of one
binomial difference per k, and one kernel, ``_differences``, yields them:
trees take the second difference of C(2n, n+1-k), paths the first
difference of C(2n-1, n-k); step is 2^r for the per-r quantities and 1 for
the totals.  The kernel computes one binomial per term, whatever the step,
and turns it into the term's difference with small-integer arithmetic and
one exact division, so every sum costs one binomial per term, not one per
binomial of the difference.
"""

import math
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "v2",
    "expected_r_branches",
    "expected_total_branches",
    "count_paths_rdeg",
    "expected_rdeg",
    "expected_fringe",
    "expected_total_fringe",
]


def v2(k):
    """2-adic valuation of k >= 1."""
    if k < 1:
        raise DomainError("valuation needs a positive integer")
    return (k & -k).bit_length() - 1


def _differences(m, j0, d, step):
    """Yield (k, Delta^d C(m, j0 - k)) for k = step, 2 step, ... <= j0.

    The d-th backward difference is
    sum_i (-1)^i C(d, i) C(m, j - i), i = 0..d, with j = j0 - k and
    C(m, j) = 0 outside 0 <= j <= m.  Each term computes one binomial,
    C(m, t) with t = min(j, m), the highest index of the difference that
    can be nonzero, and reaches the others by the falling factorial [t]_u:
    C(m, t - u) = C(m, t) [t]_u / ((m-t+1) ... (m-t+u)), which is 0 below
    index 0.  Over the common denominator (m-t+1) ... (m-t+e), with
    e = d - (j - t) the number of binomials below index t, the difference
    is C(m, t) times a small integer, divided exactly by that denominator.
    No term derives its binomial from another term's.
    """
    signed = [1]  # (-1)^i C(d, i), i = 0..d
    for i in range(d):
        signed.append(-signed[i] * (d - i) // (i + 1))
    for k in range(step, j0 + 1, step):
        j = j0 - k
        t = min(j, m)
        above = j - t  # the first `above` binomials have index above m
        if above > d:
            yield k, 0
            continue
        # Horner from u = e down to 0 of
        # sum_u signed[above + u] [t]_u / ((m-t+1) ... (m-t+u)) = num / den
        num, den = signed[d], 1
        for u in range(d - above - 1, -1, -1):
            f = m - t + u + 1
            num = signed[above + u] * den * f + num * (t - u)
            den *= f
        yield k, math.comb(m, t) * num // den


def _tree_terms(n, step=1):
    # C(2n, n+1-k) - 2 C(2n, n-k) + C(2n, n-1-k)
    return _differences(2 * n, n + 1, 2, step)


def _path_terms(n, step=1):
    # C(2n-1, n-k) - C(2n-1, n-k-1)
    return _differences(2 * n - 1, n, 1, step)


def expected_r_branches(n, r):
    """Mean number of r-branches over the uniform size-n trees."""
    if n < 0 or r < 0:
        raise DomainError("n and r must be nonnegative")
    if r == 0:
        return n + 1
    if r >= (n + 1).bit_length():
        return Fraction(0)  # no k = 2^r, 2 2^r, ... <= n + 1
    acc = sum((k >> r) * delta for k, delta in _tree_terms(n, 1 << r))
    return Fraction((n + 1) * acc, math.comb(2 * n, n))


def expected_total_branches(n):
    """Mean of the total branch count over the uniform size-n trees."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    acc = 0
    for k, delta in _tree_terms(n):
        v = v2(k)  # (2 - 2^-v) k = (2^(v+1) - 1) (k >> v)
        acc += ((2 << v) - 1) * (k >> v) * delta
    return Fraction((n + 1) * acc, math.comb(2 * n, n))


def count_paths_rdeg(n, r):
    """Number of length-n paths with reduction degree exactly r."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    if r == 0:
        # the four atomic steps reduce in zero steps only for n = 1
        return 4 if n == 1 else 0
    if r >= n.bit_length():
        return 0  # no k = 2^r, 2 2^r, ... <= n
    acc = 0
    for k, delta in _path_terms(n, 1 << r):
        lam = k >> r
        acc += lam * (-1) ** (lam - 1) * delta
    return 4 ** (r + 1) * acc


def expected_rdeg(n):
    """Mean reduction degree of a uniform length-n path."""
    if n < 1:
        raise DomainError("need n >= 1")
    acc = sum(8 * k * ((1 << v2(k)) - 1) * delta for k, delta in _path_terms(n))
    return Fraction(acc, 4**n)


def expected_fringe(n, r):
    """Mean size of the r-th fringe of a uniform length-n path."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    if r >= n.bit_length():
        return Fraction(0)  # no k = 2^r, 2 2^r, ... <= n
    acc = 0
    for k, delta in _path_terms(n, 1 << r):
        lam = k >> r
        acc += (2 * lam**3 + lam) // 3 * delta  # (2 lam^3 + lam) / 3 is an integer
    return Fraction(4 ** (r + 1) * acc, 4**n)


def expected_total_fringe(n):
    """Mean of the total fringe size of a uniform length-n path."""
    if n < 1:
        raise DomainError("need n >= 1")
    acc = 0
    for k, delta in _path_terms(n):
        # 2k^3 (2 - 2^-v) + k (2^(v+1) - 1) = (2^(v+1) - 1) (2k^2 (k >> v) + k)
        v = v2(k)
        acc += ((2 << v) - 1) * (2 * k * k * (k >> v) + k) * delta
    return Fraction(4 * acc, 3 * 4**n)
