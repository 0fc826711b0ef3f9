"""Floating-point asymptotic expansions and their periodic fluctuations.

Four quantities carry a 1-periodic fluctuation in log_4 n: the total branch
count of trees, the mean and the variance of the path reduction degree, and
the total fringe size of paths.  Their Fourier coefficients involve gamma,
digamma and zeta on the vertical line Re = 0 shifted by chi_k = 2*pi*i*k/log 2
and are precomputed once per (family, K) pair.
"""

import cmath
import math
from collections import namedtuple
from functools import lru_cache, wraps

from .errors import DomainError
from .special import EULER_GAMMA, digamma_c, gamma_c, zeta_c

__all__ = [
    "FluctuationSpec",
    "AsymptoticValue",
    "fluctuation",
    "asy_r_branch_mean",
    "asy_r_branch_var",
    "asy_total_branches_smooth",
    "asy_total_branches_mean",
    "asy_rdeg",
    "asy_count_rdeg",
    "asy_fringe",
    "theta_r",
    "asy_total_fringe_smooth",
    "asy_total_fringe_mean",
]

_LOG2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)


def chi(k):
    return 2j * math.pi * k / _LOG2


# ---------------------------------------------------------------------------
# fluctuations

_FAMILIES = ("branches-total", "rdeg-mean", "rdeg-var", "fringe-total")


# namedtuples rather than dataclasses, with the same fields, equality and
# repr, immutable too: importing dataclasses also imports inspect, a large
# share of the cold start of a CLI request that needs neither
class FluctuationSpec(namedtuple("FluctuationSpec", "family big_k coeffs")):
    """Fourier data of one 1-periodic, mean-zero fluctuation: coeffs holds
    the coefficient of e^{2 pi i k x} for k = 1..K, up to the first that is
    0.0.  The gamma factor of a coefficient decays like e^{-pi |chi_k| / 4}
    and underflows from k = 105 or 106 on, so every later coefficient is 0.0
    too, and the build stops at the first zero whatever K is."""

    __slots__ = ()

    def __call__(self, x):
        # conjugate symmetry: the k and -k terms sum to twice the real part
        acc = 0.0
        for k, c in enumerate(self.coeffs, start=1):
            acc += 2.0 * (c * cmath.exp(2j * math.pi * k * x)).real
        return acc


def _coeff(family, k):
    x = chi(k)
    if family == "branches-total":
        return gamma_c(x / 2) * zeta_c(x - 1) * (x - 1) / _LOG2
    if family == "rdeg-mean":
        # delta_1 = log2 * sum c_k e^{2 pi i k x}
        return _LOG2 * _c_k(k)
    if family == "rdeg-var":
        return _d_k(k) - _c_k(k) * digamma_c(1 + x / 2)
    if family == "fringe-total":
        return (
            2.0
            / (3.0 * _SQRT_PI * _LOG2)
            * gamma_c((3 + x) / 2)
            * (2 * zeta_c(x - 1) + zeta_c(x + 1))
        )
    raise DomainError(f"unknown fluctuation family {family!r}; know {_FAMILIES}")


def _c_k(k):
    x = chi(k)
    return 2.0 / (_SQRT_PI * _LOG2**2) * gamma_c((3 + x) / 2) * zeta_c(1 + x)


def _d_k(k):
    x = chi(k)
    return (
        4.0
        / (_SQRT_PI * _LOG2**2)
        * gamma_c((3 + x) / 2)
        * (digamma_c(2 + x) * zeta_c(1 + x) + zeta_c(1 + x, 1))
        - 3.0 * _c_k(k) * _LOG2
    )


@lru_cache(maxsize=None)
def fluctuation(family, big_k=20):
    if big_k < 1:
        raise DomainError("need at least one Fourier summand")
    coeffs = []
    for k in range(1, big_k + 1):
        c = _coeff(family, k)
        if c == 0:
            break
        coeffs.append(c)
    return FluctuationSpec(family, big_k, tuple(coeffs))


# ---------------------------------------------------------------------------
# expansions

AsymptoticValue = namedtuple(
    "AsymptoticValue", "value error_order n r big_k", defaults=(None, None)
)


def _four_to(r):
    """4.0**r, whose float range ends below r = 512."""
    if r >= 512:
        raise DomainError(f"the asymptotic expansions need r < 512, got r = {r}")
    return 4.0**r


def _finite(value, r):
    """value, or a DomainError where it is not finite: the expansions in
    r form q^2 or q^3 with q = 4.0**r, which overflow below r = 512."""
    if not math.isfinite(value):
        raise DomainError(f"the asymptotic expansion overflows a float at r = {r}")
    return value


def _float_n(expansion):
    """expansion, raising a DomainError where n is too large for its float
    arithmetic (an int beyond 2^1024 does not convert to a float) rather
    than an OverflowError."""

    @wraps(expansion)
    def checked(n, *args, **kwargs):
        try:
            return expansion(n, *args, **kwargs)
        except OverflowError:
            raise DomainError(
                "n is too large for the float arithmetic of the asymptotic expansions"
            ) from None

    return checked


@_float_n
def asy_r_branch_mean(n, r):
    """Expected number of r-branches, all printed terms through 1/n^2.
    Not finite, so a DomainError, from r = 256 on."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    q = _four_to(r)
    try:  # rounded as float/int division rounds it
        twelve_n2 = float(12 * n * n)
    except OverflowError:  # from n = 3.9e153 on; the n^-2 term is then 0
        twelve_n2 = math.inf
    value = (
        n / q
        + (1 + 5 / q) / 6
        + (q - 1 / q) / (20 * n)
        + (5 * q * q / 21 - 7 * q / 10 + 97 / (210 * q)) / twelve_n2
    )
    return AsymptoticValue(_finite(value, r), "O(n^-3)", n, r=r)


@_float_n
def asy_r_branch_var(n, r):
    """Variance of the number of r-branches, through 1/n.  Not finite, so
    a DomainError, from r = 171 on."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    q = _four_to(r)
    q2 = q * q
    value = (
        (q - 1) / (3 * q2) * n
        - (2 * q2 - 25 * q + 23) / (90 * q2)
        - (13 * q2 * q - 14 * q2 + 7 * q - 6) / (420 * q2 * n)
    )
    return AsymptoticValue(_finite(value, r), "O(n^-2)", n, r=r)


def _log4(n):
    return math.log(n) / math.log(4.0)


def _zeta_prime_at_minus_one():
    """zeta'(-1), which enters the constant term of the total branch count.

    A literal with the bits zeta_c(-1, 1).real gives, which a test
    recomputes, so no request pays for the 64 Cauchy-circle evaluations.
    It is one ulp from the correctly rounded constant, which would change
    the expansions' output in the last digit.
    """
    return float.fromhex("-0x1.52c8521215340p-3")


@_float_n
def asy_total_branches_smooth(n):
    """Expected total branch count of a uniform size-n tree without its
    periodic fluctuation: the terms through the constant."""
    if n < 2:
        raise DomainError("need n >= 2")
    return (
        4.0 * n / 3.0
        + _log4(n) / 6.0
        - 2.0 * _zeta_prime_at_minus_one() / _LOG2
        - EULER_GAMMA / (12.0 * _LOG2)
        - 1.0 / (6.0 * _LOG2)
        + 43.0 / 36.0
    )


def asy_total_branches_mean(n, big_k=20):
    """Expected total branch count of a uniform size-n tree."""
    fluc = fluctuation("branches-total", big_k)
    value = asy_total_branches_smooth(n) + fluc(_log4(n))
    return AsymptoticValue(value, "O(log n / n)", n, big_k=big_k)


def asy_rdeg(n, big_k=20, which="mean"):
    """Mean or variance of the reduction degree of a uniform length-n path."""
    if n < 2:
        raise DomainError("need n >= 2")
    x = _log4(n)
    const = (EULER_GAMMA + 2.0 - 3.0 * _LOG2) / (2.0 * _LOG2)
    d1 = fluctuation("rdeg-mean", big_k)(x)
    if which == "mean":
        return AsymptoticValue(x + const + d1, "O(n^-1)", n, big_k=big_k)
    if which != "variance":
        raise DomainError(f"unknown moment {which!r}")
    zpp0 = zeta_c(0, 2).real
    lead = (
        (math.pi**2 - 24.0 * math.log(math.pi) ** 2 - 48.0 * zpp0 - 24.0)
        / (24.0 * _LOG2**2)
        - 2.0 * math.log(math.pi) / _LOG2
        - 11.0 / 12.0
    )
    d2 = fluctuation("rdeg-var", big_k)(x)
    value = lead + d2 - 2.0 * const * d1 - d1 * d1
    return AsymptoticValue(value, "O(log n / n)", n, big_k=big_k)


@_float_n
def asy_count_rdeg(n, r):
    """Main term for the number of length-n paths of reduction degree r.

    Exact for r = 1 and n >= 2, since the subdominant poles vanish there.
    """
    if n < 1 or r < 1:
        raise DomainError("need n >= 1 and r >= 1")
    a = math.pi * 2.0 ** (-r - 1)
    c2 = math.cos(a) ** 2
    return (4.0 * c2) ** n * (4.0 * math.tan(a) ** 2 * n - 2.0 / c2)


@_float_n
def asy_fringe(n, r, which="mean"):
    """Mean or variance of the r-th fringe size of a uniform length-n path.

    The error term is exponentially small, O(n^5 theta_r^-n) with
    theta_r = 4/(2 + 2cos(2 pi/2^r)) > 1 for r >= 2.  The printed terms
    are exact for r = 0, and for r = 1 from n = 3 (mean) or n = 4
    (variance); below that the r = 1 forms are off by O(1), since every
    path that short has a first fringe of one fixed size.  A value that
    overflows a float, r >= 256 for the variance, is a DomainError.
    """
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    q = _four_to(r)
    if which == "mean":
        value = n / q + (1.0 - 1.0 / q) / 3.0
    elif which == "variance":
        q2 = _finite(q * q, r)
        value = (q - 1.0) / (3.0 * q2) * n + (-2.0 - 5.0 / q + 7.0 / q2) / 45.0
    else:
        raise DomainError(f"unknown moment {which!r}")
    if r >= 2:
        tag = "O(n^5 theta_r^-n)"
    elif r == 0 or n >= (3 if which == "mean" else 4):
        tag = "exact"
    else:
        tag = "O(1)"
    return AsymptoticValue(_finite(value, r), tag, n, r=r)


def theta_r(r):
    """Inverse decay rate of the fringe-moment error terms, for r >= 2.

    theta_r - 1 is about pi^2/4^r, which is below the spacing of doubles
    at 1 from r = 29 on, so the float is 1.0 there.
    """
    if r < 2:
        raise DomainError("the error term is absent for r < 2")
    return 4.0 / (2.0 + 2.0 * math.cos(math.ldexp(2.0 * math.pi, -r)))


@_float_n
def asy_total_fringe_smooth(n):
    """Expected total fringe size of a uniform length-n path without its
    periodic fluctuation: the terms through the constant."""
    if n < 2:
        raise DomainError("need n >= 2")
    return (
        4.0 * n / 3.0
        + _log4(n) / 3.0
        + (5.0 + 3.0 * EULER_GAMMA - 11.0 * _LOG2) / (18.0 * _LOG2)
    )


def asy_total_fringe_mean(n, big_k=20):
    """Expected total fringe size of a uniform length-n path."""
    value = asy_total_fringe_smooth(n) + fluctuation("fringe-total", big_k)(_log4(n))
    return AsymptoticValue(value, "O(log n / n)", n, big_k=big_k)
