import cmath
import math

import mpmath as mp
import pytest

from redcalc.errors import DomainError
from redcalc.special import (
    EULER_GAMMA,
    bernoulli,
    digamma_c,
    gamma_c,
    loggamma_c,
    zeta_c,
)

mp.mp.dps = 30

# covers both half-planes and the tall imaginary range the fluctuations use
GRID = [
    0.5,
    2.0,
    -2.5,
    0.1 + 0.1j,
    3.0 + 9.0647j,
    1.0 + 4.5324j,
    -0.5 + 150.0j,
    0.5 + 200.0j,
    2.5 - 199.0j,
    -3.5 - 80.0j,
]


class TestGamma:
    def test_half_integer(self):
        assert abs(gamma_c(0.5) - math.sqrt(math.pi)) < 1e-13

    def test_factorial(self):
        assert abs(gamma_c(5) - 24) < 1e-11

    def test_poles(self):
        for s in (0, -1, -2, -7):
            with pytest.raises(DomainError):
                gamma_c(s)

    @pytest.mark.parametrize("s", GRID)
    def test_against_reference(self, s):
        want = complex(mp.gamma(s))
        got = gamma_c(s)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("s", GRID)
    def test_recurrence(self, s):
        lhs = gamma_c(s + 1)
        rhs = s * gamma_c(s)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_loggamma_exponentiates(self):
        for s in (3.7, 1.5 + 2j, 0.5 + 50j):
            assert abs(cmath.exp(loggamma_c(s)) - gamma_c(s)) < 1e-10 * max(
                1.0, abs(gamma_c(s))
            )


class TestDigamma:
    def test_at_one(self):
        assert abs(digamma_c(1) + EULER_GAMMA) < 1e-12

    def test_poles(self):
        with pytest.raises(DomainError):
            digamma_c(-3)

    @pytest.mark.parametrize("s", GRID)
    def test_against_reference(self, s):
        want = complex(mp.digamma(s))
        assert abs(digamma_c(s) - want) <= 1e-10 * max(1.0, abs(want))

    def test_recurrence(self):
        for s in (0.3, 2 + 5j, -1.5 + 20j):
            assert abs(digamma_c(s + 1) - digamma_c(s) - 1 / s) < 1e-10


class TestBernoulli:
    def test_small(self):
        from fractions import Fraction

        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_pinned_through_30(self):
        want = [
            "1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30", "0",
            "5/66", "0", "-691/2730", "0", "7/6", "0", "-3617/510", "0",
            "43867/798", "0", "-174611/330", "0", "854513/138", "0",
            "-236364091/2730", "0", "8553103/6", "0", "-23749461029/870",
            "0", "8615841276005/14322",
        ]
        assert [str(bernoulli(m)) for m in range(31)] == want


ZETA_GRID = [
    2.0,
    -1.0,
    -0.25,
    0.0,
    0.5 + 14.1347j,
    1.0 + 9.0647j,
    -1.0 + 9.0647j,
    0.5 + 200.0j,
    -0.5 + 199.0j,
    -3.5 + 50.0j,
    1.0 + 181.3j,
    -1.0 - 181.3j,
]


class TestZeta:
    def test_basel(self):
        assert abs(zeta_c(2) - math.pi**2 / 6) < 1e-12

    def test_minus_one(self):
        assert abs(zeta_c(-1) + 1 / 12) < 1e-12

    def test_trivial_zeros(self):
        for s in (-2, -4, -6):
            assert zeta_c(s) == 0

    def test_pole(self):
        with pytest.raises(DomainError):
            zeta_c(1)
        with pytest.raises(DomainError):
            zeta_c(2, order=3)

    def test_derivative_at_minus_one(self):
        assert abs(zeta_c(-1, 1).real + 0.1654211437) < 1e-9
        assert abs(zeta_c(-1, 1).imag) < 1e-10

    def test_second_derivative_at_zero_vs_reference(self):
        want = complex(mp.zeta(0, derivative=2))
        assert abs(zeta_c(0, 2) - want) < 1e-8

    @pytest.mark.parametrize("s", ZETA_GRID)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_against_reference(self, s, order):
        want = complex(mp.zeta(mp.mpc(s), derivative=order))
        tol = 1e-10 if order == 0 else 1e-8
        assert abs(zeta_c(s, order) - want) <= tol * max(1.0, abs(want))

    def test_functional_equation_self_consistency(self):
        # chi(s) * zeta(1-s) with everything evaluated on the right side
        for s in (0.25, -0.25 + 3j, 0.4 - 7j, 0.1 + 30j):
            lhs = zeta_c(s)
            rhs = (
                2**complex(s)
                * cmath.pi ** (s - 1)
                * cmath.sin(cmath.pi * s / 2)
                * gamma_c(1 - s)
                * zeta_c(1 - s)
            )
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_derivative_vs_finite_difference(self):
        h = 1e-6
        for s in (2.5, 0.3 + 4j, -0.2 + 9j):
            fd = (zeta_c(s + h) - zeta_c(s - h)) / (2 * h)
            assert abs(zeta_c(s, 1) - fd) < 1e-6
