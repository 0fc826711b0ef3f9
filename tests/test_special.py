import cmath
import hashlib
import math

import mpmath as mp
import pytest

from redcalc import special
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


def _digest(values):
    """sha256 (first 32 hex digits) of the space-joined float.hex of the
    real and imaginary parts of values."""
    text = " ".join(p.hex() for c in values for p in (c.real, c.imag))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _chi(k):
    return 2j * math.pi * k / math.log(2.0)


class TestBitPins:
    """Bit patterns of zeta_c, digamma_c and the Bernoulli weights, recorded
    with float.hex; a refactor of special must leave every one unchanged."""

    # the arguments of zeta in the Fourier coefficients, s = chi_k - 1,
    # 2 - chi_k and 1 + chi_k, and real points on both sides of Re s = -0.5
    ZETA_POINTS = [
        s
        for k in (1, 20, 105)
        for s in (_chi(k) - 1, 2 - _chi(k), 1 + _chi(k))
    ] + [-3.5, -1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 3.0]

    # order -> digest of zeta_c(s, order) over ZETA_POINTS
    ZETA = {
        0: "af57c2dac7cd294817633bdb2a50350c",
        1: "01c6bbe001dc5b5d2fe97e95a426b959",
        2: "c0f3e03e91b5bea7aa9012be4d5b7311",
    }

    DIGAMMA_POINTS = [1 + _chi(1) / 2, 2 + _chi(20), 1 + _chi(105) / 2, -2.5, 0.5, 7.0]
    DIGAMMA = "7a0ada1fbce39c29e7a2113909bbf254"

    # B_2j/(2j)!, j = 1..15, the Euler-Maclaurin weights of zeta
    EM_WEIGHTS = (
        "0x1.5555555555555p-4", "-0x1.6c16c16c16c17p-10",
        "0x1.1566abc011567p-15", "-0x1.bbd779334ef0bp-21",
        "0x1.66a8f2bf70ebep-26", "-0x1.22805d644267fp-31",
        "0x1.d6db2c4e09162p-37", "-0x1.7da4e1f79955cp-42",
        "0x1.355871d652e9ep-47", "-0x1.f57d968caacf1p-53",
        "0x1.967e1f09c376fp-58", "-0x1.497d9033a2b5cp-63",
        "0x1.0b132d7c6ad06p-68", "-0x1.b0f72d59f1c16p-74",
        "0x1.5ef2da4cca26dp-79",
    )

    # B_2j, j = 1..8, the weights of digamma's asymptotic series
    DIGAMMA_WEIGHTS = (
        "0x1.5555555555555p-3", "-0x1.1111111111111p-5",
        "0x1.8618618618618p-6", "-0x1.1111111111111p-5",
        "0x1.364d9364d9365p-4", "-0x1.0330330330330p-2",
        "0x1.2aaaaaaaaaaabp+0", "-0x1.c5e5e5e5e5e5ep+2",
    )

    @pytest.mark.parametrize("order", sorted(ZETA))
    def test_zeta(self, order):
        got = [zeta_c(s, order) for s in self.ZETA_POINTS]
        assert _digest(got) == self.ZETA[order]

    def test_digamma(self):
        assert _digest(digamma_c(s) for s in self.DIGAMMA_POINTS) == self.DIGAMMA

    def test_bernoulli_weights(self):
        em = [float(bernoulli(2 * j) / math.factorial(2 * j)) for j in range(1, 16)]
        assert tuple(w.hex() for w in em) == self.EM_WEIGHTS
        plain = [float(bernoulli(2 * j)) for j in range(1, 9)]
        assert tuple(w.hex() for w in plain) == self.DIGAMMA_WEIGHTS

    def test_literal_weights(self):
        assert tuple(w.hex() for w in special._EM_WEIGHTS) == self.EM_WEIGHTS
        assert tuple(w.hex() for w in special._B_EVEN) == self.DIGAMMA_WEIGHTS
