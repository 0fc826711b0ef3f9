import cmath
import hashlib
import math
from fractions import Fraction

import mpmath
import pytest

from redcalc import asym, exact, oracle, series
from redcalc.errors import DomainError
from redcalc.special import zeta_c

FAMILIES = ("branches-total", "rdeg-mean", "rdeg-var", "fringe-total")


class TestSubstitutionMaps:
    def test_sigma_commutes_with_squaring(self):
        # sigma(Z(u)) = Z(u^2) for the tree-size substitution
        # Z(u) = u/(1+u)^2 = sum_k (-1)^(k-1) k u^k, in exact series
        order = 24
        z_u = series.TruncatedSeries.from_terms(
            order, {k: (-1) ** (k - 1) * k for k in range(1, order + 1)}
        )
        z_u2 = series.TruncatedSeries.from_terms(
            order, {2 * k: (-1) ** (k - 1) * k for k in range(1, order // 2 + 1)}
        )
        assert series.sigma_series(order).compose(z_u) == z_u2


def _mp_zeta(s, derivative=0):
    # mpmath's default method takes zeta(s) from the alternating series
    # over 1 - 2^(1-s), which vanishes at s = 1 + chi_k: at k = 1 it is off
    # by 4e-7 to 7e-7 at 15, 30 or 50 digits; Euler-Maclaurin is not
    return mpmath.zeta(s, 1, derivative, method="euler-maclaurin")


def _mp_coeff(family, k):
    """asym._coeff(family, k) in mpmath, at its working precision."""
    log2, sqrt_pi = mpmath.log(2), mpmath.sqrt(mpmath.pi)
    x = 2j * mpmath.pi * k / log2
    g = mpmath.gamma((3 + x) / 2)
    c = 2 / (sqrt_pi * log2**2) * g * _mp_zeta(1 + x)
    if family == "branches-total":
        return mpmath.gamma(x / 2) * _mp_zeta(x - 1) * (x - 1) / log2
    if family == "rdeg-mean":
        return log2 * c
    if family == "rdeg-var":
        d = (
            4 / (sqrt_pi * log2**2)
            * g
            * (mpmath.digamma(2 + x) * _mp_zeta(1 + x) + _mp_zeta(1 + x, 1))
            - 3 * c * log2
        )
        return d - c * mpmath.digamma(1 + x / 2)
    return 2 / (3 * sqrt_pi * log2) * g * (2 * _mp_zeta(x - 1) + _mp_zeta(x + 1))


class TestFluctuations:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_real_and_periodic(self, family):
        f = asym.fluctuation(family, 20)
        for x in (0.0, 0.123, 0.5, 0.987):
            v = f(x)
            assert isinstance(v, float)
            assert abs(f(x + 1) - v) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_zero_over_period(self, family):
        f = asym.fluctuation(family, 20)
        mean = sum(f(j / 512) for j in range(512)) / 512
        assert abs(mean) < 1e-8

    @pytest.mark.parametrize("family", FAMILIES)
    def test_imaginary_residue_of_coefficient_sum(self, family):
        # summing the k and -k terms explicitly must be purely real
        f = asym.fluctuation(family, 20)
        for x in (0.1, 0.7):
            acc = 0j
            for k, c in enumerate(f.coeffs, start=1):
                e = cmath.exp(2j * math.pi * k * x)
                acc += c * e + c.conjugate() / e
            assert abs(acc.imag) < 1e-10

    def test_amplitude_in_plotted_band(self):
        for family in ("branches-total", "fringe-total"):
            f = asym.fluctuation(family, 20)
            lo = min(f(j / 512) for j in range(512))
            hi = max(f(j / 512) for j in range(512))
            assert -0.09 <= lo <= hi <= 0.06
            assert hi - lo > 0.05  # visibly nonzero, per the plotted scale

    @pytest.mark.parametrize("family", FAMILIES)
    def test_big_k_stops_at_the_first_zero_coefficient(self, family):
        # every coefficient from the first 0.0 through k = 400 is 0.0, so a
        # huge K builds only the nonzero ones and sums to the same bits
        full = [asym._coeff(family, k) for k in range(1, 401)]
        first_zero = full.index(0)
        assert first_zero in (104, 105) and not any(full[first_zero:])
        f = asym.fluctuation(family, 10**6)
        assert (f.big_k, f.coeffs) == (10**6, tuple(full[:first_zero]))
        reference = asym.FluctuationSpec(family, 400, tuple(full))
        for x in (0.0, 0.3, 0.77):
            assert f(x).hex() == reference(x).hex()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_coefficients_match_mpmath(self, family):
        # special's target is an absolute error of about 1e-10
        coeffs = asym.fluctuation(family, 20).coeffs
        with mpmath.workdps(30):
            want = [complex(_mp_coeff(family, k)) for k in range(1, 21)]
        assert max(abs(c - w) for c, w in zip(coeffs, want, strict=True)) < 1e-10

    def test_coefficients_cached(self):
        assert asym.fluctuation("rdeg-mean", 20) is asym.fluctuation("rdeg-mean", 20)

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            asym.fluctuation("nope", 5)


class TestRBranchExpansions:
    def test_mean_degenerates_at_r_zero(self):
        for n in (1, 10, 100):
            assert asym.asy_r_branch_mean(n, 0).value == n + 1

    def test_var_degenerates_at_r_zero(self):
        for n in (1, 10, 100):
            assert asym.asy_r_branch_var(n, 0).value == 0.0

    @pytest.mark.parametrize("r", [512, 10**5])
    def test_r_beyond_float_range_is_domain_error(self, r):
        for expansion in (
            asym.asy_r_branch_mean,
            asym.asy_r_branch_var,
            asym.asy_fringe,
            lambda n, r: asym.asy_fringe(n, r, "variance"),
        ):
            with pytest.raises(DomainError, match="need r < 512"):
                expansion(5, r)
        assert math.isclose(asym.asy_fringe(5, 511).value, 1 / 3)

    @pytest.mark.parametrize(
        "expansion, last_finite",
        [
            (asym.asy_r_branch_mean, 255),
            (asym.asy_r_branch_var, 170),
            (lambda n, r: asym.asy_fringe(n, r, "variance"), 255),
        ],
        ids=["mean", "variance", "fringe-variance"],
    )
    def test_value_that_overflows_is_domain_error(self, expansion, last_finite):
        for n in (1, 5, 10**6):
            assert math.isfinite(expansion(n, last_finite).value)
            for r in (last_finite + 1, 300, 511):
                with pytest.raises(
                    DomainError, match=f"overflows a float at r = {r}$"
                ):
                    expansion(n, r)
            assert math.isfinite(asym.asy_fringe(n, 511, "mean").value)

    def test_mean_is_finite_where_12_n_squared_is_not_a_float(self):
        # 12 n^2 leaves the float range from n = 3.9e153 on; n does not
        for n in (4 * 10**153, 10**200):
            for r in (0, 1, 3, 255):
                assert math.isfinite(asym.asy_r_branch_mean(n, r).value)
            assert math.isfinite(asym.asy_r_branch_var(n, 1).value)
        assert asym.asy_r_branch_mean(10**200, 1).value == 10**200 / 4

    def test_mean_bits_match_division_by_int(self):
        def divided_by_int(n, r):
            q = 4.0**r
            return (
                n / q
                + (1 + 5 / q) / 6
                + (q - 1 / q) / (20 * n)
                + (5 * q * q / 21 - 7 * q / 10 + 97 / (210 * q)) / (12 * n * n)
            )

        for n in (1, 2, 7, 100, 4097, 10**6, 3**50, 10**100, 3 * 10**153):
            for r in range(256):
                got = asym.asy_r_branch_mean(n, r).value
                assert got.hex() == divided_by_int(n, r).hex(), (n, r)

    def test_mean_residual_n100(self):
        got = asym.asy_r_branch_mean(100, 1).value
        want = float(exact.expected_r_branches(100, 1))
        assert abs(got - 25.376885) < 1e-5
        assert abs(got - want) < 1e-4

    def test_residual_decays_cubically(self):
        # |exact - expansion| * n^3 stays bounded along a geometric grid
        for r in (1, 2):
            scaled = []
            for n in (50, 100, 200, 400, 800):
                d = abs(
                    asym.asy_r_branch_mean(n, r).value
                    - float(exact.expected_r_branches(n, r))
                )
                scaled.append(d * n**3)
            mid = sorted(scaled)[len(scaled) // 2]
            assert max(scaled) <= 10 * max(mid, 1e-9)

    def test_var_residual_decays_quadratically(self):
        def exact_var(n, r):
            m1 = exact.expected_r_branches(n, r)
            # second factorial moment via the series backend
            from redcalc.series import catalan, f2_series

            m2f = Fraction(f2_series(r, n)[n], catalan(n))
            return m2f + m1 - m1 * m1

        scaled = []
        for n in (50, 100, 200, 400):
            d = abs(asym.asy_r_branch_var(n, 1).value - float(exact_var(n, 1)))
            scaled.append(d * n**2)
        mid = sorted(scaled)[len(scaled) // 2]
        assert max(scaled) <= 10 * max(mid, 1e-9)


class TestTotalBranches:
    @pytest.mark.parametrize("n", [256, 1024])
    def test_matches_closed_form(self, n):
        got = asym.asy_total_branches_mean(n, 20).value
        want = float(exact.expected_total_branches(n))
        assert abs(got - want) < 0.01

    def test_zeta_prime_at_minus_one(self):
        # the literal is the value zeta_c gives, bit for bit
        zp = asym._zeta_prime_at_minus_one()
        assert zp.hex() == zeta_c(-1, 1).real.hex()
        assert abs(zp - -0.1654211437004509292) < 1e-15

    def test_mean_is_smooth_plus_fluctuation(self):
        for n in (2, 3, 100, 4097):
            x = math.log(n) / math.log(4.0)
            assert asym.asy_total_branches_mean(n, 7).value == (
                asym.asy_total_branches_smooth(n)
                + asym.fluctuation("branches-total", 7)(x)
            )
        with pytest.raises(DomainError):
            asym.asy_total_branches_smooth(1)


class TestRdegExpansions:
    @pytest.mark.parametrize("n", [256, 1024])
    def test_mean_matches_closed_form(self, n):
        got = asym.asy_rdeg(n, 20, "mean").value
        want = float(exact.expected_rdeg(n))
        assert abs(got - want) < 0.01

    def test_variance_matches_exact_distribution(self):
        for n in (512, 1024):
            m1 = exact.expected_rdeg(n)
            m2 = sum(
                Fraction(r * r * exact.count_paths_rdeg(n, r), 4**n)
                for r in range(n.bit_length())
            )
            want = float(m2 - m1 * m1)
            got = asym.asy_rdeg(n, 20, "variance").value
            assert abs(got - want) < 0.01

    def test_unknown_moment(self):
        with pytest.raises(DomainError):
            asym.asy_rdeg(100, 20, "median")


class TestCountRdeg:
    def test_exact_at_r_one(self):
        for n in range(2, 65):
            got = asym.asy_count_rdeg(n, 1)
            want = exact.count_paths_rdeg(n, 1)
            assert abs(got - want) <= 1e-9 * want

    def test_printed_values(self):
        assert abs(asym.asy_count_rdeg(4, 1) - 192) < 1e-9
        assert abs(asym.asy_count_rdeg(8, 1) - 7168) < 1e-6

    def test_r_two_relative_error(self):
        got = asym.asy_count_rdeg(20, 2)
        want = exact.count_paths_rdeg(20, 2)
        assert abs(got - want) <= 0.02 * want


class TestFringeExpansions:
    def test_r_zero_deterministic(self):
        for n in (1, 5, 100):
            assert asym.asy_fringe(n, 0, "mean").value == n
            assert asym.asy_fringe(n, 0, "variance").value == 0.0

    def test_mean_exact_for_small_r(self):
        got = asym.asy_fringe(10, 1, "mean").value
        assert got == 2.75
        assert abs(got - float(exact.expected_fringe(10, 1))) < 1e-12

    def test_error_tags(self):
        assert asym.asy_fringe(10, 1, "mean").error_order == "exact"
        assert asym.asy_fringe(10, 2, "mean").error_order.startswith("O(")

    def test_exact_tag_only_on_exact_values(self):
        # r <= 1: the mean against the closed form, the variance against the
        # second-moment series and, where enumeration is cheap, the oracle;
        # the r = 1 forms are exact from n = 3 (mean) and n = 4 (variance)
        sq = {r: series.h_r_bivariate(r, 64).eval_moment("second_raw") for r in (0, 1)}
        for n in range(1, 65):
            stats = oracle.path_stats(n) if n <= 8 else None
            for r in (0, 1):
                mean = exact.expected_fringe(n, r)
                var = Fraction(sq[r][n], 4**n) - mean**2
                if stats:
                    assert stats.per_r[r].variance() == var
                for which, want, exact_from in (
                    ("mean", mean, 3), ("variance", var, 4)
                ):
                    got = asym.asy_fringe(n, r, which)
                    tagged = got.error_order == "exact"
                    assert tagged == (r == 0 or n >= exact_from), (n, r, which)
                    if tagged:
                        assert Fraction(got.value) == want, (n, r, which)

    def test_variance_constant_term_does_not_overflow(self):
        # the constant term over 45 q^2 overflows at r = 255; below that it
        # must give the same bits as the form divided through by q^2
        def over_q_squared(n, r):
            q = 4.0**r
            return (q - 1.0) / (3.0 * q * q) * n + (-2.0 * q * q - 5.0 * q + 7.0) / (
                45.0 * q * q
            )

        for n in (1, 5, 100, 4097, 10**6):
            for r in range(255):
                got = asym.asy_fringe(n, r, "variance").value
                assert got.hex() == over_q_squared(n, r).hex()
            got = asym.asy_fringe(n, 255, "variance").value
            assert math.isclose(got, -2 / 45, rel_tol=1e-12)
            with pytest.raises(DomainError, match="overflows a float at r = 256$"):
                asym.asy_fringe(n, 256, "variance")

    def test_variance_matches_exact_values(self):
        # the exact variance is E[X^2], from the second-moment series, minus
        # the square of the closed-form mean
        def residuals(r, ns):
            sq = series.h_r_bivariate(r, max(ns)).eval_moment("second_raw")
            for n in ns:
                var = Fraction(sq[n], 4**n) - exact.expected_fringe(n, r) ** 2
                yield n, Fraction(asym.asy_fringe(n, r, "variance").value) - var

        # r <= 1: no error term from n = 4 on; below that the r = 1 form
        # is off, giving 1/16 and 1/8 at n = 2 and 3 for a variance of 0
        assert all(d == 0 for _, d in residuals(0, range(1, 65)))
        assert all(d == 0 for _, d in residuals(1, range(4, 65)))
        # r >= 2: O(n^5 theta_r^-n), at sizes where the residual is far
        # above float rounding
        for r, ns, bound in ((2, (24, 32, 40, 48), 0.01), (3, (64, 96, 128), 3e-6)):
            theta = asym.theta_r(r)
            for n, d in residuals(r, ns):
                assert 1e-10 < abs(d) and abs(d) * theta**n / n**5 < bound, (r, n)

    def test_theta_r(self):
        assert abs(asym.theta_r(2) - 2.0) < 1e-12
        assert asym.theta_r(3) > 1
        with pytest.raises(DomainError):
            asym.theta_r(1)

    def test_theta_r_is_one_from_r_29_and_never_overflows(self):
        # the direct form 2 pi / 2^r is the reference wherever 2.0**r is finite
        for r in range(2, 1024):
            want = 4.0 / (2.0 + 2.0 * math.cos(2.0 * math.pi / 2.0**r))
            assert asym.theta_r(r) == want
        assert asym.theta_r(28) > 1.0
        for r in (29, 1024, 10**6):
            assert asym.theta_r(r) == 1.0


class TestTotalFringe:
    @pytest.mark.parametrize("n", [256, 1024])
    def test_matches_closed_form(self, n):
        got = asym.asy_total_fringe_mean(n, 20).value
        want = float(exact.expected_total_fringe(n))
        assert abs(got - want) < 0.01

    def test_mean_is_smooth_plus_fluctuation(self):
        for n in (2, 3, 100, 4097):
            x = math.log(n) / math.log(4.0)
            assert asym.asy_total_fringe_mean(n, 7).value == (
                asym.asy_total_fringe_smooth(n)
                + asym.fluctuation("fringe-total", 7)(x)
            )
        with pytest.raises(DomainError):
            asym.asy_total_fringe_smooth(1)


class TestBitPins:
    """Bit patterns of the floating-point backend, recorded with float.hex;
    a refactor of special or asym must leave every one unchanged."""

    # sha256 (first 32 hex digits) of the space-joined float.hex of the real
    # and imaginary parts of fluctuation(family, 20).coeffs, k = 1..20
    COEFFS = {
        "branches-total": "6fef63fb10511f9cdb197c1af7480690",
        "rdeg-mean": "a4a49d4b832f34f90fe4e73f07ba4d5e",
        "rdeg-var": "1a0c7c4154fa9e8f343bca36ef635658",
        "fringe-total": "e36db11533a5076915acf6247b2dcc89",
    }

    # n -> total branch mean, rdeg mean, rdeg variance, total fringe mean
    EXPANSIONS = {
        16: ("0x1.6faf2d0904eecp+4", "0x1.2a14bafeb860ap+1",
             "0x1.cbf384d11b349p-3", "0x1.5e523c1391848p+4"),
        256: ("0x1.57504825e5a45p+8", "0x1.150a5d7f5c305p+2",
              "0x1.cbf384d11b348p-3", "0x1.568fce6be3c2ep+8"),
        1024: ("0x1.55debcb42413ap+10", "0x1.550a5d7f5c305p+2",
               "0x1.cbf384d11b347p-3", "0x1.55b948f04e461p+10"),
        4096: ("0x1.557a59d7b3afap+12", "0x1.950a5d7f5c305p+2",
               "0x1.cbf384d11b346p-3", "0x1.5573a79168e6dp+12"),
    }

    def test_zeta_prime_at_minus_one(self):
        assert asym._zeta_prime_at_minus_one().hex() == "-0x1.52c8521215340p-3"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fluctuation_coefficients(self, family):
        coeffs = asym.fluctuation(family, 20).coeffs
        text = " ".join(p.hex() for c in coeffs for p in (c.real, c.imag))
        digest = hashlib.sha256(text.encode()).hexdigest()[:32]
        assert (len(coeffs), digest) == (20, self.COEFFS[family])

    @pytest.mark.parametrize("n", sorted(EXPANSIONS))
    def test_expansions(self, n):
        got = (
            asym.asy_total_branches_mean(n).value,
            asym.asy_rdeg(n).value,
            asym.asy_rdeg(n, which="variance").value,
            asym.asy_total_fringe_mean(n).value,
        )
        assert tuple(v.hex() for v in got) == self.EXPANSIONS[n]

    def test_records_keep_fields_and_repr(self):
        v = asym.asy_r_branch_mean(10, 2)
        assert repr(v) == (
            "AsymptoticValue(value=0.964921875, error_order='O(n^-3)', "
            "n=10, r=2, big_k=None)"
        )
        assert v == asym.asy_r_branch_mean(10, 2)
        assert (v.value, v.error_order, v.n, v.r, v.big_k) == (
            0.964921875, "O(n^-3)", 10, 2, None
        )
        spec = asym.fluctuation("rdeg-mean", 1)
        assert repr(spec) == (
            "FluctuationSpec(family='rdeg-mean', big_k=1, "
            "coeffs=((-0.015198479884167166-0.01352242387987904j),))"
        )
        assert (spec.family, spec.big_k, len(spec.coeffs)) == ("rdeg-mean", 1, 1)
        with pytest.raises(AttributeError):
            v.value = 0.0
        with pytest.raises(AttributeError):
            spec.coeffs = ()
