import itertools
import tracemalloc
from collections import Counter

import pytest

from redcalc.errors import DomainError
from redcalc.paths import STEPS, fringe_sizes
from redcalc.series import (
    BivariateSeries,
    TruncatedSeries,
    b_r_equal_series,
    b_r_series,
    base_series,
    branch_total_series,
    catalan,
    f1_series,
    f2_series,
    h_r_bivariate,
    l_r_equal_series,
    l_r_series,
    sigma_iterate,
    sigma_series,
)


def reference_l(r, order):
    """L_r by its recurrence: L_0 = 4z and L_{k+1} = 4z + 4 L_k(sigma)."""
    four_z = TruncatedSeries.from_terms(order, {1: 4})
    sig = sigma_series(order)
    f = four_z
    for _ in range(r):
        f = four_z + 4 * f.compose(sig)
    return f


def reference_h(r, order):
    """H_r by its recurrence: H_0 = sum_{m >= 1} (4zv)^m and
    H_{k+1} = 4 H_k(sigma(z), v)."""
    h = BivariateSeries(
        [TruncatedSeries([0] * (order + 1))]
        + [TruncatedSeries.from_terms(order, {m: 4**m}) for m in range(1, order + 1)]
    )
    sig = sigma_series(order)
    for _ in range(r):
        h = BivariateSeries(4 * c for c in h.compose_z(sig).cols)
    return h


class TestArithmetic:
    def test_add_mul(self):
        a = TruncatedSeries([1, 2, 3])
        b = TruncatedSeries([0, 1, 0])
        assert (a + b).c == (1, 3, 3)
        assert (a * b).c == (0, 1, 2)
        assert (3 * a).c == (3, 6, 9)

    def test_compose_needs_positive_valuation(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]).compose(TruncatedSeries([1, 1]))

    def test_compose_geometric(self):
        # 1/(1-z) composed with 2z is 1/(1-2z)
        order = 8
        geo = TruncatedSeries([1] * (order + 1))
        double = TruncatedSeries.from_terms(order, {1: 2})
        assert geo.compose(double).c == tuple(2**n for n in range(order + 1))

    def test_order_mismatch(self):
        with pytest.raises(DomainError):
            TruncatedSeries([1, 1]) + TruncatedSeries([1, 1, 1])


class TestBaseSeries:
    def test_catalan(self):
        assert base_series("catalan_B", 6).c == (1, 1, 2, 5, 14, 42, 132)

    def test_central_binomials(self):
        assert base_series("inv_sqrt_1m4z", 4).c == (1, 2, 6, 20, 70)

    def test_second_factorial_seed(self):
        # 2z/(1-4z)^(3/2) counts ordered leaf pairs: n(n+1)C_n
        f = base_series("F0_second", 6)
        for n in range(7):
            assert f[n] == n * (n + 1) * catalan(n)

    def test_sigma_closed_form(self):
        sig = sigma_series(6)
        z = TruncatedSeries.from_terms(6, {1: 1})
        one = TruncatedSeries.from_terms(6, {0: 1})
        two_z = TruncatedSeries.from_terms(6, {1: 2})
        assert sig * (one - two_z) * (one - two_z) == z * z

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            base_series("nope", 3)


# printed expansions, bit for bit
GOLDEN_B = {
    1: (1, 1, 2, 4, 8, 16, 32, 64, 128, 256),
    2: (1, 1, 2, 5, 14, 42, 132, 428, 1416, 4744),
    3: (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862),
}
GOLDEN_L = {
    1: (0, 4, 16, 64, 192, 512, 1280, 3072, 7168, 16384),
    2: (0, 4, 16, 64, 256, 1024, 4096, 16384, 65280, 258048),
    3: (0, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144),
}
GOLDEN_H = {
    0: {
        1: {1: 4}, 2: {2: 16}, 3: {3: 64}, 4: {4: 256}, 5: {5: 1024},
        6: {6: 4096}, 7: {7: 16384}, 8: {8: 65536}, 9: {9: 262144},
    },
    1: {
        2: {1: 16}, 3: {1: 64}, 4: {2: 64, 1: 192}, 5: {2: 512, 1: 512},
        6: {3: 256, 2: 2560, 1: 1280}, 7: {3: 3072, 2: 10240, 1: 3072},
        8: {4: 1024, 3: 21504, 2: 35840, 1: 7168},
        9: {4: 16384, 3: 114688, 2: 114688, 1: 16384},
    },
    2: {
        4: {1: 64}, 5: {1: 512}, 6: {1: 2816}, 7: {1: 13312},
        8: {2: 256, 1: 58112}, 9: {2: 4096, 1: 241664},
    },
    3: {8: {1: 256}, 9: {1: 4096}},
}


class TestGoldenExpansions:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_register_bounded_trees(self, r):
        assert b_r_series(r, 9).c == GOLDEN_B[r]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_degree_bounded_paths(self, r):
        assert l_r_series(r, 9).c == GOLDEN_L[r]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_bivariate_fringe_rows(self, r):
        h = h_r_bivariate(r, 9)
        for n in range(10):
            row = {m: c for m, c in h.row(n).items() if c}
            assert row == GOLDEN_H[r].get(n, {}), (r, n)

    def test_b_zero_is_one(self):
        assert b_r_series(0, 5).c == (1, 0, 0, 0, 0, 0)

    def test_b_converges_to_catalan(self):
        # for n < 2^r - 1 every tree fits within r reductions
        assert b_r_series(5, 9).c == base_series("catalan_B", 9).c


class TestEqualitySeries:
    def test_register_exactly_partitions(self):
        order = 12
        total = b_r_equal_series(0, order)
        for r in range(1, 5):
            total = total + b_r_equal_series(r, order)
        assert total == base_series("catalan_B", order)

    def test_degree_exactly_partitions(self):
        order = 12
        total = l_r_equal_series(0, order)
        for r in range(1, 5):
            total = total + l_r_equal_series(r, order)
        assert total == base_series("L_all", order)

    def test_sigma_iterate_zero_is_identity(self):
        assert sigma_iterate(0, 5).c == (0, 1, 0, 0, 0, 0)

    @pytest.mark.parametrize("r", range(6))
    def test_equal_series_are_consecutive_differences(self, r):
        order = 33
        if r == 0:
            assert b_r_equal_series(0, order) == b_r_series(0, order)
            assert l_r_equal_series(0, order) == l_r_series(0, order)
            return
        assert b_r_equal_series(r, order) == (
            b_r_series(r, order) - b_r_series(r - 1, order)
        )
        assert l_r_equal_series(r, order) == (
            l_r_series(r, order) - l_r_series(r - 1, order)
        )

    @pytest.mark.parametrize("order", [0, 1, 9, 33, 64])
    @pytest.mark.parametrize("r", range(6))
    def test_degree_series_match_recurrence(self, r, order):
        want = reference_l(r, order)
        assert l_r_series(r, order) == want
        if r:
            want = want - reference_l(r - 1, order)
        assert l_r_equal_series(r, order) == want


class TestMomentSeries:
    def test_zero_branch_moment_counts_leaves(self):
        f = f1_series(0, 8)
        for n in range(9):
            assert f[n] == (n + 1) * catalan(n)

    def test_first_branch_moment_coefficient(self):
        assert f1_series(1, 4)[4] == 20

    def test_second_moment_vanishes_below_two_branches(self):
        # a tree needs size >= 2^r + 2^r - 1 for two r-branches
        f = f2_series(2, 9)
        assert all(f[n] == 0 for n in range(7))
        assert f[7] > 0

    def test_branch_total_small(self):
        # n=2: both trees are chains with 3 + 1 branches
        assert branch_total_series(4)[2] == 8

    @pytest.mark.parametrize("order", range(1, 41))
    def test_branch_total_sums_every_r_with_branches(self, order):
        # a size-n tree can hold an r-branch only if 2^r - 1 <= n
        want = TruncatedSeries([0] * (order + 1))
        r = 0
        while (1 << r) - 1 <= order:
            want = want + f1_series(r, order)
            r += 1
        assert branch_total_series(order) == want

    # the paper's closed forms of the fringe moment series, cleared of their
    # denominators: M1 = 4^(r+1) sigma_r / (1 - 4 sigma_r)^2 and
    # M2 = 4^(r+1) sigma_r (1 + 4 sigma_r) / (1 - 4 sigma_r)^3
    @pytest.mark.parametrize("order", [0, 1, 9, 40])
    def test_fringe_first_moment_closed_form(self, order):
        one = TruncatedSeries.from_terms(order, {0: 1})
        for r in range(5):
            s = sigma_iterate(r, order)
            d = one - 4 * s
            m1 = h_r_bivariate(r, order).eval_moment("first")
            assert d * d * m1 == 4 ** (r + 1) * s, r

    @pytest.mark.parametrize("order", [0, 1, 9, 40])
    def test_fringe_second_moment_closed_form(self, order):
        one = TruncatedSeries.from_terms(order, {0: 1})
        for r in range(5):
            s = sigma_iterate(r, order)
            d = one - 4 * s
            m2 = h_r_bivariate(r, order).eval_moment("second_raw")
            assert d * d * d * m2 == 4 ** (r + 1) * s * (one + 4 * s), r


class TestDomain:
    @pytest.mark.parametrize(
        "family",
        [
            b_r_series, b_r_equal_series, f1_series, f2_series,
            l_r_series, l_r_equal_series, sigma_iterate, h_r_bivariate,
        ],
    )
    def test_negative_r(self, family):
        with pytest.raises(DomainError, match="r must be nonnegative"):
            family(-1, 5)


class TestBivariate:
    def test_eval_moment(self):
        # [z^1] = 2v + v^2
        h = BivariateSeries(
            [TruncatedSeries([0, 0]), TruncatedSeries([0, 2]), TruncatedSeries([0, 1])]
        )
        assert h.row(1) == {1: 2, 2: 1}
        assert h.eval_moment("first").c == (0, 4)
        assert h.eval_moment("second_raw").c == (0, 6)

    def test_unknown_moment(self):
        with pytest.raises(DomainError):
            h_r_bivariate(1, 3).eval_moment("third")

    @pytest.mark.parametrize("r", range(4))
    def test_rows_are_fringe_size_histograms(self, r):
        # [z^n v^m] H_r counts the length-n paths whose r-th fringe has size
        # m >= 1; a path that cannot be reduced r times (size 0) is not in H
        h = h_r_bivariate(r, 7)
        for n in range(1, 8):
            hist = Counter()
            for steps in itertools.product(STEPS, repeat=n):
                sizes = fringe_sizes("".join(steps))
                if r < len(sizes):
                    hist[sizes[r]] += 1
            assert h.row(n) == dict(hist), (r, n)
        assert h.row(0) == {}

    @pytest.mark.parametrize("order", [0, 1, 9, 24, 40])
    @pytest.mark.parametrize("r", range(5))
    def test_columns_are_powers_of_sigma(self, r, order):
        # [v^m] H_r = 4^(r+m) sigma_r^m, since H_0 = sum (4zv)^m; the
        # recurrence is the reference, so the identity is checked on it
        want = reference_h(r, order)
        assert h_r_bivariate(r, order) == want
        sig = power = sigma_iterate(r, order)
        for m in range(1, order + 1):
            assert want.cols[m] == 4 ** (r + m) * power, (r, order, m)
            power = power * sig
        assert all(0 not in want.row(n) for n in range(order + 1))


class TestHugeR:
    """Every recurrence reaches a fixed point after about log2(order)
    stages, so r = 10^5 costs what r = order.bit_length() + 2 does."""

    R = 10**5

    def _peak(self, fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "family",
        [b_r_series, b_r_equal_series, f1_series, f2_series,
         l_r_series, l_r_equal_series, sigma_iterate],
    )
    def test_univariate(self, family):
        order = 9
        small = family(order.bit_length() + 2, order)
        huge, peak = self._peak(lambda: family(self.R, order))
        assert huge == small
        assert peak < 256 * 1024

    def test_bivariate(self):
        order = 9
        small = h_r_bivariate(order.bit_length() + 2, order)
        huge, peak = self._peak(lambda: h_r_bivariate(self.R, order))
        assert huge == small
        assert all(not h for h in (huge.row(n) for n in range(order + 1)))
        assert peak < 256 * 1024
