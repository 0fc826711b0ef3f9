import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies

from redcalc import exact, series
from redcalc.errors import DomainError


class TestValuation:
    def test_small(self):
        assert [exact.v2(k) for k in range(1, 9)] == [0, 1, 0, 2, 0, 1, 0, 3]

    def test_domain(self):
        with pytest.raises(DomainError):
            exact.v2(0)


class TestRBranchMean:
    def test_zero_branches_deterministic(self):
        for n in range(20):
            assert exact.expected_r_branches(n, 0) == n + 1

    def test_printed_value(self):
        assert exact.expected_r_branches(4, 1) == Fraction(10, 7)

    def test_matches_series_route(self):
        for n in range(13):
            cat = series.catalan(n)
            for r in range(5):
                want = Fraction(series.f1_series(r, max(n, 1))[n], cat)
                assert exact.expected_r_branches(n, r) == want

    def test_vanishes_for_large_r(self):
        assert exact.expected_r_branches(5, 4) == 0


class TestTotalBranchesMean:
    def test_tiny(self):
        assert exact.expected_total_branches(0) == 1
        assert exact.expected_total_branches(1) == 3
        assert exact.expected_total_branches(2) == 4

    def test_matches_series_route(self):
        for n in range(13):
            want = Fraction(
                series.branch_total_series(max(n, 1))[n], series.catalan(n)
            )
            assert exact.expected_total_branches(n) == want


class TestRdeg:
    def test_degree_zero_only_atoms(self):
        assert exact.count_paths_rdeg(1, 0) == 4
        assert exact.count_paths_rdeg(5, 0) == 0

    def test_printed_counts(self):
        assert exact.count_paths_rdeg(4, 1) == 192
        assert exact.count_paths_rdeg(4, 2) == 64
        assert exact.count_paths_rdeg(8, 1) == 7168

    def test_counts_partition(self):
        for n in range(1, 13):
            total = sum(
                exact.count_paths_rdeg(n, r) for r in range(n.bit_length())
            )
            assert total == 4**n

    def test_matches_series_route(self):
        for n in range(1, 11):
            for r in range(4):
                want = series.l_r_equal_series(r, max(n, 1))[n]
                assert exact.count_paths_rdeg(n, r) == want

    def test_prob_normalization(self):
        for n in (3, 7, 10):
            acc = sum(
                Fraction(exact.count_paths_rdeg(n, r), 4**n)
                for r in range(n.bit_length())
            )
            assert acc == 1

    def test_mean_from_distribution(self):
        for n in range(1, 13):
            want = sum(
                Fraction(r * exact.count_paths_rdeg(n, r), 4**n)
                for r in range(n.bit_length())
            )
            assert exact.expected_rdeg(n) == want


class TestFringe:
    def test_zeroth_fringe_deterministic(self):
        for n in range(1, 20):
            assert exact.expected_fringe(n, 0) == n

    def test_printed_value(self):
        assert exact.expected_fringe(10, 1) == Fraction(11, 4)

    def test_matches_series_route(self):
        for n in range(1, 11):
            for r in range(4):
                want = Fraction(
                    series.h_r_bivariate(r, n).eval_moment("first")[n], 4**n
                )
                assert exact.expected_fringe(n, r) == want

    def test_total_tiny(self):
        # n=1: one fringe of size 1; n=2: 2 + 1 for every path
        assert exact.expected_total_fringe(1) == 1
        assert exact.expected_total_fringe(2) == 3

    def test_total_matches_per_r_sum(self):
        for n in range(1, 13):
            want = sum(
                exact.expected_fringe(n, r) for r in range(n.bit_length())
            )
            assert exact.expected_total_fringe(n) == want


# series order = n: the composition is cubic in the order, so a test of
# n up to 200 is kept to a few examples
_n_upto_200 = strategies.integers(min_value=1, max_value=200)
_r_upto_3 = strategies.integers(min_value=0, max_value=3)


@settings(max_examples=15, deadline=None)
@given(_n_upto_200, _r_upto_3)
def test_r_branch_mean_matches_series_random(n, r):
    want = Fraction(series.f1_series(r, n)[n], series.catalan(n))
    assert exact.expected_r_branches(n, r) == want


@settings(max_examples=15, deadline=None)
@given(_n_upto_200, _r_upto_3)
def test_fringe_mean_matches_series_random(n, r):
    want = Fraction(series.h_r_bivariate(r, n).eval_moment("first")[n], 4**n)
    assert exact.expected_fringe(n, r) == want


# The per-term loops the closed forms were first written with, kept verbatim
# as references: the shared binomial-difference kernel (and any faster one
# that replaces it) must reproduce them exactly.

def _comb(n, k):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def reference_r_branches(n, r):
    if r == 0:
        return n + 1
    step = 1 << r
    acc = 0
    lam = 1
    while n + 1 - lam * step >= 0:
        k = lam * step
        acc += lam * (
            _comb(2 * n, n + 1 - k) - 2 * _comb(2 * n, n - k) + _comb(2 * n, n - 1 - k)
        )
        lam += 1
    return Fraction((n + 1) * acc, math.comb(2 * n, n))


def reference_total_branches(n):
    acc = Fraction(0)
    for k in range(1, n + 2):
        weight = (2 - Fraction(1, 1 << exact.v2(k))) * k
        acc += weight * (
            _comb(2 * n, n + 1 - k) - 2 * _comb(2 * n, n - k) + _comb(2 * n, n - 1 - k)
        )
    return Fraction(n + 1, math.comb(2 * n, n)) * acc


def reference_rdeg_equal_coeff(n, r):
    step = 1 << r
    acc = 0
    lam = 1
    while n - lam * step >= 0:
        k = lam * step
        acc += (
            lam
            * (-1) ** (lam - 1)
            * (_comb(2 * n - 1, n - k) - _comb(2 * n - 1, n - k - 1))
        )
        lam += 1
    return 4 ** (r + 1) * acc


def reference_rdeg(n):
    acc = 0
    for k in range(1, n + 1):
        acc += (
            8 * k * ((1 << exact.v2(k)) - 1)
            * (_comb(2 * n - 1, n - k) - _comb(2 * n - 1, n - k - 1))
        )
    return Fraction(acc, 4**n)


def reference_fringe(n, r):
    step = 1 << r
    acc = Fraction(0)
    lam = 1
    while n - lam * step >= 0:
        k = lam * step
        acc += Fraction(2 * lam**3 + lam, 3) * (
            _comb(2 * n - 1, n - k) - _comb(2 * n - 1, n - k - 1)
        )
        lam += 1
    return Fraction(4 ** (r + 1), 4**n) * acc


def reference_total_fringe(n):
    acc = Fraction(0)
    for k in range(1, n + 1):
        weight = 2 * k**3 * (2 - Fraction(1, 1 << exact.v2(k))) + k * (
            (1 << (exact.v2(k) + 1)) - 1
        )
        acc += weight * (_comb(2 * n - 1, n - k) - _comb(2 * n - 1, n - k - 1))
    return Fraction(4, 3 * 4**n) * acc


_REFERENCE_N = range(161)
_REFERENCE_R = range(9)


class TestAgainstReferenceLoops:
    def test_r_branches(self):
        for n in _REFERENCE_N:
            for r in _REFERENCE_R:
                assert exact.expected_r_branches(n, r) == reference_r_branches(n, r)

    def test_total_branches(self):
        for n in _REFERENCE_N:
            assert exact.expected_total_branches(n) == reference_total_branches(n)

    def test_rdeg_counts(self):
        for n in _REFERENCE_N[1:]:
            for r in _REFERENCE_R[1:]:
                want = reference_rdeg_equal_coeff(n, r)
                assert exact.count_paths_rdeg(n, r) == want

    def test_rdeg_mean(self):
        for n in _REFERENCE_N[1:]:
            assert exact.expected_rdeg(n) == reference_rdeg(n)

    def test_fringe(self):
        for n in _REFERENCE_N[1:]:
            for r in _REFERENCE_R:
                assert exact.expected_fringe(n, r) == reference_fringe(n, r)

    def test_total_fringe(self):
        for n in _REFERENCE_N[1:]:
            assert exact.expected_total_fringe(n) == reference_total_fringe(n)


@pytest.mark.parametrize(
    "quantity, zero",
    [
        (exact.expected_r_branches, Fraction(0)),
        (exact.expected_fringe, Fraction(0)),
        (exact.count_paths_rdeg, 0),
    ],
)
def test_huge_r_costs_no_more_than_a_small_one(quantity, zero):
    # no size-5 tree or path has an r-branch, an r-th fringe or reduction
    # degree r for r >= 3; 1 << r alone takes 1.2 MiB at r = 10^7
    assert quantity(5, 3) == zero
    tracemalloc.start()
    try:
        got = quantity(5, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got, type(got)) == (zero, type(zero))
    assert peak < 4096


def _plain_differences(m, j0, d, step):
    """The kernel's terms with d + 1 fresh binomials each."""
    return [
        (k, sum(
            (-1) ** i * math.comb(d, i) * _comb(m, j0 - k - i) for i in range(d + 1)
        ))
        for k in range(step, j0 + 1, step)
    ]


@settings(max_examples=200, deadline=None)
@given(
    strategies.integers(min_value=0, max_value=300),
    strategies.integers(min_value=0, max_value=310),
    strategies.integers(min_value=0, max_value=3),
    strategies.integers(min_value=1, max_value=5),
)
@example(m=0, j0=5, d=2, step=1)  # m = 0: only C(0, 0) is nonzero
@example(m=0, j0=0, d=3, step=1)  # no term at all
@example(m=40, j0=37, d=0, step=3)  # d = 0: the binomials themselves
@example(m=10, j0=13, d=3, step=1)  # j = 12, 11 > m: C(m, j) = 0, not its neighbours
@example(m=10, j0=16, d=3, step=2)  # j = 14 > m + d: every binomial is 0
@example(m=10, j0=15, d=2, step=3)  # j = 12 = m + d: only the last binomial
@example(m=9, j0=9, d=3, step=4)  # j = 5, 1: j - d < 0 at j = 1
@example(m=300, j0=2, d=3, step=1)  # j = 1, 0: [t]_u = 0 from u = t + 1
def test_differences_match_the_plain_sum(m, j0, d, step):
    # step below, equal to and above d, and terms that reach j < 0 or j > m
    got = list(exact._differences(m, j0, d, step))
    assert got == _plain_differences(m, j0, d, step)


@pytest.fixture
def comb_calls(monkeypatch):
    """A list that gets one entry per math.comb call."""
    calls = []
    comb = math.comb

    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counted)
    return calls


@pytest.mark.parametrize(
    "quantity, most",
    # d + 1 binomials per term would take 6004 and 4001 calls
    [(exact.expected_total_branches, 2005), (exact.expected_rdeg, 2002)],
)
def test_step_one_sums_take_one_binomial_per_term(comb_calls, quantity, most):
    quantity(2000)
    assert len(comb_calls) <= most


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize(
    "quantity, terms",
    # the term counts of perfbench's exact.terms counter: k = 2^r, 2 2^r, ...
    # up to n + 1 for trees and n for paths
    [
        (exact.expected_r_branches, lambda n, r: (n + 1) >> r),
        (exact.expected_fringe, lambda n, r: n >> r),
        (exact.count_paths_rdeg, lambda n, r: n >> r),
    ],
    ids=["expected_r_branches", "expected_fringe", "count_paths_rdeg"],
)
def test_per_r_sums_take_one_binomial_per_term(comb_calls, quantity, terms, r):
    # d + 1 binomials per term, or d + 1 - step shared with the last term,
    # would take two or three calls a term
    quantity(2000, r)
    assert len(comb_calls) <= terms(2000, r) + 2


def test_binomials_are_not_kept_as_a_table():
    # the 2001 binomials of C(4000, .) take about 1 MB together
    exact.expected_total_branches(50)
    tracemalloc.start()
    try:
        exact.expected_total_branches(2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


class TestDomains:
    def test_negative_inputs(self):
        with pytest.raises(DomainError):
            exact.expected_r_branches(-1, 0)
        with pytest.raises(DomainError):
            exact.count_paths_rdeg(0, 1)
        with pytest.raises(DomainError):
            exact.expected_fringe(0, 1)
