import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from redcalc import cli, exact, oracle, series
from redcalc.errors import DomainError, ResourceCapError
from redcalc.oracle import (
    Histogram,
    ScanStats,
    SeededGenerator,
    clt_check,
    path_stats,
    sample_cherry_counts,
    sample_fringe_sizes,
    tree_stats,
)
from redcalc.paths import STEPS, extremal_path, fringe_sizes, rdeg
from redcalc.trees import (
    LEAF,
    Node,
    branch_counts,
    format_tree,
    register,
    tree_size,
)
from tree_generators import enumerate_trees, random_tree


def histogram(values):
    """The Histogram of a list of nonnegative integers."""
    counts = [0] * (max(values) + 1)
    for x in values:
        counts[x] += 1
    return Histogram(counts)


def fields(st):
    """The fields of a ScanStats, its per_r as a list."""
    return st.n, st.degree, list(st.per_r), st.total


def reference_tree_stats(n, r_max=None):
    """Per-Node scan over enumerate_trees, the object-level reference."""
    if r_max is None:
        r_max = max((n + 1).bit_length() - 1, 1)
    bcs = [branch_counts(t) for t in enumerate_trees(n)]
    return ScanStats(
        n,
        histogram([len(bc.counts) - 1 for bc in bcs]),
        [
            histogram([bc.counts[r] if r < len(bc.counts) else 0 for bc in bcs])
            for r in range(r_max + 1)
        ],
        histogram([bc.total for bc in bcs]),
    )


def all_paths(n):
    """All 4^n paths of length n in base-4 counter order over STEPS."""
    for steps in itertools.product(STEPS, repeat=n):
        yield "".join(steps)


def reference_path_stats(n, r_max=None):
    """Per-path scan over all_paths, the string-level reference."""
    if r_max is None:
        r_max = max(n.bit_length() - 1, 1)
    sizes = [fringe_sizes(p) for p in all_paths(n)]
    return ScanStats(
        n,
        histogram([len(s) - 1 for s in sizes]),
        [
            histogram([s[r] if r < len(s) else 0 for s in sizes])
            for r in range(r_max + 1)
        ],
        histogram([sum(s) for s in sizes]),
    )


def reference_fringe_sizes(n, r, samples, gen, batch=5000):
    """fringe_sizes of each drawn path as a string; the same random draws
    as sample_fringe_sizes."""
    out = np.empty(samples, dtype=np.int64)
    done = 0
    chunk_no = 0
    while done < samples:
        size = min(batch, samples - done)
        rng = gen.split(f"fringes:{chunk_no}").numpy_rng()
        codes = rng.integers(0, 4, size=(size, n), dtype=np.uint8)
        for i in range(size):
            sizes = fringe_sizes("".join(STEPS[c] for c in codes[i]))
            out[done + i] = sizes[r] if r < len(sizes) else 0
        done += size
        chunk_no += 1
    return out


def _codes(paths, pad=0):
    """Step-code rows of the given paths, padded with the code pad."""
    width = max(map(len, paths))
    codes = np.full((len(paths), width), pad, dtype=np.uint8)
    for i, p in enumerate(paths):
        codes[i, : len(p)] = [STEPS.index(c) for c in p]
    return codes


class TestHistogram:
    def test_moments_exact(self):
        hist = histogram([1, 2, 2, 5])
        assert hist == (0, 1, 2, 0, 0, 1)
        assert hist.mean() == Fraction(5, 2)
        assert hist.variance() == Fraction(9, 4)
        assert (hist.min, hist.max) == (1, 5)
        assert hist.factorial_moment_sum() == 0 + 2 + 2 + 20

    def test_trailing_zeros_trimmed(self):
        assert Histogram([3, 0, 1, 0, 0]) == Histogram([3, 0, 1]) == (3, 0, 1)
        assert Histogram([0, 0]) == ()


class TestEnumeration:
    def test_tree_counts_are_catalan(self):
        for n, cat in enumerate((1, 1, 2, 5, 14, 42)):
            assert sum(1 for _ in enumerate_trees(n)) == cat

    def test_catalan_ten(self):
        assert sum(1 for _ in enumerate_trees(10)) == 16796

    def test_trees_distinct(self):
        seen = {format_tree(t) for t in enumerate_trees(6)}
        assert len(seen) == 132

    def test_path_counts(self):
        for n in (1, 2, 5):
            assert path_stats(n).degree.count == 4**n

    def test_caps(self):
        with pytest.raises(ResourceCapError):
            list(enumerate_trees(oracle.TREE_CAP + 1))
        with pytest.raises(ResourceCapError):
            tree_stats(oracle.TREE_CAP + 1)
        with pytest.raises(ResourceCapError):
            path_stats(oracle.PATH_CAP + 1)

    def test_domains(self):
        with pytest.raises(DomainError):
            list(enumerate_trees(-1))
        with pytest.raises(DomainError):
            tree_stats(-1)
        with pytest.raises(DomainError):
            path_stats(0)


class TestTreeStats:
    def test_known_sums(self):
        assert _sum(tree_stats(1).per_r[1]) == 1
        assert _sum(tree_stats(4).per_r[1]) == 20
        assert _sum(tree_stats(2).total) == 8

    def test_means_match_closed_forms(self):
        for n in range(9):
            st = tree_stats(n)
            for r in range(len(st.per_r)):
                assert st.per_r[r].mean() == exact.expected_r_branches(n, r)
            assert st.total.mean() == exact.expected_total_branches(n)

    def test_register_histogram(self):
        st = tree_stats(4)
        assert st.degree == (0, 8, 6)
        assert st.degree.count == 14

    def test_bounds_sharp(self):
        for n in range(1, 9):
            st = tree_stats(n)
            assert st.per_r[1].min == 1
            for r in range(1, len(st.per_r)):
                assert st.per_r[r].max == (n + 1) // 2**r
            lo = n + 1 + (1 if n > 0 else 0)
            hi = 2 * n + 2 - bin(n + 1).count("1")
            assert st.total.min == lo
            assert st.total.max == hi


class TestTreeScan:
    def test_table_rows_match_enumeration(self):
        layout = oracle._tree_layout(10)
        fields = layout[0]
        width = len(fields) - 2
        rows = oracle._tree_tables(10, layout)
        for n in range(10):
            want = []
            for t in enumerate_trees(n):
                bc = branch_counts(t)
                want.append((1 << register(t), _padded(bc.counts, width), bc.total))
            columns = [((rows[n] >> shift) & mask).tolist() for shift, mask in fields]
            got = [(row[0], tuple(row[1:-1]), row[-1]) for row in zip(*columns)]
            assert got == want

    def test_small_blocks_keep_order(self):
        layout = oracle._tree_layout(7)
        rows = oracle._tree_tables(7, layout)
        whole = list(oracle._tree_blocks(7, rows, layout))
        small = list(oracle._tree_blocks(7, rows, layout, max_rows=5))
        assert max(len(block) for block in small) <= 5
        assert (np.concatenate(small) == np.concatenate(whole)).all()

    def test_rows_wider_than_int32_refused(self):
        oracle._tree_layout(30)  # the largest size whose rows fit
        with pytest.raises(ResourceCapError):
            tree_stats(31, cap=31)

    @pytest.mark.parametrize("r_max", [None, 1, 2, 3])
    def test_matches_reference_loop(self, r_max):
        for n in range(12):
            assert fields(tree_stats(n, r_max=r_max)) == fields(
                reference_tree_stats(n, r_max)
            )

    def test_huge_r_max_stores_only_attainable_r(self):
        r_max = 10**5
        st = tree_stats(5, r_max=r_max)
        assert len(st.per_r) == r_max + 1 and len(st.per_r.stored) == 3
        assert list(st.per_r.stored) == list(tree_stats(5).per_r)
        for r in (3, r_max, -1):
            assert st.per_r[r] == Histogram([42]) == (42,)
        with pytest.raises(IndexError):
            st.per_r[r_max + 1]

    def test_size_zero(self):
        st = tree_stats(0)
        assert fields(st) == fields(reference_tree_stats(0))
        assert st.degree == (1,)
        assert (st.per_r[0].min, st.per_r[0].max, st.per_r[1].max) == (1, 1, 0)

    def test_cap_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                tree_stats(40)
            with pytest.raises(ResourceCapError):
                tree_stats(12, cap=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_cap_size_fits_memory_budget(self):
        tracemalloc.start()
        try:
            st = tree_stats(15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.total.count == 9694845
        assert peak < 64 * 2**20

    def test_scan_peak_at_size_eleven(self):
        tree_stats(11)
        tracemalloc.start()
        try:
            st = tree_stats(11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.total.count == 58786
        assert peak < 520 * 1024


def _sum(hist):
    """The sum of the statistic over the population."""
    return sum(x * c for x, c in enumerate(hist))


def _padded(counts, width):
    return tuple(counts) + (0,) * (width - len(counts))


_sizes = strategies.integers(min_value=0, max_value=200)
_seeds = strategies.integers(min_value=0, max_value=2**64 - 1)


def _random_tree(n, seed):
    return LEAF if n == 0 else random_tree(n, random.Random(seed))


@settings(max_examples=60, deadline=None)
@given(_sizes, _seeds, _sizes, _seeds)
def test_register_rule(n_a, seed_a, n_b, seed_b):
    a, b = _random_tree(n_a, seed_a), _random_tree(n_b, seed_b)
    ra, rb = register(a), register(b)
    width = max(ra, rb) + 2
    want = [
        x + y
        for x, y in zip(
            _padded(branch_counts(a).counts, width),
            _padded(branch_counts(b).counts, width),
        )
    ]
    if ra == rb:
        want[ra + 1] += 1
    t = Node(a, b)
    assert register(t) == (ra + 1 if ra == rb else max(ra, rb))
    assert _padded(branch_counts(t).counts, width) == tuple(want)


class TestPathStats:
    def test_rdeg_histograms(self):
        assert path_stats(2).degree == (0, 16)
        assert path_stats(4).degree == (0, 192, 64)

    def test_known_fringe_sum(self):
        assert _sum(path_stats(4).per_r[1]) == 320

    def test_means_match_closed_forms(self):
        for n in range(1, 9):
            st = path_stats(n)
            assert st.degree.mean() == exact.expected_rdeg(n)
            for r in range(len(st.per_r)):
                assert st.per_r[r].mean() == exact.expected_fringe(n, r)
            assert st.total.mean() == exact.expected_total_fringe(n)

    def test_bounds_sharp(self):
        for n in range(2, 9):
            st = path_stats(n)
            assert st.degree.min == 1
            assert st.degree.max == n.bit_length() - 1
            assert st.per_r[1].min == 1
            for r in range(1, len(st.per_r)):
                assert st.per_r[r].max == n // 2**r
            assert st.total.min == n + 1
            assert st.total.max == 2 * n - bin(n).count("1")


class TestPathScan:
    def test_codes_follow_enumeration_order(self):
        for n in range(1, 6):
            codes = oracle._path_codes(n, 0, 4**n)
            assert (codes == _codes(list(all_paths(n)))).all()
        block = oracle._path_codes(5, 300, 17)
        assert (block == oracle._path_codes(5, 0, 4**5)[300:317]).all()

    def test_kernel_matches_fringe_sizes(self):
        for n in range(1, 10):
            table = oracle._fringe_table(
                oracle._path_codes(n, 0, 4**n),
                np.full(4**n, n, dtype=np.int16),
                n.bit_length() - 1,
            )
            for p, row in zip(all_paths(n), table.tolist()):
                sizes = fringe_sizes(p)
                assert row == sizes + [0] * (len(row) - len(sizes)), p

    def test_extremal_codes_match_extremal_path(self):
        ns = []
        for first, codes, lens in oracle._extremal_levels(1024):
            assert len(codes) == len(lens) == min(first, 1025 - first)
            for i, (row, length) in enumerate(zip(codes.tolist(), lens.tolist())):
                ns.append(first + i)
                assert row[:length] == _codes([extremal_path(first + i)]).tolist()[0]
        assert ns == list(range(1, 1025))

    def test_extremal_degrees_match_rdeg(self):
        for first, codes, lens in oracle._extremal_levels(300):
            depth = first.bit_length() - 1
            table = oracle._fringe_table(codes, lens, depth)
            for i, degree in enumerate(np.count_nonzero(table, axis=1) - 1):
                assert degree == rdeg(extremal_path(first + i))

    @pytest.mark.parametrize("r_max", [None, 0, 1, 2, 3, 5])
    def test_matches_reference_loop(self, r_max):
        for n in range(1, 9):
            st = path_stats(n, r_max=r_max)
            assert fields(st) == fields(reference_path_stats(n, r_max))
            dist = cli.QUANTITIES["rdeg-dist"]["read"](st, None)
            assert list(dist) == sorted(dist)

    def test_huge_r_max_stores_only_attainable_r(self):
        r_max = 10**5
        st = path_stats(5, r_max=r_max)
        assert len(st.per_r) == r_max + 1 and len(st.per_r.stored) == 3
        assert list(st.per_r.stored) == list(path_stats(5).per_r)
        for r in (3, r_max, -1):
            assert st.per_r[r] == Histogram([4**5]) == (4**5,)
        with pytest.raises(IndexError):
            st.per_r[r_max + 1]

    def test_cap_checked_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                path_stats(40)
            with pytest.raises(DomainError):
                path_stats(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_memory(self):
        tracemalloc.start()
        try:
            st = path_stats(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.degree.count == 4**10
        assert peak < 4 * 2**20


@settings(max_examples=60, deadline=None)
@given(
    strategies.lists(
        strategies.text(alphabet=STEPS, min_size=1, max_size=300),
        min_size=1,
        max_size=6,
    ),
    strategies.integers(min_value=0, max_value=3),
)
def test_kernel_matches_fringe_sizes_property(paths, pad):
    lens = np.array([len(p) for p in paths], dtype=np.int16)
    depth = int(lens.max()).bit_length() - 1
    table = oracle._fringe_table(_codes(paths, pad), lens, depth)
    for p, row in zip(paths, table.tolist()):
        sizes = fringe_sizes(p)
        assert row == sizes + [0] * (len(row) - len(sizes))


class TestDistributions:
    """The oracle's histograms against laws derived independently of it."""

    def test_cherry_law(self):
        # size-n trees with k cherries: C(n-1, 2k-2) Cat(k-1) 2^(n-2k+1),
        # by Touchard's identity (McKenzie & Steel, Math. Biosci. 164 (2000))
        def trees_with(n, k):
            cat = math.comb(2 * k - 2, k - 1) // k
            return math.comb(n - 1, 2 * k - 2) * cat * 2 ** (n - 2 * k + 1)

        for n in range(2, 13):
            law = [0] + [trees_with(n, k) for k in range(1, (n + 1) // 2 + 1)]
            assert tree_stats(n).per_r[1] == Histogram(law), n

    def test_fringe_sizes_are_rows_of_h(self):
        # [z^n v^m] H_r counts the length-n paths whose r-th fringe has
        # size m >= 1
        for n in range(1, 9):
            st = path_stats(n, r_max=3)
            for r in range(4):
                got = {m: c for m, c in enumerate(st.per_r[r]) if m and c}
                row = series.h_r_bivariate(r, n).row(n)
                assert got == {m: c for m, c in row.items() if m}, (n, r)


class TestGenerator:
    def test_split_is_stable_and_distinct(self):
        gen = SeededGenerator(42)
        assert gen.split("a").seed == SeededGenerator(42).split("a").seed
        assert gen.split("a").seed != gen.split("b").seed
        assert gen.split("a").seed != SeededGenerator(43).split("a").seed


class TestSamplers:
    def test_smallest_tree(self):
        assert format_tree(random_tree(1, random.Random(0))) == "(. .)"

    def test_sizes(self):
        for n in (1, 5, 40):
            assert tree_size(random_tree(n, random.Random(n))) == n

    def test_domains(self):
        gen = SeededGenerator(0)
        with pytest.raises(DomainError):
            sample_cherry_counts(0, 5, gen)
        with pytest.raises(DomainError):
            sample_fringe_sizes(0, 1, 5, gen)

    def test_samplers_deterministic(self):
        gen = SeededGenerator(5)
        a = sample_cherry_counts(50, 200, gen)
        b = sample_cherry_counts(50, 200, SeededGenerator(5))
        assert (a == b).all()
        c = sample_fringe_sizes(30, 1, 100, gen)
        d = sample_fringe_sizes(30, 1, 100, SeededGenerator(5))
        assert (c == d).all()

    @pytest.mark.parametrize("n", [1, 2, 50, 327])
    def test_samplers_match_reference(self, n, monkeypatch):
        monkeypatch.setattr(oracle, "_SAMPLE_BATCH", 25)
        for seed in (0, 1, 2024):
            gen = SeededGenerator(seed)
            for r in (0, 1, 2, n.bit_length() - 1, n.bit_length() + 1):
                got = sample_fringe_sizes(n, r, 60, gen)
                want = reference_fringe_sizes(n, r, 60, gen, batch=25)
                assert (got == want).all()

    def test_cherry_sampler_memory(self):
        tracemalloc.start()
        try:
            vals = sample_cherry_counts(327, 1835, SeededGenerator(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) == 1835
        assert peak < 4 * 2**20

    def test_cherry_sampler_working_memory(self):
        # the returned int64 counts alone take 0.76 MiB; the chain keeps
        # a few chunk-sized vectors on top of them, however large n is
        tracemalloc.start()
        try:
            vals = sample_cherry_counts(1000, 100000, SeededGenerator(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vals) == 100000
        assert peak - vals.nbytes < 0.25 * 2**20

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cherry_chain_chi_square(self, n):
        stat, df = _cherry_chi_square(sample_cherry_counts, n, 50000)
        assert stat <= _chi_square_bound(df)

    def test_mutated_cherry_chain_fails_chi_square(self):
        def mutated(n, samples, gen):
            rng = gen.split("cherries:0").numpy_rng()
            cherries = np.zeros(samples, dtype=np.int64)
            for k in range(n):
                cherries += rng.integers(0, 2 * k + 1, size=samples) < k + 1 - cherries
            return cherries

        for n in range(2, 11):
            stat, df = _cherry_chi_square(mutated, n, 50000)
            assert stat > _chi_square_bound(df)

    def test_cherry_counts_match_exhaustive_distribution(self):
        # n=4: X_{4;1} takes value 1 on 8 trees and 2 on 6 of the 14
        vals = sample_cherry_counts(4, 20000, SeededGenerator(11))
        assert set(vals.tolist()) == {1, 2}
        frac_two = (vals == 2).mean()
        assert abs(frac_two - 6 / 14) < 0.02

    def test_cherry_mean_matches_expansion(self):
        n, samples = 500, 20000
        vals = sample_cherry_counts(n, samples, SeededGenerator(3))
        mean = float(exact.expected_r_branches(n, 1))
        var = float(oracle.asym.asy_r_branch_var(n, 1).value)
        se = math.sqrt(var / samples)
        assert abs(vals.mean() - mean) < 4 * se

    def test_fringe_sizes_match_exhaustive_distribution(self):
        vals = sample_fringe_sizes(4, 1, 20000, SeededGenerator(13))
        st = path_stats(4)
        want = float(st.per_r[1].mean())
        got = vals.mean()
        se = math.sqrt(float(st.per_r[1].variance()) / 20000)
        assert abs(got - want) < 4 * se


class TestDistributionChecks:
    def test_ks_perfect_fit_is_small(self):
        # the normal quantiles themselves should have tiny KS distance
        import numpy as np

        g = np.linspace(-3, 3, 2001)
        ks = oracle.ks_vs_normal(g, 0.25, 1.0)
        # g is dense and uniform in value, not in probability, so just
        # sanity-check the statistic lies in (0, 1)
        assert 0 < ks < 1

    def test_clt_trees(self):
        ks = clt_check(300, 1, 4000, SeededGenerator(1), kind="tree")
        assert ks < 0.05

    def test_clt_paths(self):
        ks = clt_check(300, 2, 4000, SeededGenerator(2), kind="path")
        assert ks < 0.05

    def test_clt_domains(self):
        gen = SeededGenerator(0)
        with pytest.raises(DomainError):
            clt_check(100, 0, 100, gen, kind="tree")
        with pytest.raises(DomainError):
            clt_check(100, 0, 100, gen, kind="path")
        with pytest.raises(DomainError):
            clt_check(100, 1, 0, gen)
        with pytest.raises(DomainError):
            clt_check(100, 1, 100, gen, kind="forest")

    def test_sampler_uniformity_chi_square(self):
        stat, df = _uniformity_chi_square(5, 50000, 17)
        assert df == 41
        assert stat < _chi_square_bound(df)


def _uniformity_chi_square(n, samples, seed):
    """Chi-square statistic of random_tree against the uniform distribution
    over all trees of size n, plus the degrees of freedom."""
    rng = random.Random(seed)
    counts = dict.fromkeys((format_tree(t) for t in enumerate_trees(n)), 0)
    for _ in range(samples):
        counts[format_tree(random_tree(n, rng))] += 1
    mean = samples / len(counts)
    stat = sum((c - mean) ** 2 / mean for c in counts.values())
    return stat, len(counts) - 1


def _chi_square_bound(df):
    """Wilson-Hilferty upper bound of chi-square(df) at significance 1e-6.

    With df = 0 there is one class, so the statistic is 0 unless a sample
    falls outside it.
    """
    if df == 0:
        return 0.0
    z = 4.753
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def _cherry_chi_square(sampler, n, samples):
    """Chi-square statistic of sampler's cherry counts at size n against
    the exhaustive histogram, plus the degrees of freedom; a count that no
    tree has gives an infinite statistic."""
    counts = {}
    for t in enumerate_trees(n):
        c = branch_counts(t).counts[1]
        counts[c] = counts.get(c, 0) + 1
    values = sampler(n, samples, SeededGenerator(100 + n))
    got = np.bincount(values, minlength=max(counts) + 1)
    if any(got[c] for c in range(len(got)) if c not in counts):
        return math.inf, len(counts) - 1
    trees = sum(counts.values())
    stat = 0.0
    for c, weight in counts.items():
        want = samples * weight / trees
        stat += (got[c] - want) ** 2 / want
    return stat, len(counts) - 1
