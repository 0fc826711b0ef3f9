"""Ground-truth backend: exhaustive enumeration, uniform samplers, CLT checks.

Enumeration keeps every statistic as an exact Histogram (entry x counts
the objects whose statistic is x), so agreement with the series and
closed-form backends can be asserted as equality, and the moments and
ranges are read off it.  Both scans return one ScanStats record: the
histogram of the degree (the register of a tree, the reduction degree of
a path), of the statistic for each r (the r-branch count, the r-th fringe
size) and of its total over r.

The tree scan is a numpy pass with one packed int32 row per tree
(register code, branch count per r, total branch count), built bottom-up
by the register rule: the row of Node(x, y) is row x + row y plus one
entry of a small table looked up by the register codes of x and y, so
joining two sizes costs a handful of numpy calls whatever the width of a
row.  The path scan is a numpy pass with one row of step codes per path,
reduced block by block by one kernel that the fringe sampler and the
extremal-path check share.  Both scans run on the calling thread.  The
cherry sampler runs the Markov chain that the cherry count follows under
Remy's leaf insertion, with no tree built.  Samplers draw fixed-size
chunks from streams split off one seed, so their output depends on the
seed alone.

This is the only module that imports numpy, and the command line imports
it only for requests that enumerate or sample.  The size caps TREE_CAP and
PATH_CAP live in ``errors`` and are re-exported here.
"""

import hashlib
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import asym
from .errors import PATH_CAP, TREE_CAP, DomainError, ResourceCapError
from .paths import _COLLAPSE, _EXPAND, STEPS

__all__ = [
    "TREE_CAP",
    "PATH_CAP",
    "Histogram",
    "ScanStats",
    "SeededGenerator",
    "tree_stats",
    "path_stats",
    "sample_cherry_counts",
    "sample_fringe_sizes",
    "extremal_failure",
    "clt_check",
]


class Histogram(tuple):
    """Distribution of one integer statistic over a population: entry x is
    the number of objects whose statistic is x.  Trailing zeros are
    trimmed, so equal distributions compare equal however many bins their
    scan gave them.  count (which shadows tuple.count) is the population
    size; the moments and the range are read off the entries."""

    def __new__(cls, counts):
        counts = list(counts)
        while counts and not counts[-1]:
            counts.pop()
        return super().__new__(cls, counts)

    def _sum(self, f):
        return sum(f(x) * c for x, c in enumerate(self))

    @property
    def count(self):
        return sum(self)

    @property
    def min(self):
        return next(x for x, c in enumerate(self) if c)

    @property
    def max(self):
        return len(self) - 1

    def mean(self):
        return Fraction(self._sum(lambda x: x), self.count)

    def variance(self):
        return Fraction(self._sum(lambda x: x * x), self.count) - self.mean() ** 2

    def factorial_moment_sum(self):
        """Sum of X(X-1) over the population."""
        return self._sum(lambda x: x * (x - 1))


class _PerR(Sequence):
    """Histograms for r = 0..r_max, stored only up to the largest attainable
    r: every larger r has the statistic 0 on all count objects, the one-bin
    histogram built on access, so a huge r_max costs nothing."""

    def __init__(self, stored, r_max, count):
        self.stored, self.r_max, self.count = stored, r_max, count

    def __len__(self):
        return self.r_max + 1

    def __getitem__(self, r):
        r = range(len(self))[r]  # negative r counts from the end, as in a list
        return self.stored[r] if r < len(self.stored) else Histogram((self.count,))


@dataclass
class ScanStats:
    """Exact statistics of all objects of size n, from one exhaustive scan."""

    n: int
    degree: Histogram  # the register (trees) or the reduction degree (paths)
    per_r: Sequence  # of the r-branch count or the r-th fringe size, r = 0..r_max
    total: Histogram  # of the total branch count or the total fringe size


def _scan_stats(n, hists, r_max):
    """The ScanStats of one scan's bin counts: the degree's, the statistic's
    for r = 0, 1, ..., and the total's."""
    degree, *per_r, total = map(Histogram, hists)
    return ScanStats(n, degree, _PerR(per_r[: r_max + 1], r_max, total.count), total)


class SeededGenerator:
    """Splittable deterministic randomness; children derive from the parent
    seed by hashing, so the stream layout is independent of thread count."""

    def __init__(self, seed):
        self.seed = int(seed)

    def split(self, label):
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SeededGenerator(int.from_bytes(digest[:8], "big"))

    def numpy_rng(self):
        return np.random.default_rng(self.seed)


# upper bound on the rows of one block of trees (and of its temporaries)
_BLOCK_ROWS = 1 << 20
# most rows per bincount in tree_stats and path_stats, whose temporaries take
# 8 bytes per field (or column) and row
_FOLD_ROWS = 1 << 12


def _tree_layout(n):
    """Bit fields of a packed tree row, and the join table, for trees of
    size at most n.

    A row is one int32.  Its fields, lowest bits first, are the register
    code 2^register, the r-branch count for r = 0..w-1 and the total
    branch count, where w is the bit length of n + 1, so registers stay
    below w.  Each field is as wide as its largest value needs: the code
    field holds any sum 2^a + 2^b of two codes below 2^w; a tree of size
    <= n has at most (n + 1) >> r r-branches, whose subtrees are disjoint
    and have 2^r leaves or more, and at most 2n + 1 branches in all.
    fields lists the (shift, mask) of each field.

    join[2^a + 2^b], indexed by the code field of row x + row y, is what
    the row of Node(x, y) adds to that sum when x has register a and y
    register b.  By the register rule Node(x, y) has register max(a, b)
    if a != b, so for a > b the entry is -2^b; if a == b it has register
    a + 1, whose code is the sum 2^a + 2^a itself, and it starts one more
    (a + 1)-branch, so the entry adds one to that count and to the total.
    """
    w = (n + 1).bit_length()
    bounds = [(1 << w) - 1] + [(n + 1) >> r for r in range(w)] + [2 * n + 1]
    fields, shift = [], 0
    for bound in bounds:
        fields.append((shift, (1 << bound.bit_length()) - 1))
        shift += bound.bit_length()
    if shift > 31:
        raise ResourceCapError(f"packed tree rows need {shift} bits at n = {n}")
    join = np.zeros(1 << w, dtype=np.int32)
    for a in range(w):
        for b in range(a):
            join[(1 << a) + (1 << b)] = -(1 << b)
        if a + 1 < w:  # register w needs more than n + 1 leaves
            join[2 << a] = (1 << fields[a + 2][0]) + (1 << fields[-1][0])
    return fields, join


def _tree_blocks(k, rows, layout, max_rows=_BLOCK_ROWS):
    """Packed rows of the size-k trees, from rows[i] for every i < k.

    Yields blocks of at most max_rows rows whose concatenation is ordered
    by left-subtree size, then left index, then right index.  Node(x, y)'s
    row is s + join[code field of s] with s = row x + row y, one table
    lookup however many fields a row has.
    """
    fields, join = layout
    mask = fields[0][1]  # the register code is the lowest field
    for i in range(k):
        left, right = rows[i], rows[k - 1 - i]
        rstep = min(len(right), max_rows)
        lstep = max(1, max_rows // len(right))
        for a in range(0, len(left), lstep):
            lrow = left[a : a + lstep, None]
            for b in range(0, len(right), rstep):
                block = lrow + right[None, b : b + rstep]
                block += join.take(np.bitwise_and(block, mask, dtype=np.intp))
                yield block.ravel()


def _tree_tables(n, layout):
    """Packed rows of every tree of each size 0..n-1, ordered by
    left-subtree size, then left index, then right index: rows[k] holds
    one int32 per size-k tree.  Size 0, the leaf, is always included:
    register 0 (code 1), one 0-branch, one branch in all."""
    fields = layout[0]
    leaf = 1 + (1 << fields[1][0]) + (1 << fields[-1][0])
    rows = [np.array([leaf], dtype=np.int32)]
    for k in range(1, n):
        size = sum(len(rows[i]) * len(rows[k - 1 - i]) for i in range(k))
        table = np.empty(size, dtype=np.int32)
        at = 0
        for block in _tree_blocks(k, rows, layout):
            table[at : at + len(block)] = block
            at += len(block)
        rows.append(table)
    return rows


def tree_stats(n, r_max=None, cap=TREE_CAP):
    """Exact branch statistics over all trees of size n, one packed row of
    an exhaustive numpy scan per tree."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n = {cap}")
    if r_max is None:
        r_max = max((n + 1).bit_length() - 1, 1)
    layout = _tree_layout(n)
    fields = layout[0]
    width = len(fields) - 2
    # one histogram of all fields: field f counts its values in the bins
    # bounds[f] to bounds[f + 1], so one bincount per chunk covers them all
    bounds = list(itertools.accumulate((mask + 1 for _, mask in fields), initial=0))
    shifts, masks, offsets = (
        np.array(column, dtype=np.intp)[:, None]
        for column in (*zip(*fields), bounds[:-1])
    )
    hist = np.zeros(bounds[-1], dtype=np.int64)
    rows = _tree_tables(n, layout)
    for block in _tree_blocks(n, rows, layout) if n else rows:
        for at in range(0, len(block), _FOLD_ROWS):
            values = block[at : at + _FOLD_ROWS] >> shifts  # one row per field
            values &= masks
            values += offsets
            hist += np.bincount(values.ravel(), minlength=bounds[-1])
            del values  # before the next chunk's values exist
    hists = [hist[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]
    # the register code field counts register r in its bin 2^r
    hists[0] = [hists[0][1 << r] for r in range(width)]
    return _scan_stats(n, hists, r_max)


# upper bound on the cells (rows x steps) of one block of path codes
_BLOCK_CELLS = 1 << 16


def _collapse_codes():
    """paths._COLLAPSE over step codes, indexed by 4 * first H + first V."""
    table = np.zeros(16, dtype=np.uint8)
    for (h, v), step in _COLLAPSE.items():
        table[4 * STEPS.index(h) + STEPS.index(v)] = STEPS.index(step)
    return table


_COLLAPSE_CODES = _collapse_codes()


# paths._EXPAND over step codes: the h and the v code of each step
_EXPAND_H, _EXPAND_V = (
    np.array([STEPS.index(_EXPAND[s][i]) for s in STEPS], dtype=np.uint8) for i in (0, 1)
)


def _size_dtype(n):
    """Integer type of path lengths and fringe sizes up to n."""
    return np.int16 if n < 2**15 else np.int32


def _reduce_rows(codes, lens):
    """Apply reduce_path to every row of a block of paths, in place.

    codes holds one path per row as uint8 step codes, the indices into
    STEPS, so a step is vertical exactly when its code is even and adding
    1 mod 4 rotates it clockwise.  Row i is its first lens[i] codes; the
    rest is padding.  Returns the reduced lengths, which are 0 for rows of
    length 0 or 1.  After the rotations a row is a sequence of H+V+
    segments, and the k-th segment opens with the k-th horizontal step
    that starts the row or follows a vertical one; its first vertical step
    is the k-th vertical step that follows a horizontal one.
    """
    col = np.arange(codes.shape[1], dtype=lens.dtype)
    codes += (codes[:, :1] & 1) ^ 1  # rows that start vertically
    codes &= 3
    last = col == (lens - 1)[:, None]
    tail = codes[last]
    codes[last] = (tail + (tail & 1)) & 3  # a horizontal last step
    horiz = (codes & 1).view(bool)
    valid = col < lens[:, None]
    hstart = horiz & valid
    vstart = valid & ~horiz
    turn = horiz[:, 1:] != horiz[:, :-1]
    hstart[:, 1:] &= turn
    vstart[:, 1:] &= turn
    vstart[:, 0] = False
    steps = _COLLAPSE_CODES[(codes[hstart] << 2) | codes[vstart]]
    lens = hstart.sum(axis=1, dtype=lens.dtype)
    codes[col < lens[:, None]] = steps
    return lens


def _fringe_table(codes, lens, depth):
    """Sizes of fringes 0..depth of each row of codes, one column each.

    A fringe beyond the row's reduction degree has size 0.  The rows are
    reduced in place.  depth must not exceed log2 of the widest row.
    """
    table = np.empty((len(codes), depth + 1), dtype=lens.dtype)
    table[:, 0] = lens
    for r in range(1, depth + 1):
        lens = _reduce_rows(codes, lens)
        codes = codes[:, : codes.shape[1] // 2]  # a reduction halves at least
        table[:, r] = lens
    return table


def _path_codes(n, first, count):
    """Step codes of the length-n paths first .. first + count - 1 in
    counter order: path i has the base-4 digits of i over STEPS, first
    step most significant."""
    index = np.arange(first, first + count)
    shifts = np.arange(2 * n - 2, -1, -2)
    return ((index[:, None] >> shifts) & 3).astype(np.uint8)


def _extremal_levels(n_max):
    """Step codes of extremal_path(n) for n = 1..n_max, one bit length at
    a time.

    Yields (first, codes, lens): row i of codes is the path for
    n = first + i, built by extremal_path's double-and-add rule, and
    lens[i] is the length the rule gives it.  Rows are padded to the
    widest length of the level.  Each level is built from the one before
    it before that one is yielded, so the caller may reduce the yielded
    rows in place.
    """
    first = 1
    codes = np.full((1, 1), STEPS.index("R"), dtype=np.uint8)
    lens = np.ones(1, dtype=np.int64)
    while first <= n_max:
        count = min(first, n_max + 1 - first)
        codes, lens = codes[:count], lens[:count]
        # the children 2n and 2n + 1 of the rows n <= n_max / 2
        half = max(0, min(count, n_max // 2 + 1 - first))
        parent, plen = codes[:half], lens[:half]
        width = 2 * codes.shape[1] + 1
        pair = np.zeros((half, 2, width), dtype=np.uint8)
        nxt = pair.reshape(2 * half, width)
        # paths._EXPAND: step c becomes h v in both children
        pair[:, :, 0:-1:2] = _EXPAND_H[parent][:, None]
        pair[:, :, 1::2] = _EXPAND_V[parent][:, None]
        odd = 2 * np.arange(half) + 1
        nxt[odd, 2 * plen] = nxt[odd, 2 * plen - 1]  # bit 1: the last
        nxt[odd, 2 * plen - 1] = nxt[odd, 2 * plen - 2]  # h v becomes h h v
        nlens = np.repeat(2 * plen, 2)
        nlens[1::2] += 1
        yield first, codes, lens
        first, codes, lens = 2 * first, nxt, nlens


def extremal_failure(n_max):
    """First n <= n_max whose extremal_path(n) does not have length n and
    reduction degree log2 n, or None if every one does.

    The paths of one bit length are reduced in row blocks; a length-n path
    has reduction degree at most log2 n = depth, so the table of fringes
    0..depth shows whether it reaches that degree.
    """
    for first, codes, lens in _extremal_levels(n_max):
        depth = first.bit_length() - 1
        rows = max(1, _BLOCK_CELLS // codes.shape[1])
        for a in range(0, len(codes), rows):
            block, block_lens = codes[a : a + rows], lens[a : a + rows]
            n = first + a + np.arange(len(block))
            table = _fringe_table(block, block_lens, depth)
            degree = np.count_nonzero(table, axis=1) - 1
            bad = (block_lens != n) | (degree != depth)
            if bad.any():
                return int(n[bad][0])
    return None


def path_stats(n, r_max=None, cap=PATH_CAP):
    """Exact reduction-degree and fringe statistics over all length-n paths.

    Every path is one row of an exhaustive numpy scan in the counter order
    of _path_codes, reduced block by block.
    """
    if n < 1:
        raise DomainError("paths are nonempty")
    if n > cap:
        raise ResourceCapError(f"path enumeration capped at n = {cap}")
    if r_max is None:
        r_max = max(n.bit_length() - 1, 1)
    depth = n.bit_length() - 1  # the largest reduction degree, log2 n
    # one histogram of all columns, the reduction degree, fringes 0..depth
    # (the r-th at most n >> r) and the total (below 2n): column c counts
    # its values in the bins bounds[c] to bounds[c + 1], so one bincount
    # per chunk covers them all
    sizes = [depth + 1] + [(n >> r) + 1 for r in range(depth + 1)] + [2 * n]
    bounds = list(itertools.accumulate(sizes, initial=0))
    offsets = np.array(bounds[:-1], dtype=np.intp)
    hist = np.zeros(bounds[-1], dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // n)
    # the fold's temporaries, 8 bytes per row for each column and for two
    # more, stay below the 8 bytes per cell that _path_codes takes for a block
    fold_rows = max(1, min(_FOLD_ROWS, rows * n // (len(sizes) + 2)))
    for first in range(0, 4**n, rows):
        codes = _path_codes(n, first, min(rows, 4**n - first))
        lens = np.full(len(codes), n, dtype=_size_dtype(n))
        table = _fringe_table(codes, lens, depth)
        for at in range(0, len(table), fold_rows):
            part = table[at : at + fold_rows]
            values = np.empty((len(part), len(sizes)), dtype=np.intp)
            values[:, 0] = np.count_nonzero(part, axis=1) - 1
            values[:, 1:-1] = part
            values[:, -1] = part.sum(axis=1)
            values += offsets
            hist += np.bincount(values.ravel(), minlength=bounds[-1])
            del values  # before the next chunk's values exist
    hists = [hist[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]
    return _scan_stats(n, hists, r_max)


# ---------------------------------------------------------------------------
# uniform samplers

# samples per split of the generator; every sample stream depends on it
_SAMPLE_BATCH = 5000


def _batches(samples, gen, label):
    """(start, size, rng) for each batch of _SAMPLE_BATCH samples, the k-th
    drawing from its own split gen.split(f"{label}:{k}")."""
    for k, start in enumerate(range(0, samples, _SAMPLE_BATCH)):
        size = min(_SAMPLE_BATCH, samples - start)
        yield start, size, gen.split(f"{label}:{k}").numpy_rng()


def sample_cherry_counts(n, samples, gen):
    """Cherry counts (= 1-branch counts) of uniform size-n trees.

    Runs the cherry count of Remy's construction as its own Markov chain
    (Remy, RAIRO Inform. Theor. 19 (1985); McKenzie & Steel, Math. Biosci.
    164 (2000)).  Before step k the tree has k internal nodes, k + 1
    leaves and C cherries, so k + 1 - 2C leaves are in no cherry.  The new
    node lands on one of the 2k + 1 nodes: on such a leaf it forms a new
    cherry; on a cherry leaf it moves that cherry one level down; on an
    internal node it changes no cherry.  So C grows by one with
    probability (k + 1 - 2C) / (2k + 1) and stays put otherwise.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    out = np.empty(samples, dtype=np.int64)
    for start, size, rng in _batches(samples, gen, "cherries"):
        cherries = np.zeros(size, dtype=np.int64)
        for k in range(n):
            cherries += rng.integers(0, 2 * k + 1, size=size) < k + 1 - 2 * cherries
        out[start : start + size] = cherries
    return out


def sample_fringe_sizes(n, r, samples, gen):
    """Sizes of the r-th fringe of uniform length-n paths."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    out = np.zeros(samples, dtype=np.int64)
    rows = max(1, _BLOCK_CELLS // n)
    for start, size, rng in _batches(samples, gen, "fringes"):
        codes = rng.integers(0, 4, size=(size, n), dtype=np.uint8)
        if r < n.bit_length():  # else every r-th fringe is empty
            for a in range(0, size, rows):
                block = codes[a : a + rows]
                lens = np.full(len(block), n, dtype=_size_dtype(n))
                out[start + a : start + a + len(block)] = _fringe_table(
                    block, lens, r
                )[:, r]
    return out


# ---------------------------------------------------------------------------
# distribution tests

def _normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_vs_normal(values, mean, std):
    """Kolmogorov-Smirnov distance of integer samples to N(mean, std^2).

    The samples live on a lattice, so the empirical CDF is compared at the
    half-integer continuity-corrected points; without the correction the
    lattice discretization alone would dominate the distance.
    """
    values = np.asarray(values)
    uniq, counts = np.unique(values, return_counts=True)
    cum = np.cumsum(counts) / values.size
    worst = 0.0
    for x, c in zip(uniq, cum):
        ref = _normal_cdf((x + 0.5 - mean) / std)
        worst = max(worst, abs(c - ref))
    return worst


def clt_check(n, r, samples, gen, kind="tree"):
    """KS distance of standardized r-branch counts or fringe sizes."""
    if samples < 1:
        raise DomainError("need at least one sample")
    if kind == "tree":
        if r != 1:
            # only the cherry count (r = 1) is a Markov chain of its own
            # under Remy's insertion; other r would need a tree per sample
            raise DomainError("tree CLT check is implemented for r = 1")
        mean = asym.asy_r_branch_mean(n, r).value
        var = asym.asy_r_branch_var(n, r).value
        if var <= 0:
            raise DomainError("zero variance; r too large for this n")
        values = sample_cherry_counts(n, samples, gen)
    elif kind == "path":
        mean = asym.asy_fringe(n, r, "mean").value
        var = asym.asy_fringe(n, r, "variance").value
        if var <= 0:
            raise DomainError("zero variance; r too large for this n")
        values = sample_fringe_sizes(n, r, samples, gen)
    else:
        raise DomainError(f"unknown kind {kind!r}")
    return ks_vs_normal(values, mean, math.sqrt(var))

