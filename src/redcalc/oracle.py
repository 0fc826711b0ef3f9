"""Ground-truth backend: exhaustive enumeration, uniform samplers, CLT checks.

Enumeration keeps every statistic as exact integers, so agreement with the
series and closed-form backends can be asserted as equality.  The tree scan
is a numpy pass with one row per tree, built bottom-up by the register rule;
the path scan walks step prefixes in order.  Both run on the calling thread:
their ``threads`` argument is accepted for compatibility and changes neither
the result nor the work done.  Samplers draw fixed-size chunks from streams
split off one seed, so their output depends on the seed alone.
"""

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import asym
from .errors import DomainError, ResourceCapError
from .paths import STEPS, fringe_sizes
from .trees import LEAF, Node

__all__ = [
    "TREE_CAP",
    "PATH_CAP",
    "StatAccumulator",
    "SeededGenerator",
    "enumerate_trees",
    "enumerate_paths",
    "tree_stats",
    "path_stats",
    "sample_tree",
    "sample_path",
    "sample_cherry_counts",
    "sample_fringe_sizes",
    "clt_check",
    "chi_square_uniformity",
]

TREE_CAP = 15
PATH_CAP = 13


@dataclass
class StatAccumulator:
    """Exact moments and range of one integer statistic over a population."""

    count: int = 0
    total: int = 0
    total_sq: int = 0
    min: int = None
    max: int = None

    def add(self, x, weight=1):
        self.count += weight
        self.total += x * weight
        self.total_sq += x * x * weight
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    def merge(self, other):
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def mean(self):
        return Fraction(self.total, self.count)

    def variance(self):
        m = self.mean()
        return Fraction(self.total_sq, self.count) - m * m

    def factorial_moment_sum(self):
        """Sum of X(X-1) over the population."""
        return self.total_sq - self.total


class SeededGenerator:
    """Splittable deterministic randomness; children derive from the parent
    seed by hashing, so the stream layout is independent of thread count."""

    def __init__(self, seed):
        self.seed = int(seed)

    def split(self, label):
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return SeededGenerator(int.from_bytes(digest[:8], "big"))

    def python_rng(self):
        return random.Random(self.seed)

    def numpy_rng(self):
        return np.random.default_rng(self.seed)


def enumerate_trees(n, cap=TREE_CAP, left_size=None):
    """All binary trees with n internal nodes, deterministic order.

    left_size restricts to trees whose root has that left-subtree size;
    tree_stats builds its rows in the same blocks and order.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n = {cap}")
    if n == 0:
        if left_size is None:
            yield LEAF
        return
    sizes = range(n) if left_size is None else (left_size,)
    for i in sizes:
        for left in enumerate_trees(i, cap=cap):
            for right in enumerate_trees(n - 1 - i, cap=cap):
                yield Node(left, right)


def enumerate_paths(n, cap=PATH_CAP, prefix=""):
    """All 4^n paths of length n in base-4 counter order over U,R,D,L."""
    if n < 1:
        raise DomainError("paths are nonempty")
    if n > cap:
        raise ResourceCapError(f"path enumeration capped at n = {cap}")
    for tail in itertools.product(STEPS, repeat=n - len(prefix)):
        yield prefix + "".join(tail)


@dataclass
class TreeStats:
    n: int
    per_r: list  # StatAccumulator for the r-branch count, r = 0..r_max
    total: StatAccumulator
    register_hist: dict


# upper bound on the rows of one block of trees (and of its temporaries)
_BLOCK_ROWS = 1 << 20


def _tree_blocks(k, regs, cnts, max_rows=_BLOCK_ROWS):
    """Root registers and branch-count rows of the size-k trees.

    regs[i] / cnts[i] hold the rows of the size-i trees for every i < k.
    cnts[i] has more columns than log2(k + 1), the largest register of a
    size-k tree.  Yields (reg, cnt) blocks of at most max_rows rows whose
    concatenation is in enumerate_trees order: left-subtree size, then
    left index, then right index.  Node(a, b) gets
    counts(a) + counts(b) + [reg a = reg b] e_{reg a + 1} and register
    reg a + 1 if reg a = reg b, else max(reg a, reg b).
    """
    width = cnts[0].shape[1]
    for i in range(k):
        left_reg, left_cnt = regs[i], cnts[i]
        right_reg, right_cnt = regs[k - 1 - i], cnts[k - 1 - i]
        rstep = min(len(right_reg), max_rows)
        lstep = max(1, max_rows // len(right_reg))
        for a in range(0, len(left_reg), lstep):
            rl = left_reg[a : a + lstep, None]
            lc = left_cnt[a : a + lstep, None, :]
            for b in range(0, len(right_reg), rstep):
                rr = right_reg[None, b : b + rstep]
                eq = rl == rr
                reg = np.where(eq, rl + 1, np.maximum(rl, rr))
                cnt = lc + right_cnt[None, b : b + rstep, :]
                for c in range(1, width):
                    cnt[:, :, c] += eq & (reg == c)
                yield reg.ravel(), cnt.reshape(-1, width)


def _tree_tables(n, width):
    """Rows of every tree of each size 0..n-1, in enumerate_trees order.

    Size 0, the leaf, is always included.  Returns lists regs, cnts:
    regs[k] is the int8 root register of each size-k tree, cnts[k] its
    int8 branch counts zero-padded to width columns.  width must exceed
    the largest register, log2(n) rounded down.
    """
    regs = [np.zeros(1, dtype=np.int8)]
    cnts = [np.zeros((1, width), dtype=np.int8)]
    cnts[0][0, 0] = 1  # a leaf is one 0-branch
    for k in range(1, n):
        rows = sum(len(regs[i]) * len(regs[k - 1 - i]) for i in range(k))
        reg = np.empty(rows, dtype=np.int8)
        cnt = np.empty((rows, width), dtype=np.int8)
        at = 0
        for block_reg, block_cnt in _tree_blocks(k, regs, cnts):
            reg[at : at + len(block_reg)] = block_reg
            cnt[at : at + len(block_reg)] = block_cnt
            at += len(block_reg)
        regs.append(reg)
        cnts.append(cnt)
    return regs, cnts


def _fold(acc, values):
    """Add every entry of a nonnegative integer array to acc, by histogram."""
    for x, weight in enumerate(np.bincount(values).tolist()):
        if weight:
            acc.add(x, weight)


def tree_stats(n, r_max=None, threads=1, cap=TREE_CAP):
    """Exact branch statistics over all trees of size n.

    Every tree is one row of an exhaustive numpy scan; threads is accepted
    for compatibility and ignored.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n = {cap}")
    if r_max is None:
        r_max = max((n + 1).bit_length() - 1, 1)
    width = (n + 1).bit_length()  # registers of size-n trees are <= log2(n+1)
    per_r = [StatAccumulator() for _ in range(r_max + 1)]
    total = StatAccumulator()
    hist = np.zeros(width, dtype=np.int64)
    regs, cnts = _tree_tables(n, width)
    blocks = _tree_blocks(n, regs, cnts) if n else [(regs[0], cnts[0])]
    for reg, cnt in blocks:
        for r, acc in enumerate(per_r):
            if r < width:
                _fold(acc, cnt[:, r])
            else:
                acc.add(0, len(reg))
        _fold(total, cnt.sum(axis=1))
        hist += np.bincount(reg, minlength=width)
    register_hist = {r: c for r, c in enumerate(hist.tolist()) if c}
    return TreeStats(n, per_r, total, register_hist)


@dataclass
class PathStats:
    n: int
    rdeg_hist: dict
    rdeg: StatAccumulator
    per_r: list  # StatAccumulator for the r-th fringe size, r = 0..r_max
    total: StatAccumulator


def path_stats(n, r_max=None, threads=1, cap=PATH_CAP):
    """Exact reduction-degree and fringe statistics over all length-n paths.

    The paths are scanned per step prefix, in order, on the calling
    thread; threads is accepted for compatibility and ignored.
    """
    if n > cap:
        raise ResourceCapError(f"path enumeration capped at n = {cap}")
    if r_max is None:
        r_max = max(n.bit_length() - 1, 1)

    def scan(prefix):
        rdeg_hist = {}
        rdeg_acc = StatAccumulator()
        per_r = [StatAccumulator() for _ in range(r_max + 1)]
        total = StatAccumulator()
        for p in enumerate_paths(n, cap=cap, prefix=prefix):
            sizes = fringe_sizes(p)
            d = len(sizes) - 1
            rdeg_hist[d] = rdeg_hist.get(d, 0) + 1
            rdeg_acc.add(d)
            for r in range(r_max + 1):
                per_r[r].add(sizes[r] if r < len(sizes) else 0)
            total.add(sum(sizes))
        return rdeg_hist, rdeg_acc, per_r, total

    width = 2 if n >= 2 else 1
    chunks = ["".join(c) for c in itertools.product(STEPS, repeat=width)]
    rdeg_hist = {}
    rdeg_acc = StatAccumulator()
    per_r = [StatAccumulator() for _ in range(r_max + 1)]
    total = StatAccumulator()
    for part_hist, part_deg, part_r, part_total in map(scan, chunks):
        for k, v in part_hist.items():
            rdeg_hist[k] = rdeg_hist.get(k, 0) + v
        rdeg_acc.merge(part_deg)
        for acc, part in zip(per_r, part_r):
            acc.merge(part)
        total.merge(part_total)
    return PathStats(n, rdeg_hist, rdeg_acc, per_r, total)


# ---------------------------------------------------------------------------
# uniform samplers

def sample_tree(n, gen):
    """Uniform tree of size n by leaf insertion (Remy's construction)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return _sample_tree_rng(n, gen.python_rng())


def _sample_tree_rng(n, rng):
    # node ids: 0 is the initial leaf; step k adds internal 2k+1, leaf 2k+2
    children = {}
    parent = {0: (None, None)}
    root = 0
    for k in range(n):
        m = 2 * k + 1
        v = rng.randrange(m)
        b = rng.getrandbits(1)
        u, w = m, m + 1
        children[u] = (w, v) if b else (v, w)
        p, side = parent[v]
        parent[u] = (p, side)
        parent[v] = (u, b)
        parent[w] = (u, b ^ 1)
        if p is None:
            root = u
        else:
            left, right = children[p]
            children[p] = (u, right) if side == 0 else (left, u)
    # convert the id structure into Node/LEAF form, iteratively
    built = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if v not in children:
            built[v] = LEAF
            continue
        left, right = children[v]
        if left in built and right in built:
            built[v] = Node(built[left], built[right])
        else:
            stack.extend((v, left, right))
    return built[root]


def sample_path(n, gen):
    """Uniform path of length n (independent uniform steps)."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = gen.python_rng()
    return "".join(rng.choice(STEPS) for _ in range(n))


def sample_cherry_counts(n, samples, gen, batch=5000):
    """Cherry counts (= 1-branch counts) of uniform size-n trees.

    Runs Remy's construction for whole batches in lockstep with vectorized
    updates; only the per-node leaf-children counts are tracked, which is
    all the cherry statistic needs.
    """
    if n < 1:
        raise DomainError("need n >= 1")
    out = np.empty(samples, dtype=np.int64)
    done = 0
    chunk_no = 0
    while done < samples:
        size = min(batch, samples - done)
        rng = gen.split(f"cherries:{chunk_no}").numpy_rng()
        rows = np.arange(size)
        parent = np.full((size, 2 * n + 1), -1, dtype=np.int32)
        is_leaf = np.zeros((size, 2 * n + 1), dtype=bool)
        is_leaf[:, 0] = True
        leaf_kids = np.zeros((size, 2 * n + 1), dtype=np.int8)
        cherries = np.zeros(size, dtype=np.int64)
        for k in range(n):
            m = 2 * k + 1
            v = rng.integers(0, m, size=size)
            rng.integers(0, 2, size=size)  # orientation; cherry count ignores it
            u, w = m, m + 1
            v_leaf = is_leaf[rows, v]
            p = parent[rows, v]
            parent[rows, u] = p
            parent[rows, v] = u
            parent[rows, w] = u
            is_leaf[rows, w] = True
            leaf_kids[rows, u] = np.where(v_leaf, 2, 1)
            cherries += v_leaf
            # a leaf that gains a parent stops being a leaf child of p
            fix = v_leaf & (p >= 0)
            if fix.any():
                fr, fp = rows[fix], p[fix]
                old = leaf_kids[fr, fp]
                cherries[fix] -= old == 2
                leaf_kids[fr, fp] = old - 1
        out[done : done + size] = cherries
        done += size
        chunk_no += 1
    return out


_STEP_LUT = np.frombuffer(STEPS.encode(), dtype=np.uint8)


def sample_fringe_sizes(n, r, samples, gen, batch=5000):
    """Sizes of the r-th fringe of uniform length-n paths."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    out = np.empty(samples, dtype=np.int64)
    done = 0
    chunk_no = 0
    while done < samples:
        size = min(batch, samples - done)
        rng = gen.split(f"fringes:{chunk_no}").numpy_rng()
        codes = rng.integers(0, 4, size=(size, n), dtype=np.uint8)
        for i in range(size):
            p = _STEP_LUT[codes[i]].tobytes().decode()
            sizes = fringe_sizes(p)
            out[done + i] = sizes[r] if r < len(sizes) else 0
        done += size
        chunk_no += 1
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
            # the fast lockstep sampler only covers cherries; other r would
            # need full tree construction per sample
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


def chi_square_uniformity(n, samples, gen):
    """Chi-square statistic of sample_tree against the uniform distribution
    over all trees of size n, plus the degrees of freedom."""
    from .trees import format_tree

    expected = {}
    for t in enumerate_trees(n):
        expected[format_tree(t)] = 0
    rng = gen.python_rng()
    for _ in range(samples):
        expected[format_tree(_sample_tree_rng(n, rng))] += 1
    classes = len(expected)
    mean = samples / classes
    stat = sum((c - mean) ** 2 / mean for c in expected.values())
    return stat, classes - 1
