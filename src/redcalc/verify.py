"""The invariant suite that ``redcalc verify`` runs.

Five groups: series identities, three-way cross-validation of the
enumeration against the series and the closed forms, sharp bounds and
extremal objects, asymptotic residuals, and CLT sampling.  Each group is
a generator that yields a one-line description of every check that
fails, in a fixed order.  ``run`` reports the first failure of each group
and goes no further in it; the acceptance gate lists them all.

The cross-validation and the residual groups take the quantities from
``cli.QUANTITIES``, the table the ``table`` command computes from, the
reduction-degree distribution among them, so the path series (the
reduction-degree counts and the fringe means) are checked through the
table too.  Only the checks of what is no such quantity (the tree second
moment and the tree scan's degree histogram, the register's) are written
out here.

Of the CLI's requests only ``verify`` imports this module, so no other
request compiles it; it loads every backend, the oracle and with it
numpy.  The acceptance tests call the groups here directly.
"""

import math

from . import asym, exact, oracle, series
from .cli import QUANTITIES
from .trees import almost_complete, format_tree, reduce_tree


def _verify_identities(order):
    ns = range(order + 1)
    cat = series.TruncatedSeries([series.catalan(n) for n in ns])
    sig = series.sigma_series(order)
    chain = series.TruncatedSeries([1 << n >> 1 for n in ns])  # z/(1-2z)
    one = series.TruncatedSeries([int(n == 0) for n in ns])
    # tree functional equation: B = 1 + C * B(sigma)
    if cat != one + chain * cat.compose(sig):
        yield "tree functional equation fails"
    # path functional equation: L = 4 L(sigma) + 4z, L = sum_{n >= 1} (4z)^n
    lat = series.TruncatedSeries([4**n if n else 0 for n in ns])
    four_z = series.TruncatedSeries([4 * (n == 1) for n in ns])
    if lat != 4 * lat.compose(sig) + four_z:
        yield "path functional equation fails"
    # Touchard's identity, n <= 30
    for n in range(31):
        acc = sum(
            series.catalan(k) * 2 ** (n - 2 * k) * math.comb(n, 2 * k)
            for k in range(n // 2 + 1)
        )
        if acc != series.catalan(n + 1):
            yield f"Touchard's identity fails at n={n}"
    # reduction degrees partition all paths
    for n in range(1, order + 1):
        total = sum(
            exact.count_paths_rdeg(n, r) for r in range(n.bit_length())
        )
        if total != 4**n:
            yield f"rdeg counts do not sum to 4^{n}"


def _oracle_stats(tree_max, path_max):
    """Exhaustive statistics of every tree size 0..tree_max and every path
    length 1..path_max, each scanned once and shared by the verify groups."""
    trees = {n: oracle.tree_stats(n) for n in range(tree_max + 1)}
    paths = {n: oracle.path_stats(n) for n in range(1, path_max + 1)}
    return trees, paths


def _verify_three_way(trees, paths):
    # every exact backend of every quantity in the table command against
    # the oracle's value, read off the shared scans; each mean has the
    # fixed denominator Cat(n) or 4^n, so this also compares the sums
    scans = {"trees": trees, "paths": paths}
    for quantity, spec in QUANTITIES.items():
        for n, st in scans[spec["objects"]].items():
            for r in range(len(st.per_r)) if spec["takes_r"] else (None,):
                want = spec["read"](st, r)
                at = f"n={n}" if r is None else f"n={n}, r={r}"
                for backend, compute in spec["backends"].items():
                    if compute(n, r) != want:
                        yield f"{quantity} {backend} mismatch at {at}"
    for n, st in trees.items():
        order = max(n, 1)
        for r, hist in enumerate(st.per_r):
            if hist.factorial_moment_sum() != series.f2_series(r, order)[n]:
                yield f"tree second moment mismatch at n={n}, r={r}"
        for r, count in enumerate(st.degree):
            if series.b_r_equal_series(r, order)[n] != count:
                yield f"register histogram mismatch at n={n}, r={r}"


def _sharp_bounds(kind, n, m, st):
    """Every sharp bound that st misses, for the objects of size n with
    m leaves (trees) or m steps (paths), measured in m: the 0-th statistic
    is m, the r-th lies in [[m > 1 and r = 1], m >> r], and the total in
    [m + [m > 1], 2m - popcount(m)]."""
    for r, hist in enumerate(st.per_r):
        lo, hi = (m, m) if r == 0 else (int(m > 1 and r == 1), m >> r)
        if (hist.min, hist.max) != (lo, hi):
            yield f"{kind} bounds not sharp at n={n}, r={r}"
    if (st.total.min, st.total.max) != (m + (m > 1), 2 * m - bin(m).count("1")):
        yield f"total {kind} bounds not sharp at n={n}"


def _verify_bounds(trees, paths, extremal_max):
    for n, st in trees.items():
        yield from _sharp_bounds("branch", n, n + 1, st)
    for n, st in paths.items():
        if st.degree.min != (1 if n > 1 else 0):
            yield f"rdeg lower bound not sharp at n={n}"
        if st.degree.max != n.bit_length() - 1:
            yield f"rdeg upper bound not sharp at n={n}"
        yield from _sharp_bounds("fringe", n, n, st)
    for m in range(2, 130):
        got = reduce_tree(almost_complete(m))
        want = almost_complete(m // 2)
        if format_tree(got) != format_tree(want):
            yield f"almost-complete reduction fails at m={m}"
    n = oracle.extremal_failure(extremal_max)
    if n is not None:
        yield f"extremal path fails at n={n}"


def _residual(quantity, n, r=None):
    """|asymptotic - exact| of a table quantity, with 20 Fourier summands."""
    spec = QUANTITIES[quantity]
    return abs(spec["asymptotic"](n, r, 20) - float(spec["backends"]["exact"](n, r)))


def _verify_residuals():
    for r in (1, 2, 3):
        diff = _residual("r-branches-mean", 100, r)
        if diff > 1e-3:
            yield f"r-branch mean residual {diff:.2e} at n=100, r={r}"
    for n in (256, 1024, 4096):
        for name, quantity in (
            ("branch total", "branches-total-mean"),
            ("rdeg mean", "rdeg-mean"),
            ("fringe total", "fringe-total-mean"),
        ):
            diff = _residual(quantity, n)
            if diff > 0.01:
                yield f"{name} residual {diff:.2e} at n={n}"
    for n in range(2, 65):
        got = asym.asy_count_rdeg(n, 1)
        want = exact.count_paths_rdeg(n, 1)
        if abs(got - want) > 1e-9 * want:
            yield f"rdeg count expansion not exact at n={n}, r=1"


def _verify_clt(seed, samples, n):
    gen = oracle.SeededGenerator(seed)
    for kind, r in (("tree", 1), ("path", 2)):
        ks = oracle.clt_check(n, r, samples, gen.split(f"clt:{kind}"), kind=kind)
        if ks > 0.02:
            # documented one-retry policy: a stochastic threshold gets a
            # second fixed seed before the check is declared failed
            retry = oracle.clt_check(
                n, r, samples, gen.split(f"clt-retry:{kind}"), kind=kind
            )
            if retry > 0.02:
                yield f"{kind} KS distance {ks} then {retry} at n={n}, r={r}"


def run(full, seed):
    """Run every group at the --quick or --full scale and return the report
    (one status line per group and a result line) and whether any failed."""
    if full:
        scale = dict(
            order=64, tree_max=12, path_max=10, extremal_max=4096,
            clt_samples=100000, clt_n=1000,
        )
    else:
        scale = dict(
            order=32, tree_max=8, path_max=7, extremal_max=512,
            clt_samples=20000, clt_n=200,
        )
    trees, paths = _oracle_stats(scale["tree_max"], scale["path_max"])
    # generators: a group runs only as far as its first failure
    groups = [
        ("identities", _verify_identities(scale["order"])),
        ("three-way-cross-validation", _verify_three_way(trees, paths)),
        (
            "bounds-and-sharpness",
            _verify_bounds(trees, paths, scale["extremal_max"]),
        ),
        ("asymptotic-residuals", _verify_residuals()),
        (
            "clt-sampling",
            _verify_clt(seed, scale["clt_samples"], scale["clt_n"]),
        ),
    ]
    lines = []
    failed = False
    for name, group in groups:
        problem = next(group, None)
        if problem is None:
            lines.append(f"{name}: PASS")
        else:
            lines.append(f"{name}: FAIL ({problem})")
            failed = True
    lines.append(f"result: {'FAIL' if failed else 'PASS'}")
    return "\n".join(lines) + "\n", failed
