"""Command-line entry point.

Subcommands: tree / path (single-object reductions), table (exact and
asymptotic quantities, optionally cross-checked between backends), figure
(fluctuation CSV data), verify (the full invariant suite, which lives in
the verify module).

Exit codes: 0 ok, 1 verification failure, 2 parse error, 3 domain error
(including an --out file that cannot be written), 4 cross-backend mismatch,
5 resource cap, 6 internal error (a bug; the traceback goes to stderr).

Every command takes --out and --threads, and table also --format.
--threads must be at least 1 for callers that send it, but it changes
nothing: the scans run on one thread.  The verify suite's groups are
reached through redcalc.verify, not through this module.

table's --n quantities (the means and the reduction-degree distribution)
are one table, QUANTITIES, from which table takes its checks, its
backends and its --check comparison, figure its exact means, and over
which verify's cross-validation loops; verify writes out only the checks
of what is no such quantity (the tree second moment and the register
histogram).  A --method that is not one of the quantity's backends exits
3 at every n.  A backend beyond its size cap (the oracle's enumeration
cap, SERIES_N_CAP for the series, EXACT_N_CAP for the binomial sums and the
figure grids) exits 5 when --method names it; table --check leaves it out
there.

Every command runs in a fresh interpreter, so each request imports only
the modules it uses beyond asym, which all of them load: tree loads trees,
path loads paths, figure loads exact, table loads the backend its --method
names (series for series-coefficients, none for the asymptotic method),
table --check every applicable backend, and verify the verify module and
with it all of them.  Only the requests that enumerate or sample (table
--method oracle, table --check, verify) import the oracle and with it
numpy.  fractions is imported by exact and the oracle, and here only
where a series mean or a printed mean first makes a Fraction: tree, path,
series-coefficients and table --method asymptotic load none of
fractions, decimal and numbers, and only the oracle imports dataclasses.

The argument parser is built once per process and reused by every later
call of main in it.
"""

import argparse
import functools
import math
import sys

from . import asym
from .errors import (
    PATH_CAP,
    TREE_CAP,
    DomainError,
    MismatchError,
    RedcalcError,
    ResourceCapError,
)

# largest n of the exact backend, in a table quantity and on a figure grid:
# each step-1 sum (expected_total_branches, expected_rdeg, ...) takes about
# 2.5 s at n = 4096 on a 2-vCPU sandbox and grows about 6.5x per doubling
EXACT_N_CAP = 4096

# largest n of a table quantity's series backend: branch_total_series
# takes about 1.5 s at n = 128 and about 10x as long per doubling of n
SERIES_N_CAP = 128

EXIT_INTERNAL_ERROR = 6


# The backends are imported on first use, so that a request loads only
# the ones it computes.

def _exact():
    from . import exact

    return exact


def _series():
    from . import series

    return series


def _oracle():
    """The oracle module; it also loads numpy."""
    from . import oracle

    return oracle


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise DomainError(f"cannot write {args.out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def _fraction(numerator, denominator=1):
    """Fraction(numerator, denominator), with fractions imported on first
    use: the asymptotic, tree and path requests print no rational."""
    from fractions import Fraction

    return Fraction(numerator, denominator)


def _fmt_rational(q):
    q = _fraction(q)
    if q.denominator == 1:
        return f"{q.numerator}"
    return f"{q.numerator}/{q.denominator} ({float(q):.10g})"


# ---------------------------------------------------------------------------
# tree / path

def cmd_tree(args):
    from .trees import branch_counts, format_tree, parse_tree, reduce_tree, register

    t = parse_tree(args.tree)
    if args.action == "reduce":
        _emit(args, format_tree(reduce_tree(t)) + "\n")
    elif args.action == "register":
        _emit(args, f"{register(t)}\n")
    else:
        bc = branch_counts(t)
        parts = [f"r={r}:{c}" for r, c in enumerate(bc.counts)]
        _emit(args, " ".join(parts) + f" total:{bc.total}\n")
    return 0


def cmd_path(args):
    from .paths import fringe_sizes, parse_path, rdeg, reduce_path

    p = parse_path(args.path)
    if args.action == "reduce":
        _emit(args, reduce_path(p) + "\n")
    elif args.action == "rdeg":
        _emit(args, f"{rdeg(p)}\n")
    else:
        _emit(args, " ".join(str(s) for s in fringe_sizes(p)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# table

# series-coefficients families, in --family's order: name -> f(r, order);
# H is bivariate and printed a row of v-coefficients per z-power
_SERIES_FAMILIES = {
    "B": lambda r, order: _series().b_r_series(r, order),
    "Beq": lambda r, order: _series().b_r_equal_series(r, order),
    "F1": lambda r, order: _series().f1_series(r, order),
    "F2": lambda r, order: _series().f2_series(r, order),
    "L": lambda r, order: _series().l_r_series(r, order),
    "Leq": lambda r, order: _series().l_r_equal_series(r, order),
    "H": lambda r, order: _series().h_r_bivariate(r, order),
    "sigma": lambda r, order: _series().sigma_iterate(r, order),
    "branch-total": lambda r, order: _series().branch_total_series(order),
}


def _poly_in_v(row):
    if not row:
        return "0"
    terms = []
    for m in sorted(row, reverse=True):
        c = row[m]
        if m == 0:
            terms.append(str(c))
        elif m == 1:
            terms.append(f"{c}v")
        else:
            terms.append(f"{c}v^{m}")
    return " + ".join(terms)


# the --n quantities, each the exact mean of one statistic over the uniform
# objects of size n or, for rdeg-dist, its distribution (a dict of nonzero
# counts): name -> takes_r (whether it takes --r), objects (the key of
# _OBJECTS it averages over), backends (one f(n, r) per exact backend besides
# the oracle), read (the oracle's value off a scan's oracle.ScanStats,
# f(stats, r)) and, for a mean, asymptotic (f(n, r, terms))
QUANTITIES = {
    "r-branches-mean": dict(
        takes_r=True,
        objects="trees",
        backends=dict(
            exact=lambda n, r: _exact().expected_r_branches(n, r),
            series=lambda n, r: _fraction(
                _series().f1_series(r, n)[n], _series().catalan(n)
            ),
        ),
        read=lambda st, r: st.per_r[r].mean(),
        asymptotic=lambda n, r, terms: asym.asy_r_branch_mean(n, r).value,
    ),
    "branches-total-mean": dict(
        takes_r=False,
        objects="trees",
        backends=dict(
            exact=lambda n, r: _exact().expected_total_branches(n),
            series=lambda n, r: _fraction(
                _series().branch_total_series(n)[n], _series().catalan(n)
            ),
        ),
        read=lambda st, r: st.total.mean(),
        asymptotic=lambda n, r, terms: asym.asy_total_branches_mean(n, terms).value,
    ),
    "rdeg-dist": dict(
        takes_r=False,
        objects="paths",
        backends=dict(
            exact=lambda n, r: {
                k: c
                for k in range(max(n.bit_length() - 1, 1) + 1)
                if (c := _exact().count_paths_rdeg(n, k))
            },
            series=lambda n, r: _series().rdeg_counts(n),
        ),
        read=lambda st, r: {k: c for k, c in enumerate(st.degree) if c},
    ),
    "rdeg-mean": dict(
        takes_r=False,
        objects="paths",
        backends=dict(exact=lambda n, r: _exact().expected_rdeg(n)),
        read=lambda st, r: st.degree.mean(),
        asymptotic=lambda n, r, terms: asym.asy_rdeg(n, terms, "mean").value,
    ),
    "fringe-mean": dict(
        takes_r=True,
        objects="paths",
        backends=dict(
            exact=lambda n, r: _exact().expected_fringe(n, r),
            series=lambda n, r: _fraction(
                _series().h_r_bivariate(r, n).moment(1)[n], 4**n
            ),
        ),
        read=lambda st, r: st.per_r[r].mean(),
        asymptotic=lambda n, r, terms: asym.asy_fringe(n, r, "mean").value,
    ),
    "fringe-total-mean": dict(
        takes_r=False,
        objects="paths",
        backends=dict(exact=lambda n, r: _exact().expected_total_fringe(n)),
        read=lambda st, r: st.total.mean(),
        asymptotic=lambda n, r, terms: asym.asy_total_fringe_mean(n, terms).value,
    ),
}

# the objects of size n: the smallest n, the domain errors without and with
# --r (the exact backend's), the option that holds the oracle's cap and
# what its cap error names, and the oracle's scan f(n, r_max, cap)
_OBJECTS = {
    "trees": dict(
        n_min=0,
        domain=("n must be nonnegative", "n and r must be nonnegative"),
        cap=("cap_trees", "tree enumeration"),
        scan=lambda n, r, cap: _oracle().tree_stats(n, r_max=r, cap=cap),
    ),
    "paths": dict(
        n_min=1,
        domain=("need n >= 1", "need n >= 1 and r >= 0"),
        cap=("cap_paths", "path enumeration"),
        scan=lambda n, r, cap: _oracle().path_stats(n, r_max=r, cap=cap),
    ),
}


def cmd_table(args):
    spec = QUANTITIES.get(args.quantity)
    takes_r = spec is not None and spec["takes_r"]
    if args.quantity != "series-coefficients":
        if args.n is None:
            raise DomainError(f"table {args.quantity} needs --n")
        if takes_r and args.r is None:
            raise DomainError(f"table {args.quantity} needs --r")
        if args.r is not None and not takes_r:
            raise DomainError(f"table {args.quantity} takes no --r")
    if args.order < 0:
        raise DomainError(f"--order must be nonnegative, got {args.order}")
    if args.quantity == "series-coefficients":
        r = args.r if args.r is not None else 1
        order = args.order
        f = _SERIES_FAMILIES[args.family](r, order)
        if args.family == "H" and args.format == "csv":
            lines = ["family,r,n,v_degree,coeff"]
            for n in range(order + 1):
                row = f.row(n)
                lines += [f"H,{r},{n},{m},{row[m]}" for m in sorted(row)]
        elif args.family == "H":
            lines = [f"[z^{n}] {_poly_in_v(f.row(n))}" for n in range(order + 1)]
        elif args.format == "csv":
            lines = ["family,r,n,coeff"]
            lines += [f"{args.family},{r},{n},{f[n]}" for n in range(order + 1)]
        else:
            lines = [", ".join(str(f[n]) for n in range(order + 1))]
        _emit(args, "\n".join(lines) + "\n")
        return 0

    n, r = args.n, args.r
    if args.method == "asymptotic" and "asymptotic" in spec:
        _emit(args, f"{spec['asymptotic'](n, r, args.terms)!r}\n")
        return 0
    objects = _OBJECTS[spec["objects"]]
    if n < objects["n_min"] or (takes_r and r < 0):
        raise DomainError(objects["domain"][takes_r])
    backends = {
        name: functools.partial(compute, n, r)
        for name, compute in spec["backends"].items()
    }
    option, enumeration = objects["cap"]
    cap = getattr(args, option)
    backends["oracle"] = lambda: spec["read"](objects["scan"](n, r, cap), r)
    if args.method not in backends:
        raise DomainError(
            f"backend {args.method!r} not applicable (have {sorted(backends)})"
        )
    # beyond its cap a backend exits 5 when --method names it, and --check
    # leaves it out
    caps = {
        "oracle": (cap, enumeration),
        "series": (SERIES_N_CAP, "series backend"),
        "exact": (EXACT_N_CAP, "exact backend"),
    }
    for name, (limit, what) in caps.items():
        if n > limit and name in backends:
            if name == args.method:
                raise ResourceCapError(f"{what} capped at n = {limit}")
            del backends[name]
    value = backends[args.method]()
    if args.check:
        values = {
            name: value if name == args.method else compute()
            for name, compute in backends.items()
        }
        if any(v != value for v in values.values()):
            at = f"n={n}, r={r}" if takes_r else f"n={n}"
            raise MismatchError(
                f"backend mismatch for {args.quantity} at {at}: "
                + ", ".join(f"{k}={v}" for k, v in values.items())
            )
    if isinstance(value, dict):  # a distribution: rows (r, count, 4^n)
        rows = [(k, c, 4**n) for k, c in value.items()]
        lines = [f"r={k}: {c}/{d}" for k, c, d in rows]
    else:  # a mean: one row (r, numerator, denominator)
        rows = [("" if r is None else r, value.numerator, value.denominator)]
        lines = [_fmt_rational(value)]
    if args.format == "csv":
        lines = ["quantity,n,r,numerator,denominator,value"]
        lines += [f"{args.quantity},{n},{k},{a},{b},{a / b!r}" for k, a, b in rows]
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# figure

_FIGURES = {
    "branches-fluctuation": dict(
        quantity="branches-total-mean",
        family="branches-total",
        smooth=asym.asy_total_branches_smooth,
        default_range=(2.0, 5.0),
    ),
    "fringe-fluctuation": dict(
        quantity="fringe-total-mean",
        family="fringe-total",
        smooth=asym.asy_total_fringe_smooth,
        default_range=(1.0, 4.0),
    ),
}


def figure_rows(figure, x_min, x_max, points, terms):
    """Grid rows (x, n, exact, smooth, residual, delta) for one figure."""
    if points < 2:
        raise DomainError("a figure grid needs at least 2 points")
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise DomainError(
            f"--x-min and --x-max must be finite, got {x_min} and {x_max}"
        )
    # 4^x is over the cap well before x_cap, so a larger x skips 4.0**x,
    # which overflows past x = 512, and so does the nan x that an
    # overflowing x_max - x_min gives
    x_cap = math.log(EXACT_N_CAP, 4.0) + 1.0
    grid = []  # the whole grid is checked against the cap before any point
    for i in range(points):
        x = x_min + (x_max - x_min) * i / (points - 1)
        n = round(4.0**x) if x < x_cap else math.inf
        if n > EXACT_N_CAP:
            raise ResourceCapError(f"figure grid capped at n = {EXACT_N_CAP}")
        grid.append(n)
    spec = _FIGURES[figure]
    exact = QUANTITIES[spec["quantity"]]["backends"]["exact"]
    fluc = asym.fluctuation(spec["family"], terms)
    rows = []
    for n in dict.fromkeys(grid):
        if n < 2:
            continue
        x_n = math.log(n) / math.log(4.0)
        ev = float(exact(n, None))
        smooth = spec["smooth"](n)
        rows.append((x_n, n, ev, smooth, ev - smooth, fluc(x_n)))
    return rows


def cmd_figure(args):
    x_min, x_max = _FIGURES[args.figure]["default_range"]
    if args.x_min is not None:
        x_min = args.x_min
    if args.x_max is not None:
        x_max = args.x_max
    rows = figure_rows(args.figure, x_min, x_max, args.points, args.terms)
    lines = ["x,n,exact,asymptotic_smooth,residual,delta_fourier"]
    for x, n, ev, smooth, residual, delta in rows:
        lines.append(f"{x!r},{n},{ev!r},{smooth!r},{residual!r},{delta!r}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args):
    from . import verify

    report, failed = verify.run(args.full, args.seed)
    _emit(args, report)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing

@functools.cache
def build_parser():
    """The argument parser, built once per process: it holds only constants
    and the cmd_* functions, and every parse_args call starts a fresh
    namespace."""
    parser = argparse.ArgumentParser(
        prog="redcalc",
        description="Exact and asymptotic statistics of tree and path reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=False):
        """--out and --threads, and with formats --format between them:
        only table reads it."""
        p.add_argument("--out", help="write output to this file instead of stdout")
        if formats:
            p.add_argument("--format", choices=("human", "csv"), default="human")
        # accepted and checked for callers that send it; no command reads it
        p.add_argument("--threads", type=int)

    p = sub.add_parser("tree", help="reduce or analyze one binary tree")
    p.add_argument("action", choices=("reduce", "register", "branches"))
    p.add_argument("tree", help='tree literal, e.g. "(. (. .))"')
    common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("path", help="reduce or analyze one lattice path")
    p.add_argument("action", choices=("reduce", "rdeg", "fringes"))
    p.add_argument("path", help='path literal over U, R, D, L, e.g. "RRUD"')
    common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("table", help="tabulate exact or asymptotic quantities")
    p.add_argument("quantity", choices=[*QUANTITIES, "series-coefficients"])
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--order", type=int, default=9)
    p.add_argument("--terms", type=int, default=20, help="Fourier summands K")
    p.add_argument("--family", choices=tuple(_SERIES_FAMILIES), default="B")
    p.add_argument(
        "--method",
        choices=("exact", "series", "oracle", "asymptotic"),
        default="exact",
    )
    p.add_argument("--check", action="store_true")
    p.add_argument("--cap-trees", type=int, default=TREE_CAP)
    p.add_argument("--cap-paths", type=int, default=PATH_CAP)
    common(p, formats=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="export fluctuation figure data as CSV")
    p.add_argument("figure", choices=tuple(_FIGURES))
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--points", type=int, default=61)
    p.add_argument("--terms", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="run the invariant suite")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true")
    mode.add_argument("--full", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise DomainError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except RedcalcError as e:
        print(f"redcalc: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:
        import traceback

        print(f"redcalc: internal error: {e!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
