"""Seeded request lists for the three benchmark workloads.

A request is a plain dict.  ``kind == "cli"`` requests carry an ``argv`` for
``redcalc.cli.main``; ``kind == "call"`` requests name a public function of a
redcalc module and its arguments.  Every request also carries a ``check``
dict that tells ``checks.py`` how to validate its output.

Sizes: the cost of a request grows steeply with its size (about n^2.7 for
the closed forms, order^3 for series composition, 4^n for enumeration), so
sizes drawn independently at random would make the time of a list depend
more on the seed than on the code.  Continuous sizes therefore sit on a
log-uniform grid (the centres of equal log-width strata), each moved by a
seeded jitter of at most +-3%, and every grid point is combined with every
r.  Enumeration sizes are fixed ladders.

A run sends one list per pass.  The seed draws, once per run, whatever
changes the kind of work a request does: quantity, r, method, thread count,
output format, which closed forms get an asymptotic twin.  Each pass (part)
draws its own size jitter, CLT sizes and sampler seeds and request order,
so slot i of every pass is the same request up to a small change in size.
"""

import os
import random

__all__ = ["WORKLOADS", "WARMUP_ARGV", "generate", "useful_backends"]

WORKLOADS = ("closed-forms", "crossval", "series-tables")

# Fills asym.fluctuation("branches-total") and special.bernoulli before timing.
WARMUP_ARGV = (
    "table", "branches-total-mean", "--n", "1024", "--method", "asymptotic",
    "--threads", "1",
)

_SCALES = {
    "full": dict(
        large=(256, 2048), grid=3, grid_r=2, asym=8, figure=(),
        small_trees=(6, 8, 10), small_paths=(5, 7, 8),
        cross_max=(11, 8),
        clt_tree_n=(100, 500), clt_tree_work=600_000,
        clt_path_n=(64, 256), clt_path_work=250_000,
        orders=(48, 128), h_orders=(24, 64), bt_orders=(32, 96), series_grid=2,
    ),
    "tiny": dict(
        large=(256, 320), grid=1, grid_r=1, asym=3,
        figure=("--x-max", "3.0", "--points", "7"),
        small_trees=(3,), small_paths=(3,),
        cross_max=(5, 5),
        clt_tree_n=(64, 96), clt_tree_work=20_000,
        clt_path_n=(64, 96), clt_path_work=20_000,
        orders=(8, 16), h_orders=(6, 10), bt_orders=(8, 12), series_grid=1,
    ),
}


def _nproc():
    return len(os.sched_getaffinity(0))


def _grid(rng, lo, hi, k):
    """k sizes log-uniform over [lo, hi]: stratum centres, jittered by <= 3%."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / k) * (1 + rng.uniform(-0.03, 0.03)))
            for i in range(k)]


def _cli(argv, threads, check):
    return {"kind": "cli", "argv": [*argv, "--threads", str(threads)], "check": check}


def _call(module, func, args, check, **extra):
    return {"kind": "call", "module": module, "func": func, "args": list(args),
            "check": check, **extra}


def _probes(t2):
    """Light requests that touch every layer, so that each workload's trace
    has a nonzero time for every layer and a 1-vs-2-thread enumeration pair."""
    out = []
    for threads in (1, t2):
        out.append(_cli(
            ("table", "r-branches-mean", "--n", "6", "--r", "1", "--check"), threads,
            {"type": "scalar", "quantity": "r-branches-mean", "n": 6, "r": 1},
        ))
        out.append(_cli(
            ("table", "fringe-mean", "--n", "5", "--r", "1", "--check"), threads,
            {"type": "scalar", "quantity": "fringe-mean", "n": 5, "r": 1},
        ))
    out.append(_cli(
        ("table", "branches-total-mean", "--n", "512", "--method", "asymptotic"), 1,
        {"type": "asym-abs", "quantity": "branches-total-mean", "n": 512, "r": None},
    ))
    out.append(_call(
        "oracle", "clt_check", (64, 1, 200), {"type": "clt", "samples": 200},
        kwargs={"kind": "tree"}, gen_seed=1,
    ))
    return out


# (quantity, r) choices for small-n table requests
_TREE_QUANTITIES = (("r-branches-mean", 1), ("r-branches-mean", 2), ("branches-total-mean", None))
_PATH_QUANTITIES = (("rdeg-mean", None), ("fringe-mean", 1), ("fringe-mean", 2),
                    ("fringe-total-mean", None))

# (quantity, "cli" or the exact function that computes it, r values, grid size)
_LARGE = (
    ("rdeg-mean", "cli", (None,), "grid"),
    ("fringe-total-mean", "cli", (None,), "grid"),
    ("rdeg-dist", "cli", (None,), "grid"),
    ("branches-total-mean", "expected_total_branches", (None,), "grid"),
    ("r-branches-mean", "expected_r_branches", (1, 2, 3), "grid_r"),
    ("fringe-mean", "expected_fringe", (1, 2, 3), "grid_r"),
)


def _closed_forms(pick, vary, s, t2):
    large = []
    for quantity, how, r_values, grid in _LARGE:
        for n in _grid(vary, *s["large"], s[grid]):
            for r in r_values:
                check = {"type": "closed", "quantity": quantity, "n": n, "r": r}
                if how == "cli":
                    large.append(_cli(("table", quantity, "--n", str(n)), 1, check))
                else:
                    args = (n,) if r is None else (n, r)
                    large.append(_call("exact", how, args, check))
    reqs = list(large)
    twins = [q for q in large if q["check"]["quantity"] != "rdeg-dist"]
    for sibling in pick.sample(twins, s["asym"]):
        c = sibling["check"]
        argv = ["table", c["quantity"], "--n", str(c["n"]), "--method", "asymptotic"]
        if c["r"] is not None:
            argv += ["--r", str(c["r"])]
        reqs.append(_cli(argv, 1, {**c, "type": "asym-pair", "pair": sibling}))
    for figure in ("branches-fluctuation", "fringe-fluctuation"):
        reqs.append(_cli(("figure", figure, *s["figure"]), 1, {"type": "figure"}))
    for sizes, choices in ((s["small_trees"], _TREE_QUANTITIES),
                           (s["small_paths"], _PATH_QUANTITIES)):
        for n in sizes:
            quantity, r = pick.choice(choices)
            methods = ("exact", "oracle") if quantity in (
                "rdeg-mean", "fringe-total-mean") else ("exact", "series", "oracle")
            argv = ["table", quantity, "--n", str(n), "--method", pick.choice(methods)]
            if r is not None:
                argv += ["--r", str(r)]
            reqs.append(_cli(argv, pick.choice((1, t2)),
                             {"type": "scalar", "quantity": quantity, "n": n, "r": r}))
    return reqs


# enumeration ladders: (n, quantity); the quantities alternate along the
# ladder so that every seed puts the same kind of work at each size
_CROSS_TREES = ((5, "r-branches-mean"), (6, "branches-total-mean"), (7, "r-branches-mean"),
                (8, "branches-total-mean"), (9, "r-branches-mean"),
                (10, "branches-total-mean"), (11, "r-branches-mean"))
_CROSS_PATHS = ((4, "fringe-mean"), (5, "rdeg-mean"), (6, "fringe-total-mean"),
                (7, "fringe-mean"), (8, "rdeg-dist"))


def _crossval(pick, vary, s, t2):
    reqs = []
    for ladder, top in ((_CROSS_TREES, s["cross_max"][0]), (_CROSS_PATHS, s["cross_max"][1])):
        for n, quantity in ladder:
            if n > top:
                continue
            r = pick.choice((1, 2)) if quantity in ("r-branches-mean", "fringe-mean") else None
            argv = ["table", quantity, "--n", str(n), "--check"]
            if r is not None:
                argv += ["--r", str(r)]
            check = {"type": "scalar", "quantity": quantity, "n": n, "r": r}
            one = _cli(argv, 1, check)
            two = _cli(argv, t2, {**check, "twin": one})
            reqs += [one, two]
    # n * samples is held near a fixed budget, so that the sampler's time and
    # its batch arrays (samples x n) do not grow with the seed's choice of n
    for kind, r, n_range, budget in (("tree", 1, s["clt_tree_n"], s["clt_tree_work"]),
                                     ("path", 2, s["clt_path_n"], s["clt_path_work"])):
        for n in _grid(vary, *n_range, 2):
            samples = round(budget / n)
            reqs.append(_call(
                "oracle", "clt_check", (n, r, samples),
                {"type": "clt", "samples": samples},
                kwargs={"kind": kind}, gen_seed=vary.getrandbits(63),
            ))
    return reqs


_FAMILIES = ("B", "Beq", "F1", "F2", "L", "Leq", "sigma")


def _series_tables(pick, vary, s, t2):
    reqs = []

    def add(family, r, order):
        fmt = pick.choice(("human", "csv"))
        argv = ["table", "series-coefficients", "--family", family,
                "--order", str(order), "--format", fmt]
        if r is not None:
            argv += ["--r", str(r)]
        reqs.append(_cli(argv, 1, {"type": "series", "family": family, "r": r,
                                    "order": order, "format": fmt}))

    for family in (*_FAMILIES, "H"):
        orders = s["h_orders"] if family == "H" else s["orders"]
        for r in (1, 2, 3):
            for order in _grid(vary, *orders, s["series_grid"]):
                add(family, r, order)
    for order in _grid(vary, *s["bt_orders"], 2):
        add("branch-total", None, order)
    return reqs


_BUILDERS = {
    "closed-forms": _closed_forms,
    "crossval": _crossval,
    "series-tables": _series_tables,
}


def generate(workload, seed, scale="full", part=0):
    """Request list `part` of a workload; the same seed gives the same lists.

    Every list of a workload has the same slots: request ``slot`` of every
    part is the same request (quantity, r, method, threads, format are
    drawn once per seed) up to the jitter of its size, which is drawn per
    part, so latencies can be compared slot by slot across passes.
    Requests are then shuffled into a per-part order and numbered; a check
    that refers to another request (asymptotic twin, 1-vs-2-thread twin)
    refers to it by number.
    """
    pick = random.Random(f"{workload}:{seed}")
    vary = random.Random(f"{workload}:{seed}:{part}")
    t2 = min(2, _nproc())
    reqs = _BUILDERS[workload](pick, vary, _SCALES[scale], t2) + _probes(t2)
    for slot, q in enumerate(reqs):
        q["slot"] = slot
    vary.shuffle(reqs)
    index = {id(q): i for i, q in enumerate(reqs)}
    for i, q in enumerate(reqs):
        q["id"] = i
        for key in ("pair", "twin"):
            if key in q["check"]:
                q["check"][key] = index[id(q["check"][key])]
    return reqs


def useful_backends(argv):
    """Backends whose values a table or figure request prints or checks;
    None means every backend it computes (a --check request)."""
    if argv[0] == "figure":
        return {"exact", "asym"}
    if argv[1] == "series-coefficients":
        return {"series"}
    if "--check" in argv:
        return None
    if argv[1] == "rdeg-dist":
        return {"exact"}
    method = argv[argv.index("--method") + 1] if "--method" in argv else "exact"
    return {method}
