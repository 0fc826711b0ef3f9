"""Run one benchmark workload against the redcalc sources of this checkout.

    python3 perfbench/run.py --workload closed-forms --seed 1 --seconds 36 --trace 0

A single in-process client sends seeded request lists in a closed loop
(the next request starts when the previous one returned), through
``redcalc.cli.main`` with stdout captured and through public functions of
``redcalc.exact`` and ``redcalc.oracle``.  Each pass sends one list, pass k
the workload's list k for the seed, while another pass still fits in
``--seconds``; at least one pass always runs.  Outputs are checked after
the timed region.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       time to finish one request list
  req_p50_ms   median request latency
  req_tail_ms  highest latency percentile with at least 10 requests beyond
  setup_s      median, over fresh interpreters started before the first
               pass and after each pass, of importing redcalc and running
               one warm-up request; not part of wall_s
  peak_rss_mb  peak resident memory of this process
All lists of a workload have the same slots (see workloads.generate); each
slot's latency is its fastest execution over the passes (see
slot_latencies), and the first three timings are the sum, the median and
the tail percentile of the slot latencies.  failed_frac, the percentile
used for req_tail_ms and the request count are printed and stored in the
result file as well.

--trace 1 sends each list twice, traced and then untraced, and reports the
per-layer metrics (see tracer.py); counts come from the first traced pass,
times are medians over traced passes, and trace.overhead_frac compares the
traced with the untraced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the full record (git
SHA, Python and numpy versions, nproc, seed, benchmark code hash) goes to
--out, by default .perfbench/results/ in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
LAYER_MODULES = ("cli", "exact", "series", "oracle", "trees", "paths", "asym", "special")
SETUP_REPEATS = 2

_SETUP_CHILD = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import redcalc
from redcalc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0), code, redcalc.__file__)
"""


def bench_hash():
    """Hash of the benchmark's code (not its tests or BENCHMARK.json)."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _import_redcalc():
    if not (SRC / "redcalc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no redcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = {name: importlib.import_module(f"redcalc.{name}") for name in LAYER_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: imported redcalc from {origin}, not {SRC}")
    return mods


def measure_setup(argv, repeats):
    """Seconds to import redcalc and run one request, in fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        fields = out.stdout.split()
        if out.returncode != 0 or len(fields) != 3 or fields[1] != "0":
            raise SystemExit(f"perfbench: setup run failed: {out.stderr.strip()[-500:]}")
        if SRC.resolve() not in Path(fields[2]).resolve().parents:
            raise SystemExit(f"perfbench: setup imported redcalc from {fields[2]}")
        times.append(float(fields[0]))
    return times


def execute(req, mods):
    """(exit code, output text) of one request; exit code None if it raised."""
    try:
        if req["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = mods["cli"].main(list(req["argv"]))
            except SystemExit as e:  # argparse rejects the arguments
                code = e.code if isinstance(e.code, int) else 1
            return code, out.getvalue() if code == 0 else err.getvalue()
        args = list(req["args"])
        if "gen_seed" in req:
            args.append(mods["oracle"].SeededGenerator(req["gen_seed"]))
        fn = getattr(mods[req["module"]], req["func"])
        result = fn(*args, **req.get("kwargs", {}))
        return 0, repr(result.item() if hasattr(result, "item") else result)
    except Exception as e:  # a failing request is a result to count, not a crash
        return None, f"{type(e).__name__}: {e}"


def run_pass(requests, mods, tracer=None):
    perf = time.perf_counter
    latencies, outputs = [], []
    if tracer:
        tracer.begin_pass()
    start = perf()
    for req in requests:
        if tracer:
            tracer.begin_request(req["id"])
        t0 = perf()
        outputs.append(execute(req, mods))
        latencies.append(perf() - t0)
        if tracer:
            tracer.end_request()
    wall = perf() - start
    return dict(requests=requests, wall=wall, latencies=latencies, outputs=outputs,
                traced=tracer is not None, trace=tracer.end_pass() if tracer else None)


def measure(lists, mods, seconds, tracer=None, on_traced=None, between=None):
    """Passes while the next one still fits in `seconds` of pass time; pass
    k sends lists(k).  At least one pass runs; between() runs after each.

    With a tracer, each list is sent twice in a row, traced and then
    untraced, and at least one such pair runs; on_traced(pass) digests each
    traced pass right away so that its spans need not stay in memory.
    """
    passes = []
    while True:
        if tracer is None:
            passes.append(run_pass(lists(len(passes)), mods))
        else:
            requests = lists(len(passes) // 2)
            tracer.install()
            try:
                p = run_pass(requests, mods, tracer)
            finally:
                tracer.remove()
            on_traced(p)
            passes += [p, run_pass(requests, mods)]
        if between:
            between()
        walls = [p["wall"] for p in passes]
        if sum(walls) + max(walls) > seconds:
            return passes


def evaluate(passes):
    """(attempted, failed, failure messages) over all passes.

    A request execution fails when it raised or exited nonzero, or when its
    output fails its check.  A traced pass and the untraced pass of the
    same list must also give the same outputs.
    """
    from perfbench.checks import check_outputs

    attempted = failed = 0
    messages = {}
    for k, p in enumerate(passes):
        problems = check_outputs(p["requests"], p["outputs"])
        if not p["traced"] and k and passes[k - 1]["traced"]:
            for req, out, ref in zip(p["requests"], p["outputs"], passes[k - 1]["outputs"]):
                if out != ref:
                    problems.setdefault(req["id"], "output differs from the traced pass")
        attempted += len(p["requests"])
        failed += len(problems)
        for rid, msg in problems.items():
            messages.setdefault(f"{k}.{rid}", msg)
    return attempted, failed, messages


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    ok = [p for p in range(50, 100) if n * (100 - p) / 100 >= 10]
    return ok[-1] if ok else 50


def slot_latencies(passes):
    """Latency of each list slot: the fastest of its executions over the passes.

    Slot i of every pass's list is the same kind of request at the same
    size grid point.  On a shared host other tenants slow the CPU down for
    tens of seconds at a time and never speed it up, so the fastest
    execution is the steadiest estimate of what the request costs; medians
    over passes follow the host's state instead.
    """
    by_slot = {}
    for p in passes:
        for req, lat in zip(p["requests"], p["latencies"]):
            by_slot.setdefault(req["slot"], []).append(lat)
    return [min(v) for _, v in sorted(by_slot.items())]


def latency_metrics(passes):
    """wall_s, req_p50_ms, req_tail_ms and the tail percentile, from the
    slot latencies: wall_s is their sum, the time to finish one list."""
    slots = slot_latencies(passes)
    ranked = sorted(slots)
    pct = tail_percentile(len(ranked))
    tail = ranked[max(math.ceil(pct / 100 * len(ranked)) - 1, 0)]
    return sum(slots), statistics.median(slots) * 1e3, tail * 1e3, pct


def run_workload(workload, seed, seconds, trace, scale="full", setup_repeats=SETUP_REPEATS):
    """Run one workload and return the full result record."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    mods = _import_redcalc()
    import numpy

    from perfbench import tracer as tracing
    from perfbench import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    setup = measure_setup(workloads.WARMUP_ARGV, setup_repeats)

    def more_setup():
        # spread over the run, so that the median sees the machine's
        # typical speed rather than one moment of it
        setup.extend(measure_setup(workloads.WARMUP_ARGV, 1))

    code, text = execute({"kind": "cli", "argv": list(workloads.WARMUP_ARGV)}, mods)
    if code != 0:
        raise SystemExit(f"perfbench: warm-up request failed: {text.strip()}")

    def lists(part):
        return workloads.generate(workload, seed, scale, part)

    metrics, extra = {}, {}
    if trace:
        tracer = tracing.Tracer(mods)
        layer_runs, accounts, kept = [], [], {}

        def digest(p):
            layers = tracing.analyze(tracer, p["trace"], p["requests"])
            program = sum(v for k, v in layers.items()
                          if k.endswith(".self_s") and not k.startswith("bench."))
            accounts.append(dict(traced_wall_s=p["wall"], layer_self_sum_s=program,
                                 bench_remainder_s=p["wall"] - program,
                                 spans=len(p["trace"]["spans"]["sid"])))
            layer_runs.append(layers)
            if not kept:
                kept.update(p["trace"]["spans"], names=tracer.names,
                            roots=sorted(p["trace"]["roots"].items()))
            p["trace"] = None

        passes = measure(lists, mods, seconds, tracer, digest)
        traced = [p["wall"] for p in passes if p["traced"]]
        plain = [p["wall"] for p in passes if not p["traced"]]
        for key in layer_runs[0]:
            timed = key.endswith("_s") or key == "oracle.thread_speedup"
            metrics[key] = (statistics.median([r[key] for r in layer_runs]) if timed
                            else layer_runs[0][key])
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
        # per traced pass: the layers' self times plus the benchmark's own
        # remainder (its loop and the time outside request spans) = pass wall
        extra.update(accounting=accounts, spans_file=_write_spans(workload, kept))
    else:
        passes = measure(lists, mods, seconds, between=more_setup)
        wall, p50, tail, pct = latency_metrics(passes)
        metrics.update(
            wall_s=wall,
            req_p50_ms=p50,
            req_tail_ms=tail,
            setup_s=statistics.median(setup),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        extra.update(req_tail_pct=pct)
    attempted, failed, messages = evaluate(passes)
    metrics["failed_frac"] = failed / attempted
    return dict(
        workload=workload, seed=seed, seconds=seconds, trace=int(bool(trace)), scale=scale,
        correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics,
        requests=len(passes[0]["requests"]), passes=len(passes),
        pass_walls=[p["wall"] for p in passes], setup_samples=setup,
        latencies=[p["latencies"] for p in passes],
        failures=messages,
        git_sha=_git_sha(), python=platform.python_version(), numpy=numpy.__version__,
        nproc=workloads._nproc(), bench_hash=bench_hash(), time=time.time(), **extra,
    )


def _write_spans(workload, kept):
    import numpy as np

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}.npz"
    roots = np.array(kept.pop("roots"), dtype=np.int64).reshape(-1, 2)
    names = np.array(kept.pop("names"))
    np.savez(path, names=names, request_roots=roots, **kept)
    return str(path.relative_to(ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: .perfbench/results/...)")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small request sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = load_spec()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.scale)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    units["failed_frac"] = "1"
    for name, value in result["metrics"].items():
        print(f"{name:28s} {value!r:>24} {units.get(name, '')}")
    if args.trace:
        for k, a in enumerate(result["accounting"]):
            print(f"traced pass {k}: wall {a['traced_wall_s']:.4f} s = layer self times "
                  f"{a['layer_self_sum_s']:.4f} s + benchmark remainder "
                  f"{a['bench_remainder_s']:.4f} s ({a['spans']} spans)")
    else:
        print(f"{'req_tail_ms percentile':28s} {result['req_tail_pct']:>24} "
              f"of {result['requests']} requests (fastest of "
              f"{result['passes']} passes)")
    for rid, msg in result["failures"].items():
        print(f"FAILED pass.request {rid}: {msg}")

    out = Path(args.out) if args.out else OUT_DIR / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    last = {name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in ((m["name"], m["unit"]) for m in wanted)}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": last}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
