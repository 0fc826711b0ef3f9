"""Compare benchmark results of a parent and a change.

    python3 perfbench/compare.py run --parent DIR --change DIR --out DIR \
        [--workloads closed-forms,crossval] [--pairs 10] [--seed0 1000] [--trace 0]
    python3 perfbench/compare.py report PARENT_RESULTS CHANGE_RESULTS

``run`` runs ``perfbench/run.py`` in two checkouts, pair by pair, with the
same seed on both sides of a pair and alternating which side goes first,
writes the result files under OUT/parent and OUT/change, then reports.
``report`` reads two directories of result files.  Files whose benchmark
code hash differs are refused, since their numbers are not comparable.

Per workload and metric it prints each side's median and quartiles, the
pairs the change won, and a label (rules of choosing-metrics 6.5 and 8):
  improved    the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  unresolved  the parent's own spread (IQR/median) exceeds the bound, and
              not every change run reads better than every parent run
  regressed   the change's median is worse than the parent's by more than
              the bound (for unbounded per-layer metrics: the parent wins
              9/10 of the pairs by more than its interquartile range)
  unchanged   otherwise
Bounds come from BENCHMARK.json; failed_frac gets a bound of 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def label(pairs, better, bound):
    """Label of one metric from (parent, change) value pairs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - a) > 0: b is worse
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pm, cm = statistics.median(parent), statistics.median(change)
    lo, hi = _quartiles(parent)
    iqr = hi - lo
    n = len(pairs)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    if wins >= 0.9 * n and sign * (pm - cm) > iqr:
        return "improved", wins
    if bound is None:
        regressed = losses >= 0.9 * n and sign * (cm - pm) > iqr
        return ("regressed" if regressed else "unchanged"), wins
    scale = abs(pm) if pm else 1.0
    if iqr / scale > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return ("unchanged" if all_better else "unresolved"), wins
    return ("regressed" if sign * (cm - pm) / scale > bound else "unchanged"), wins


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        runs.append(json.loads(path.read_text()))
    if not runs:
        raise SystemExit(f"compare: no result files in {directory}")
    return runs


def report(parent_runs, change_runs, spec):
    hashes = {r["bench_hash"] for r in parent_runs + change_runs}
    if len(hashes) > 1:
        raise SystemExit(f"compare: results come from different benchmark code {sorted(hashes)}")
    settings = {(r["seconds"], r["scale"]) for r in parent_runs + change_runs}
    if len(settings) > 1:
        raise SystemExit(f"compare: results use different run settings {sorted(settings)}")
    metrics = {m["name"]: (m["better"], m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]}
    metrics["failed_frac"] = ("lower", 0.0)
    by_key = defaultdict(dict)
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for r in runs:
            by_key[(r["workload"], r["trace"])].setdefault(r["seed"], {})[side] = r
    lines, rows = [], []
    for (workload, trace), seeds in sorted(by_key.items()):
        paired = [s for s in seeds.values() if len(s) == 2]
        if not paired:
            continue
        lines.append(f"{workload} (trace {trace}, {len(paired)} pairs)")
        for name, (better, bound) in metrics.items():
            if name not in paired[0]["parent"]["metrics"]:
                continue
            pairs = [(s["parent"]["metrics"][name], s["change"]["metrics"][name]) for s in paired]
            verdict, wins = label(pairs, better, bound)
            p_lo, p_hi = _quartiles([p for p, _ in pairs])
            c_lo, c_hi = _quartiles([c for _, c in pairs])
            pm = statistics.median(p for p, _ in pairs)
            cm = statistics.median(c for _, c in pairs)
            rows.append(dict(workload=workload, trace=trace, metric=name, label=verdict,
                             parent=[p_lo, pm, p_hi], change=[c_lo, cm, c_hi], wins=wins,
                             pairs=len(pairs)))
            lines.append(f"  {name:28s} parent {pm:<12.6g} [{p_lo:.6g}, {p_hi:.6g}]  "
                         f"change {cm:<12.6g} [{c_lo:.6g}, {c_hi:.6g}]  "
                         f"wins {wins}/{len(pairs)}  {verdict}")
    return lines, rows


def run_pairs(args):
    out = Path(args.out).resolve()
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        seed = args.seed0 + i
        for workload in args.workloads.split(","):
            for side in order:
                dest = out / side / f"{workload}-seed{seed}-trace{args.trace}.json"
                dest.parent.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(dest)]
                done = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      timeout=900)
                if done.returncode != 0:
                    raise SystemExit(f"compare: {side} run failed:\n{done.stderr[-2000:]}")
                print(f"pair {i} {workload} {side} done", flush=True)
    return out / "parent", out / "change"


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report")
    p.add_argument("parent_results")
    p.add_argument("change_results")
    args = parser.parse_args(argv)
    if args.mode == "run":
        parent_dir, change_dir = run_pairs(args)
    else:
        parent_dir, change_dir = args.parent_results, args.change_results
    lines, _ = report(load(parent_dir), load(change_dir), spec)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
