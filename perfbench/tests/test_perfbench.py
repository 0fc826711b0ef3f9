"""Tests of the benchmark itself, on the tiny variant of each workload.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import compare, run, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(workload, trace, tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--scale", "tiny",
                         "--out", str(tmp_path / "result.json")])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    lines = _main(workload, trace, tmp_path)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in last["metrics"].items()}
    for m in wanted:
        assert any(re.match(rf"{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}$", line)
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac ") for line in lines)
    record = json.loads((tmp_path / "result.json").read_text())
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "bench_hash"):
        assert key in record


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.generate(workload, 11)
    assert first == workloads.generate(workload, 11)
    assert first != workloads.generate(workload, 12)
    assert all(q["kind"] != "cli" or "--threads" in q["argv"] for q in first)


def _bump_digit(text, last):
    """Change one digit of the output: its last one, or its first nonzero one."""
    spots = [m.start() for m in re.finditer(r"[1-9]" if not last else r"\d", text)]
    i = spots[-1] if last else spots[0]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("workload,check_type", [
    ("closed-forms", "closed"), ("crossval", "scalar"), ("series-tables", "series"),
])
def test_corrupted_result_counts_as_failed(workload, check_type):
    mods = run._import_redcalc()
    passes = run.measure(lambda k: workloads.generate(workload, 5, "tiny", k), mods, 0)
    attempted, failed, _ = run.evaluate(passes)
    assert (attempted, failed) == (len(passes[0]["requests"]), 0)

    outputs = passes[0]["outputs"]
    victim = next(q["id"] for q in passes[0]["requests"] if q["check"]["type"] == check_type)
    code, text = outputs[victim]
    outputs[victim] = (code, _bump_digit(text, last=check_type == "series"))
    # a request whose check compares with the victim (its asymptotic or
    # thread twin) fails as well
    attempted, failed, messages = run.evaluate(passes)
    assert failed >= 1 and f"0.{victim}" in messages
    assert failed / attempted > 0

    outputs[victim] = (None, "RuntimeError: raised")
    _, failed, messages = run.evaluate(passes)
    assert failed >= 1 and messages[f"0.{victim}"].startswith("exit None")


def test_traced_counts_repeat_exactly():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    runs = [run.run_workload("crossval", 4, 0, 1, scale="tiny", setup_repeats=1)
            for _ in range(2)]
    assert [runs[0]["metrics"][k] for k in counts] == [runs[1]["metrics"][k] for k in counts]
    assert runs[0]["metrics"]["oracle.objects"] > 0


def test_tail_percentile_leaves_ten_requests_beyond():
    assert run.tail_percentile(64) == 84
    assert run.tail_percentile(30) == 66
    assert run.tail_percentile(1000) == 99


def test_compare_labels():
    same = [(1.0 + 0.01 * i, 1.0 + 0.01 * i) for i in range(10)]
    assert compare.label(same, "lower", 0.1)[0] == "unchanged"
    faster = [(1.0 + 0.01 * i, 0.5 + 0.01 * i) for i in range(10)]
    assert compare.label(faster, "lower", 0.1)[0] == "improved"
    slower = [(1.0 + 0.01 * i, 1.5 + 0.01 * i) for i in range(10)]
    assert compare.label(slower, "lower", 0.1)[0] == "regressed"
    noisy = [(1.0 + 0.1 * i, 1.0 + 0.1 * (9 - i)) for i in range(10)]
    assert compare.label(noisy, "lower", 0.1)[0] == "unresolved"


def test_compare_refuses_other_benchmark_code():
    base = dict(workload="crossval", trace=0, seed=1, seconds=1.0, scale="full",
                metrics={"wall_s": 1.0})
    with pytest.raises(SystemExit, match="different benchmark code"):
        compare.report([dict(base, bench_hash="a")], [dict(base, bench_hash="b")], SPEC)
