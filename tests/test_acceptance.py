"""Acceptance gate: nine end-to-end criteria, one printed verdict line each.

Run with -s to see the verdict lines as they happen.  Criteria 2-5 and 7
run the groups of ``redcalc verify`` (``redcalc.verify._verify_*``) at the
``--full`` scale and list every failure a group yields, where the command
reports only the first of each group; criteria 3 and 4 share one
exhaustive scan, as one verify run does.

Criterion 5 contains one sub-check (the order-2 expansion of the r-branch
mean at n=100, r=3) whose stated tolerance is not attainable: the dropped
term of the expansion scales like 4^{3r}/n^3, which at r=3 and n=100 is
~4e-3 against a 1e-3 budget.  The check is asserted as stated and fails
honestly; the residual really does decay like n^-3, it just has a large
constant at r=3.
"""

import math
import time
from fractions import Fraction

import pytest

from redcalc import asym, cli, series, verify
from redcalc.cli import figure_rows
from redcalc.special import gamma_c, zeta_c


def _verdict(num, name, failures, elapsed, budget):
    ok = not failures and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    extra = f" ({elapsed:.1f}s of {budget:.0f}s budget)"
    if failures:
        extra += " :: " + "; ".join(failures)
    print(f"criterion {num} [{name}]: {status}{extra}")
    assert ok, f"criterion {num} [{name}]: " + "; ".join(failures)


GOLDEN_B = {
    1: (1, 1, 2, 4, 8, 16, 32, 64, 128, 256),
    2: (1, 1, 2, 5, 14, 42, 132, 428, 1416, 4744),
    3: (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862),
}
GOLDEN_L = {
    1: (0, 4, 16, 64, 192, 512, 1280, 3072, 7168, 16384),
    2: (0, 4, 16, 64, 256, 1024, 4096, 16384, 65280, 258048),
    3: (0, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144),
}
GOLDEN_H = {
    0: {
        1: {1: 4}, 2: {2: 16}, 3: {3: 64}, 4: {4: 256}, 5: {5: 1024},
        6: {6: 4096}, 7: {7: 16384}, 8: {8: 65536}, 9: {9: 262144},
    },
    1: {
        2: {1: 16}, 3: {1: 64}, 4: {2: 64, 1: 192}, 5: {2: 512, 1: 512},
        6: {3: 256, 2: 2560, 1: 1280}, 7: {3: 3072, 2: 10240, 1: 3072},
        8: {4: 1024, 3: 21504, 2: 35840, 1: 7168},
        9: {4: 16384, 3: 114688, 2: 114688, 1: 16384},
    },
    2: {
        4: {1: 64}, 5: {1: 512}, 6: {1: 2816}, 7: {1: 13312},
        8: {2: 256, 1: 58112}, 9: {2: 4096, 1: 241664},
    },
    3: {8: {1: 256}, 9: {1: 4096}},
}


def test_criterion_1_golden_series():
    start = time.perf_counter()
    failures = []
    for r, want in GOLDEN_B.items():
        if series.b_r_series(r, 9).c != want:
            failures.append(f"B_{r} coefficients differ")
    for r, want in GOLDEN_L.items():
        if series.l_r_series(r, 9).c != want:
            failures.append(f"L_{r} coefficients differ")
    for r, want in GOLDEN_H.items():
        h = series.h_r_bivariate(r, 9)
        for n in range(10):
            row = {m: c for m, c in h.row(n).items() if c}
            if row != want.get(n, {}):
                failures.append(f"H_{r} row z^{n} differs")
    _verdict(1, "golden series", failures, time.perf_counter() - start, 5)


def test_criterion_2_identities():
    start = time.perf_counter()
    failures = list(verify._verify_identities(64))
    _verdict(2, "identities to order 64", failures, time.perf_counter() - start, 10)


@pytest.fixture(scope="module")
def oracle_stats():
    """The exhaustive scan that criteria 3 and 4 share, and its time, which
    each of them counts against its budget."""
    start = time.perf_counter()
    stats = verify._oracle_stats(12, 10)
    return stats, time.perf_counter() - start


def test_criterion_3_three_way_cross_validation(oracle_stats):
    (trees, paths), scan_s = oracle_stats
    start = time.perf_counter() - scan_s
    failures = list(verify._verify_three_way(trees, paths))
    _verdict(3, "three-way cross-validation", failures, time.perf_counter() - start, 300)


def test_criterion_4_bounds_and_sharpness(oracle_stats):
    (trees, paths), scan_s = oracle_stats
    start = time.perf_counter() - scan_s
    failures = list(verify._verify_bounds(trees, paths, 4096))
    _verdict(4, "bounds, sharpness, extremal objects", failures, time.perf_counter() - start, 120)


def test_criterion_5_asymptotic_residuals():
    start = time.perf_counter()
    failures = list(verify._verify_residuals())
    _verdict(5, "asymptotic-vs-exact residuals", failures, time.perf_counter() - start, 120)


def test_criterion_6_figure_regeneration():
    start = time.perf_counter()
    failures = []
    for figure, (x_min, x_max) in (
        ("branches-fluctuation", (2.0, 5.0)),
        ("fringe-fluctuation", (1.0, 4.0)),
    ):
        worst = 0.0
        for x, n, ev, smooth, residual, delta in figure_rows(
            figure, x_min, x_max, 61, 20
        ):
            if n >= 256:
                worst = max(worst, abs(residual - delta))
        if worst > 0.01:
            failures.append(f"{figure} residual-vs-Fourier gap {worst:.2e}")
    _verdict(6, "figure regeneration", failures, time.perf_counter() - start, 300)


def test_criterion_7_distributional_claims():
    start = time.perf_counter()
    failures = list(verify._verify_clt(42, 100000, 1000))
    _verdict(7, "normal-limit sampling checks", failures, time.perf_counter() - start, 300)


def test_criterion_8_special_functions():
    start = time.perf_counter()
    failures = []
    for s in (2.5, 0.5 + 9j, -1.5 + 40j):
        if abs(gamma_c(s + 1) - s * gamma_c(s)) > 1e-10 * abs(gamma_c(s + 1)):
            failures.append(f"gamma recurrence fails at {s}")
    if abs(zeta_c(2) - math.pi**2 / 6) > 1e-12:
        failures.append("zeta(2) wrong")
    if abs(zeta_c(-1) + Fraction(1, 12)) > 1e-12:
        failures.append("zeta(-1) wrong")
    if abs(zeta_c(-1, 1).real + 0.1654211437) > 1e-9:
        failures.append("zeta'(-1) outside 1e-9")
    for family in ("branches-total", "rdeg-mean", "rdeg-var", "fringe-total"):
        f = asym.fluctuation(family, 20)
        mean = sum(f(j / 512) for j in range(512)) / 512
        if abs(mean) > 1e-8:
            failures.append(f"{family} fluctuation period mean {mean:.2e}")
        import cmath

        for x in (0.2, 0.8):
            acc = 0j
            for k, c in enumerate(f.coeffs, start=1):
                e = cmath.exp(2j * math.pi * k * x)
                acc += c * e + c.conjugate() / e
            if abs(acc.imag) > 1e-10:
                failures.append(f"{family} imaginary residue {abs(acc.imag):.2e}")
    _verdict(8, "special functions and fluctuations", failures, time.perf_counter() - start, 5)


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    reports = []
    for threads in (1, 8):
        target = tmp_path / f"verify-{threads}.txt"
        cli.main(
            [
                "verify", "--full", "--seed", "42",
                "--threads", str(threads), "--out", str(target),
            ]
        )
        reports.append(target.read_bytes())
    if reports[0] != reports[1]:
        failures.append("verify --full reports differ between 1 and 8 threads")
    _verdict(9, "thread-count determinism", failures, time.perf_counter() - start, 600)
