"""Correctness checks on request outputs, run after the timed region.

Each check compares an output with a value computed by another route:
large-n closed forms against the asymptotic expansions at the tolerances of
acceptance criterion 5 (1e-3 for the r-branch and r-th fringe means, 0.01
for the totals and the reduction-degree mean), figures at criterion 6's
0.01, small-n values against the closed forms in ``redcalc.exact``, series
coefficients against closed forms that do not use the series code (or the
oracle, for F2), and Kolmogorov-Smirnov distances against a sample-size
dependent bound.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache

from redcalc import asym, exact, oracle

__all__ = ["check_outputs"]

# Kolmogorov critical value at the 0.1% level is 1.95/sqrt(samples); 0.02 is
# the model-error allowance that `verify` and criterion 7 use.
KS_ALLOWANCE = 0.02
KS_CRITICAL = 1.95

_ASYM = {
    "rdeg-mean": (lambda n, r: asym.asy_rdeg(n, 20, "mean").value, 0.01),
    "fringe-total-mean": (lambda n, r: asym.asy_total_fringe_mean(n, 20).value, 0.01),
    "branches-total-mean": (lambda n, r: asym.asy_total_branches_mean(n, 20).value, 0.01),
    "r-branches-mean": (lambda n, r: asym.asy_r_branch_mean(n, r).value, 1e-3),
    "fringe-mean": (lambda n, r: asym.asy_fringe(n, r, "mean").value, 1e-3),
}

_EXACT = {
    "rdeg-mean": lambda n, r: exact.expected_rdeg(n),
    "fringe-total-mean": lambda n, r: exact.expected_total_fringe(n),
    "branches-total-mean": lambda n, r: exact.expected_total_branches(n),
    "r-branches-mean": exact.expected_r_branches,
    "fringe-mean": exact.expected_fringe,
}


def _parse_value(text):
    """A Fraction from the human table format, an exact-call repr or a float."""
    text = text.strip()
    m = re.fullmatch(r"Fraction\((-?\d+), (\d+)\)", text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"(-?\d+)/(\d+) \(.*\)", text)
    if m:
        return Fraction(int(m.group(1)), int(m.group(2)))
    if re.fullmatch(r"-?\d+", text):
        return Fraction(int(text))
    return float(text)


def _parse_dist(text):
    rows = {}
    for line in text.strip().splitlines():
        m = re.fullmatch(r"r=(\d+): (\d+)/(\d+)", line)
        if not m:
            raise ValueError(f"unparsable distribution row {line!r}")
        rows[int(m.group(1))] = (int(m.group(2)), int(m.group(3)))
    return rows


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _register_at_least(n, p):
    """Trees of size n with register >= p (Flajolet-Raoult-Vuillemin)."""
    acc, k = 0, 1
    while (k << p) <= n + 1:
        m = k << p
        acc += _comb(2 * n, n + 1 - m) - 2 * _comb(2 * n, n - m) + _comb(2 * n, n - 1 - m)
        k += 1
    return acc


def _sigma_iterate_coeff(n, r):
    """[z^n] of the r-fold sigma iterate: with z = u/(1+u)^2 it equals
    u^(2^r)/(1+u^(2^r))^2, and Lagrange inversion gives
    [z^n] u^k = (k/n) C(2n, n-k)."""
    if n == 0:
        return 0
    step = 1 << r
    acc, j = 0, 1
    while j * step <= n:
        acc += (-1) ** (j - 1) * j * j * step * math.comb(2 * n, n - j * step)
        j += 1
    q, rem = divmod(acc, n)
    if rem:
        raise ArithmeticError("non-integral sigma coefficient")
    return q


def _count_rdeg(n, r):
    return exact.count_paths_rdeg(n, r) if n >= 1 else 0


@lru_cache(maxsize=None)
def _tree_second_moment(n, r):
    return oracle.tree_stats(n, r_max=r).per_r[r].factorial_moment_sum()


def _series_expected(family, r, n):
    """Coefficient [z^n] of a family, or None if no independent route at n."""
    if family == "B":
        return _catalan(n) - _register_at_least(n, r + 1)
    if family == "Beq":
        return _register_at_least(n, r) - _register_at_least(n, r + 1)
    if family == "F1":
        return _catalan(n) * exact.expected_r_branches(n, r)
    if family == "F2":
        return _tree_second_moment(n, r) if n <= 8 else None
    if family == "L":
        return sum(_count_rdeg(n, j) for j in range(r + 1))
    if family == "Leq":
        return _count_rdeg(n, r)
    if family == "sigma":
        return _sigma_iterate_coeff(n, r)
    if family == "branch-total":
        return _catalan(n) * exact.expected_total_branches(n)
    if family == "H":
        # first moment in v: the summed r-th fringe size over all paths
        return 4**n * exact.expected_fringe(n, r) if n >= 1 else 0
    raise ValueError(f"unknown family {family!r}")


def _parse_series(text, family, fmt, order):
    """Coefficients per n: ints, or {v-degree: int} rows for H."""
    lines = text.strip().splitlines()
    if family == "H":
        rows = [{} for _ in range(order + 1)]
        if fmt == "csv":
            for line in lines[1:]:
                _, _, n, m, c = line.split(",")
                rows[int(n)][int(m)] = int(c)
            return rows
        for n, line in enumerate(lines):
            body = line.split("] ", 1)[1]
            for term in body.split(" + "):
                m = re.fullmatch(r"(-?\d+)(?:v(?:\^(\d+))?)?", term)
                degree = 0 if "v" not in term else int(m.group(2) or 1)
                if int(m.group(1)):
                    rows[n][degree] = int(m.group(1))
        return rows
    if fmt == "csv":
        return [int(line.rsplit(",", 1)[1]) for line in lines[1:]]
    return [int(x) for x in lines[0].split(", ")]


def _check_series(c, text):
    coeffs = _parse_series(text, c["family"], c["format"], c["order"])
    order = c["order"]
    if len(coeffs) != order + 1:
        return f"{len(coeffs)} coefficients for order {order}"
    probe = sorted({1, 2, 5, 8, order // 3, 2 * order // 3, order} - {0})
    checked = 0
    for n in (k for k in probe if k <= order):
        want = _series_expected(c["family"], c["r"], n)
        if want is None:
            continue
        got = coeffs[n]
        if c["family"] == "H":
            got = sum(m * a for m, a in got.items())
        if got != want:
            return f"[z^{n}] is {got}, independent value {want}"
        checked += 1
    return None if checked else "no coefficient checked"


def _check_closed(c, value):
    n, r, quantity = c["n"], c["r"], c["quantity"]
    if quantity == "rdeg-dist":
        total = sum(num for num, _ in value.values())
        if total != 4**n or any(den != 4**n for _, den in value.values()):
            return f"distribution does not sum to 4^{n}"
        value = Fraction(sum(k * num for k, (num, _) in value.items()), 4**n)
        quantity = "rdeg-mean"
    ref, tol = _ASYM[quantity]
    diff = abs(float(value) - ref(n, r))
    return f"asymptotic residual {diff:.3g} > {tol:g}" if diff > tol else None


def _check_scalar(c, text):
    n, r = c["n"], c["r"]
    if c["quantity"] == "rdeg-dist":
        got = {k: num for k, (num, _) in _parse_dist(text).items()}
        want = {k: _count_rdeg(n, k) for k in range(n.bit_length())}
        want = {k: v for k, v in want.items() if v}
        return None if got == want else f"distribution {got} != {want}"
    got, want = _parse_value(text), _EXACT[c["quantity"]](n, r)
    return None if got == want else f"{got} != closed form {want}"


def _check_figure(text):
    lines = text.strip().splitlines()
    if len(lines) < 2:
        return "no figure rows"
    for line in lines[1:]:
        _, n, _, _, residual, delta = line.split(",")
        if int(n) >= 256 and abs(float(residual) - float(delta)) > 0.01:
            return f"residual-vs-Fourier gap {abs(float(residual) - float(delta)):.3g}"
    return None


def _check_one(req, text, texts):
    c = req["check"]
    kind = c["type"]
    if kind == "closed":
        value = _parse_dist(text) if c["quantity"] == "rdeg-dist" else _parse_value(text)
        return _check_closed(c, value)
    if kind == "asym-pair":
        sibling = texts[c["pair"]]
        if sibling is None:
            return "exact sibling request failed"
        diff = abs(float(text) - float(_parse_value(sibling)))
        tol = _ASYM[c["quantity"]][1]
        return f"asymptotic vs exact {diff:.3g} > {tol:g}" if diff > tol else None
    if kind == "asym-abs":
        diff = abs(float(text) - float(_EXACT[c["quantity"]](c["n"], c["r"])))
        tol = _ASYM[c["quantity"]][1]
        return f"asymptotic vs exact {diff:.3g} > {tol:g}" if diff > tol else None
    if kind == "scalar":
        if "twin" in c and texts[c["twin"]] != text:
            return "output differs between --threads 1 and --threads 2"
        return _check_scalar(c, text)
    if kind == "clt":
        bound = KS_ALLOWANCE + KS_CRITICAL / math.sqrt(c["samples"])
        ks = float(text)
        return f"KS distance {ks:.4f} > {bound:.4f}" if ks > bound else None
    if kind == "figure":
        return _check_figure(text)
    if kind == "series":
        return _check_series(c, text)
    raise ValueError(f"unknown check {kind!r}")


def check_outputs(requests, outputs):
    """Failure message per request id, for requests that failed.

    ``outputs[i]`` is ``(exit_code, text)`` of request i, with exit_code None
    when the request raised; a nonzero exit code is a failure.
    """
    texts = [text if code == 0 else None for code, text in outputs]
    failures = {}
    for req, (code, text) in zip(requests, outputs):
        if code != 0:
            failures[req["id"]] = f"exit {code}: {text.strip()[:200]}"
            continue
        try:
            problem = _check_one(req, text, texts)
        except (ValueError, IndexError, KeyError, AttributeError, ArithmeticError) as e:
            problem = f"unparsable output ({type(e).__name__}: {e})"
        if problem:
            failures[req["id"]] = problem
    return failures
