import ast
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import redcalc
from redcalc import cli, exact, oracle, verify
from redcalc.cli import main
from redcalc.paths import STEPS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTree:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "tree", "reduce", "((. .) (. (. .)))")
        assert code == 0
        assert out == "(. .)\n"

    def test_register(self, capsys):
        code, out, _ = run(capsys, "tree", "register", "((. .) (. .))")
        assert code == 0
        assert out == "2\n"

    def test_branches(self, capsys):
        code, out, _ = run(capsys, "tree", "branches", "((. .) (. .))")
        assert code == 0
        assert out == "r=0:4 r=1:2 r=2:1 total:7\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "tree", "register", "((. .)")
        assert code == 2
        assert "redcalc:" in err

    def test_reduce_leaf_is_domain_error(self, capsys):
        code, _, err = run(capsys, "tree", "reduce", ".")
        assert code == 3


class TestPath:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "path", "reduce", "RRUULD")
        assert (code, out) == (0, "RL\n")

    def test_rdeg(self, capsys):
        code, out, _ = run(capsys, "path", "rdeg", "RRUULD")
        assert (code, out) == (0, "2\n")

    def test_fringes(self, capsys):
        code, out, _ = run(capsys, "path", "fringes", "RRUULD")
        assert (code, out) == (0, "6 2 1\n")

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "path", "rdeg", "RRX")
        assert code == 2

    def test_single_step_reduce_is_domain_error(self, capsys):
        code, _, err = run(capsys, "path", "reduce", "R")
        assert code == 3


class TestTable:
    def test_exact_mean(self, capsys):
        code, out, _ = run(
            capsys, "table", "r-branches-mean", "--n", "4", "--r", "1"
        )
        assert code == 0
        assert out.startswith("10/7 ")

    def test_backends_agree(self, capsys):
        for method in ("exact", "series", "oracle"):
            code, out, _ = run(
                capsys, "table", "r-branches-mean",
                "--n", "6", "--r", "1", "--method", method, "--check",
            )
            assert code == 0
            assert out.startswith("21/11")

    def test_series_coefficients_human(self, capsys):
        code, out, _ = run(
            capsys, "table", "series-coefficients",
            "--family", "B", "--r", "2", "--order", "9",
        )
        assert code == 0
        assert out == "1, 1, 2, 5, 14, 42, 132, 428, 1416, 4744\n"

    def test_series_coefficients_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "series-coefficients",
            "--family", "L", "--r", "1", "--order", "5", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0] == {"family": "L", "r": "1", "n": "0", "coeff": "0"}
        assert [r["coeff"] for r in rows] == ["0", "4", "16", "64", "192", "512"]

    def test_bivariate_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "series-coefficients",
            "--family", "H", "--r", "1", "--order", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {(r["n"], r["v_degree"]): r["coeff"] for r in rows}
        assert got[("4", "1")] == "192"
        assert got[("4", "2")] == "64"

    def test_rdeg_dist(self, capsys):
        code, out, _ = run(capsys, "table", "rdeg-dist", "--n", "2", "--check")
        assert code == 0
        assert out == "r=1: 16/16\n"

    def test_rdeg_dist_n4(self, capsys):
        code, out, _ = run(capsys, "table", "rdeg-dist", "--n", "4")
        assert out == "r=1: 192/256\nr=2: 64/256\n"

    def test_csv_value_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "table", "fringe-mean",
            "--n", "10", "--r", "1", "--format", "csv",
        )
        assert code == 0
        (row,) = list(csv.DictReader(io.StringIO(out)))
        assert (row["numerator"], row["denominator"]) == ("11", "4")
        assert float(row["value"]) == 2.75

    def test_asymptotic_method(self, capsys):
        code, out, _ = run(
            capsys, "table", "branches-total-mean",
            "--n", "1024", "--method", "asymptotic",
        )
        assert code == 0
        from redcalc import exact

        want = float(exact.expected_total_branches(1024))
        assert abs(float(out) - want) < 0.01

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("r-branches-mean", "--n", "4"), "--r"),
            (("fringe-mean", "--n", "4"), "--r"),
            (("rdeg-mean",), "--n"),
            (("rdeg-dist",), "--n"),
        ],
    )
    def test_missing_argument_is_domain_error(self, capsys, argv, flag):
        code, out, err = run(capsys, "table", *argv)
        assert (code, out) == (3, "")
        assert err == f"redcalc: table {argv[0]} needs {flag}\n"

    @pytest.mark.parametrize("quantity", ["r-branches-mean", "fringe-mean"])
    @pytest.mark.parametrize("r", ["600", "100000"])
    def test_asymptotic_r_beyond_float_range_is_domain_error(
        self, capsys, quantity, r
    ):
        argv = ["table", quantity, "--n", "5", "--method", "asymptotic", "--r", r]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            f"redcalc: the asymptotic expansions need r < 512, got r = {r}\n"
        )

    @pytest.mark.parametrize(
        "quantity, r, code",
        [
            ("r-branches-mean", "255", 0),
            ("r-branches-mean", "256", 3),
            ("r-branches-mean", "300", 3),
            ("r-branches-mean", "511", 3),
            ("fringe-mean", "511", 0),
        ],
    )
    def test_asymptotic_value_that_overflows_is_domain_error(
        self, capsys, quantity, r, code
    ):
        argv = ["table", quantity, "--n", "5", "--method", "asymptotic", "--r", r]
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == ""
            assert err == (
                f"redcalc: the asymptotic expansion overflows a float at r = {r}\n"
            )
        else:
            assert err == "" and "inf" not in out and "nan" not in out

    @pytest.mark.parametrize(
        "command",
        (
            ("table", "r-branches-mean", "--n", "4", "--r", "1"),
            ("verify", "--quick"),
            ("tree", "register", "(. .)"),
            ("path", "rdeg", "RU"),
            ("figure", "fringe-fluctuation", "--points", "2"),
        ),
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("flag, env", [("0", None), ("-4", None), ("0", "2")])
    def test_threads_below_one_is_domain_error(
        self, capsys, monkeypatch, command, flag, env
    ):
        monkeypatch.delenv("REDCALC_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("REDCALC_THREADS", env)
        code, out, err = run(capsys, *command, f"--threads={flag}")
        assert (code, out) == (3, "")
        assert err == f"redcalc: --threads must be at least 1, got {flag}\n"

    def test_threads_env_is_ignored(self, capsys, monkeypatch):
        argv = ("table", "r-branches-mean", "--n", "4", "--r", "1")
        monkeypatch.delenv("REDCALC_THREADS", raising=False)
        want = run(capsys, *argv)
        monkeypatch.setenv("REDCALC_THREADS", "abc")
        assert run(capsys, *argv) == want == (0, "10/7 (1.428571429)\n", "")

    @pytest.mark.parametrize(
        "command",
        (
            ("tree", "register", "(. .)"),
            ("path", "rdeg", "RU"),
            ("figure", "fringe-fluctuation", "--points", "2"),
            ("verify", "--quick"),
        ),
        ids=lambda argv: argv[0],
    )
    def test_format_is_a_table_option(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--format", "csv"])
        out = capsys.readouterr()
        assert (exc.value.code, out.out) == (2, "")
        assert out.err.endswith(
            "redcalc: error: unrecognized arguments: --format csv\n"
        )

    def test_negative_order_is_domain_error(self, capsys):
        for family in ("B", "H"):
            code, out, err = run(
                capsys, "table", "series-coefficients",
                "--family", family, "--order", "-1",
            )
            assert (code, out) == (3, "")
            assert err == "redcalc: --order must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "family",
        ("B", "Beq", "F1", "F2", "L", "Leq", "H", "sigma", "branch-total"),
    )
    def test_negative_series_r_is_domain_error(self, capsys, family):
        argv = ("table", "series-coefficients", "--family", family, "--order", "5")
        code, out, err = run(capsys, *argv, "--r", "-1")
        if family == "branch-total":
            # the total sums over every r, so it reads no --r
            assert (code, err) == (0, "")
            assert out == run(capsys, *argv, "--r", "1")[1]
        else:
            assert (code, out) == (3, "")
            assert err == "redcalc: r must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("r-branches-mean", "--n", "7", "--r", "1"),
            ("branches-total-mean", "--n", "7"),
            ("rdeg-mean", "--n", "7"),
            ("fringe-mean", "--n", "7", "--r", "2"),
            ("fringe-total-mean", "--n", "7"),
        ],
    )
    def test_only_requested_backend_runs(self, capsys, monkeypatch, argv):
        want = {}
        for method in ("exact", "series"):
            want[method] = run(capsys, "table", *argv, "--method", method)

        def no_scan(*args, **kwargs):
            raise AssertionError("oracle scan without --method oracle")

        monkeypatch.setattr(oracle, "tree_stats", no_scan)
        monkeypatch.setattr(oracle, "path_stats", no_scan)
        for method in ("exact", "series"):
            assert run(capsys, "table", *argv, "--method", method) == want[method]

    @pytest.mark.parametrize("quantity", ["r-branches-mean", "fringe-mean"])
    @pytest.mark.parametrize(
        "method", [("--check",), ("--method", "series"), ("--method", "oracle")]
    )
    def test_huge_r_costs_no_more_than_a_small_one(self, capsys, quantity, method):
        # no size-5 object has an r-branch or r-th fringe for r >= 3
        argv = ["table", quantity, "--n", "5", "--r", "3", *method]
        assert run(capsys, *argv)[:2] == (0, "0\n")
        argv[5] = str(10**5)
        tracemalloc.start()
        try:
            result = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[:2] == (0, "0\n")
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "quantity",
        [
            ("r-branches-mean", "--r", "1"),
            ("fringe-mean", "--r", "1"),
            ("branches-total-mean",),
            ("fringe-total-mean",),
        ],
        ids=lambda quantity: quantity[0],
    )
    def test_asymptotic_n_beyond_float_range(self, capsys, quantity):
        argv = ["table", *quantity, "--method", "asymptotic", "--n", str(10**400)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "redcalc: n is too large for the float arithmetic"
            " of the asymptotic expansions\n"
        )

    def test_asymptotic_rdeg_mean_at_huge_n_is_finite(self, capsys):
        argv = ["table", "rdeg-mean", "--method", "asymptotic", "--n", str(10**400)]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "664.7853623034268\n")

    def test_oracle_respects_cap(self, capsys):
        code, _, err = run(
            capsys, "table", "rdeg-mean",
            "--n", "9", "--method", "oracle", "--cap-paths", "8",
        )
        assert code == 5
        assert err == "redcalc: path enumeration capped at n = 8\n"

    @pytest.mark.parametrize("check", [(), ("--check",)])
    def test_oracle_beyond_cap_is_a_resource_cap(self, capsys, check):
        argv = ["table", "r-branches-mean", "--n", "20", "--r", "1", *check]
        assert run(capsys, *argv, "--method", "oracle") == (
            5, "", "redcalc: tree enumeration capped at n = 15\n"
        )
        # --check with another method skips the oracle beyond its cap
        assert run(capsys, *argv)[:2] == (0, "70/13 (5.384615385)\n")

    def test_rdeg_dist_has_no_asymptotic_backend(self, capsys):
        argv = ("table", "rdeg-dist", "--n", "4", "--method", "asymptotic")
        assert run(capsys, *argv) == (
            3, "", "redcalc: backend 'asymptotic' not applicable"
            " (have ['exact', 'oracle', 'series'])\n"
        )

    @pytest.mark.parametrize(
        "argv, have",
        [
            (("rdeg-dist", "--n", "100", "--method", "asymptotic"),
             "['exact', 'oracle', 'series']"),
            (("rdeg-dist", "--n", "129", "--method", "asymptotic"),
             "['exact', 'oracle', 'series']"),
            (("rdeg-mean", "--n", "200", "--method", "series"),
             "['exact', 'oracle']"),
        ],
        ids=["rdeg-dist-100", "rdeg-dist-129", "rdeg-mean-200"],
    )
    def test_not_applicable_lists_backends_beyond_their_cap(
        self, capsys, argv, have
    ):
        # the list is the quantity's, whatever the caps leave at this n
        assert run(capsys, "table", *argv) == (
            3, "", f"redcalc: backend {argv[-1]!r} not applicable (have {have})\n"
        )

    def test_asymptotic_terms_past_the_first_zero_coefficient(self, capsys):
        argv = (
            "table", "branches-total-mean", "--n", "1000", "--method", "asymptotic"
        )
        want = run(capsys, *argv, "--terms", "400")
        assert want[0] == 0
        assert run(capsys, *argv, "--terms", str(10**6)) == want

    @pytest.mark.parametrize("fmt", ["human", "csv"])
    def test_rdeg_dist_oracle_method(self, capsys, fmt):
        argv = ("table", "rdeg-dist", "--n", "6", "--format", fmt)
        want = run(capsys, *argv)
        assert want[0] == 0
        assert run(capsys, *argv, "--method", "oracle") == want
        assert run(capsys, *argv, "--method", "oracle", "--check") == want
        assert run(capsys, *argv, "--method", "oracle", "--cap-paths", "5") == (
            5, "", "redcalc: path enumeration capped at n = 5\n"
        )

    @pytest.mark.parametrize("method", ["exact", "oracle"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_rdeg_dist_of_no_path_is_domain_error(self, capsys, method, n):
        for quantity in ("rdeg-dist", "rdeg-mean"):
            argv = ("table", quantity, "--n", n, "--method", method)
            assert run(capsys, *argv) == (3, "", "redcalc: need n >= 1\n")

    def test_series_beyond_cap_is_a_resource_cap(self, capsys, monkeypatch):
        argv = ["table", "fringe-mean", "--r", "1", "--n"]
        n = cli.SERIES_N_CAP
        assert cli.SERIES_N_CAP == 128
        want = run(capsys, *argv, str(n), "--method", "series")
        assert want == run(capsys, *argv, str(n), "--check")
        assert want == (0, "129/4 (32.25)\n", "")

        def no_series(n, r):
            raise AssertionError("series backend beyond its cap")

        for argv in (argv, ["table", "rdeg-dist", "--n"]):
            assert run(capsys, *argv, str(n + 1), "--method", "series") == (
                5, "", "redcalc: series backend capped at n = 128\n"
            )
            # --check with another method leaves the series out beyond its cap
            backends = cli.QUANTITIES[argv[1]]["backends"]
            monkeypatch.setitem(backends, "series", no_series)
            code, out, err = run(capsys, *argv, str(n + 1), "--check")
            assert (code, err) == (0, "")
            assert out == run(capsys, *argv, str(n + 1))[1]

    @pytest.mark.parametrize(
        "quantity, value", [("rdeg-dist", {1: 4}), ("branches-total-mean", 3)]
    )
    def test_exact_beyond_cap_is_a_resource_cap(
        self, capsys, monkeypatch, quantity, value
    ):
        n = cli.EXACT_N_CAP
        assert n == 4096
        reached = []

        def exact_backend(n, r):
            reached.append(n)
            return value

        monkeypatch.setitem(
            cli.QUANTITIES[quantity]["backends"], "exact", exact_backend
        )
        # exact is the default method, and past its cap every other backend
        # is capped too, so --check exits 5 as well
        for method in ([], ["--method", "exact"], ["--check"]):
            assert run(capsys, "table", quantity, "--n", str(n + 1), *method) == (
                5, "", "redcalc: exact backend capped at n = 4096\n"
            )
        assert reached == []
        code, _, err = run(capsys, "table", quantity, "--n", str(n))
        assert (code, err, reached) == (0, "", [n])

    @pytest.mark.parametrize(
        "quantity, r_args, want",
        [
            ("branches-total-mean", (), "n=4: exact=48/7, series=55/7, oracle=48/7"),
            ("r-branches-mean", ("--r", "1"),
             "n=4, r=1: exact=10/7, series=17/7, oracle=10/7"),
        ],
        ids=["branches-total-mean", "r-branches-mean"],
    )
    def test_check_names_the_mismatch(
        self, capsys, monkeypatch, quantity, r_args, want
    ):
        backends = cli.QUANTITIES[quantity]["backends"]
        right = backends["series"]
        monkeypatch.setitem(backends, "series", lambda n, r: right(n, r) + 1)
        argv = ("table", quantity, "--n", "4", *r_args, "--check")
        assert run(capsys, *argv) == (
            4, "", f"redcalc: backend mismatch for {quantity} at {want}\n"
        )

    @pytest.mark.parametrize(
        "quantity",
        ["branches-total-mean", "rdeg-mean", "fringe-total-mean", "rdeg-dist"],
    )
    def test_r_for_a_quantity_without_r_is_domain_error(self, capsys, quantity):
        argv = ("table", quantity, "--n", "4", "--r", "1")
        assert run(capsys, *argv) == (
            3, "", f"redcalc: table {quantity} takes no --r\n"
        )

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def broken(n):
            return 1 / 0

        monkeypatch.setattr(exact, "expected_rdeg", broken)
        code, out, err = run(capsys, "table", "rdeg-mean", "--n", "3")
        assert (code, out) == (6, "")
        assert err.startswith("redcalc: internal error: ZeroDivisionError(")
        assert "Traceback (most recent call last)" in err


class TestQuantityTable:
    @pytest.mark.parametrize("quantity", list(cli.QUANTITIES))
    def test_every_method_prints_the_checked_value(self, capsys, quantity):
        spec = cli.QUANTITIES[quantity]
        sizes = range(8) if spec["objects"] == "trees" else range(1, 7)
        for n in sizes:
            for r in range(4) if spec["takes_r"] else (None,):
                argv = ["table", quantity, "--n", str(n)]
                if r is not None:
                    argv += ["--r", str(r)]
                code, want, err = run(capsys, *argv, "--check")
                assert (code, err) == (0, "")
                for method in ("exact", "series", "oracle"):
                    got = run(capsys, *argv, "--method", method)
                    if method in spec["backends"] or method == "oracle":
                        assert got == (0, want, "")
                    else:
                        assert got[:2] == (3, "")
                if "asymptotic" not in spec:
                    got = run(capsys, *argv, "--method", "asymptotic")
                    assert got[:2] == (3, "")

    def test_parser_choices_are_the_table_in_help_order(self):
        parser = cli.build_parser()
        table = parser._subparsers._group_actions[0].choices["table"]
        (quantity,) = [a for a in table._actions if a.dest == "quantity"]
        assert list(quantity.choices) == [
            "r-branches-mean",
            "branches-total-mean",
            "rdeg-dist",
            "rdeg-mean",
            "fringe-mean",
            "fringe-total-mean",
            "series-coefficients",
        ]
        assert list(quantity.choices) == [*cli.QUANTITIES, "series-coefficients"]
        (family,) = [a for a in table._actions if a.dest == "family"]
        assert list(family.choices) == list(cli._SERIES_FAMILIES) == [
            "B", "Beq", "F1", "F2", "L", "Leq", "H", "sigma", "branch-total"
        ]


class TestFigure:
    def test_csv_shape_and_agreement(self, capsys):
        code, out, _ = run(
            capsys, "figure", "branches-fluctuation",
            "--x-min", "4", "--x-max", "5", "--points", "9",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows
        for row in rows:
            n = int(row["n"])
            assert 256 <= n <= 1024
            resid = float(row["residual"])
            delta = float(row["delta_fourier"])
            assert abs(resid - delta) < 0.01

    def test_fourier_terms_saturate(self, capsys):
        _, one, _ = run(
            capsys, "figure", "fringe-fluctuation",
            "--x-min", "3", "--x-max", "4", "--points", "5", "--terms", "1",
        )
        _, many, _ = run(
            capsys, "figure", "fringe-fluctuation",
            "--x-min", "3", "--x-max", "4", "--points", "5", "--terms", "20",
        )
        d1 = [float(r["delta_fourier"]) for r in csv.DictReader(io.StringIO(one))]
        d20 = [float(r["delta_fourier"]) for r in csv.DictReader(io.StringIO(many))]
        assert max(abs(a - b) for a, b in zip(d1, d20)) < 1e-3
        assert any(abs(a - b) > 1e-9 for a, b in zip(d1, d20))

    def test_cap(self, capsys):
        code, _, err = run(
            capsys, "figure", "branches-fluctuation",
            "--x-min", "9", "--x-max", "10", "--points", "3",
        )
        assert code == 5

    @pytest.mark.parametrize("figure", tuple(cli._FIGURES))
    def test_cap_checked_before_any_point(self, capsys, monkeypatch, figure):
        calls = []

        def counted(n, r):
            calls.append(n)
            return 0

        quantity = cli._FIGURES[figure]["quantity"]
        backends = cli.QUANTITIES[quantity]["backends"]
        monkeypatch.setitem(backends, "exact", counted)
        code, out, err = run(capsys, "figure", figure, "--x-max", "8")
        assert (code, out, calls) == (5, "", [])
        assert err == f"redcalc: figure grid capped at n = {cli.EXACT_N_CAP}\n"

    @pytest.mark.parametrize("flag", ("--x-min", "--x-max"))
    @pytest.mark.parametrize("value", ("nan", "inf", "-inf"))
    def test_non_finite_range_is_domain_error(self, capsys, flag, value):
        code, out, err = run(
            capsys, "figure", "fringe-fluctuation", f"{flag}={value}"
        )
        assert (code, out) == (3, "")
        assert err.startswith("redcalc: --x-min and --x-max must be finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "x_range", [("1000", "1001"), ("-1e308", "1e308"), ("3", "1e308")]
    )
    def test_range_beyond_float_is_capped(self, capsys, x_range):
        # 4.0**x overflows past x = 512, and x_max - x_min may overflow to
        # a nan grid point; either way the grid is over the cap
        x_min, x_max = x_range
        code, out, err = run(
            capsys, "figure", "branches-fluctuation",
            f"--x-min={x_min}", f"--x-max={x_max}", "--points", "3",
        )
        assert (code, out) == (5, "")
        assert err == f"redcalc: figure grid capped at n = {cli.EXACT_N_CAP}\n"

    def test_single_point_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "figure", "branches-fluctuation", "--points", "1"
        )
        assert (code, out) == (3, "")
        assert err.startswith("redcalc: ") and err.count("\n") == 1


class TestOut:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "path", "rdeg", "RRUULD", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "2\n"

    def test_unwritable_file_is_domain_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code, out, err = run(
            capsys, "table", "rdeg-mean", "--n", "3", "--out", str(target)
        )
        assert (code, out) == (3, "")
        assert err == f"redcalc: cannot write {target}: No such file or directory\n"


class TestVerify:
    def test_quick_reports_known_honest_failure(self, capsys):
        # every group passes except the asymptotic-residual tolerance, which
        # is genuinely unattainable at its stated scale; see the acceptance
        # suite for the measured residual
        code, out, _ = run(capsys, "verify", "--quick", "--threads", "2")
        lines = out.strip().splitlines()
        status = dict(line.split(": ", 1) for line in lines)
        assert status["identities"] == "PASS"
        assert status["three-way-cross-validation"] == "PASS"
        assert status["bounds-and-sharpness"] == "PASS"
        assert status["clt-sampling"] == "PASS"
        assert status["asymptotic-residuals"].startswith("FAIL")
        assert status["result"] == "FAIL"
        assert code == 1

    def test_quick_scans_each_size_once(self, capsys, monkeypatch):
        calls = {"tree_stats": [], "path_stats": []}
        for name in calls:
            scan = getattr(oracle, name)

            def counted(n, *args, _scan=scan, _calls=calls[name], **kwargs):
                _calls.append(n)
                return _scan(n, *args, **kwargs)

            monkeypatch.setattr(oracle, name, counted)
        code, out, _ = run(capsys, "verify", "--quick", "--threads", "1")
        assert calls == {"tree_stats": list(range(9)), "path_stats": list(range(1, 8))}
        assert code == 1 and out.count("PASS") == 4

    @pytest.mark.parametrize(
        "quantity, backend",
        [(q, b) for q, spec in cli.QUANTITIES.items() for b in spec["backends"]],
    )
    def test_three_way_names_a_wrong_backend(self, quantity, backend, monkeypatch):
        trees, paths = verify._oracle_stats(4, 4)
        assert list(verify._verify_three_way(trees, paths)) == []
        backends = cli.QUANTITIES[quantity]["backends"]
        right = backends[backend]

        def wrong(n, r):
            value = right(n, r)
            if n != 3:
                return value
            if isinstance(value, dict):  # a distribution: one count is off
                return {**value, 1: value[1] + 1}
            return value + 1

        monkeypatch.setitem(backends, backend, wrong)
        problems = list(verify._verify_three_way(trees, paths))
        assert problems
        assert all(
            p.startswith(f"{quantity} {backend} mismatch at n=3") for p in problems
        )

    def test_extremal_check_catches_corrupted_paths(self, monkeypatch):
        levels = oracle._extremal_levels

        def no_long_last(n_max):
            # every digit expands minimally: each row is the path of the
            # level's power of two
            for first, codes, lens in levels(n_max):
                codes[:] = codes[0]
                yield first, codes, np.full_like(lens, first)

        def all_right_steps(n_max):
            # the right lengths, but R^n reduces to one step at once
            for first, codes, lens in levels(n_max):
                codes[:] = STEPS.index("R")
                yield first, codes, lens

        monkeypatch.setattr(oracle, "_extremal_levels", no_long_last)
        problems = list(verify._verify_bounds({}, {}, 512))
        assert problems == ["extremal path fails at n=3"]
        monkeypatch.setattr(oracle, "_extremal_levels", all_right_steps)
        problems = list(verify._verify_bounds({}, {}, 512))
        assert problems == ["extremal path fails at n=4"]

    @pytest.mark.parametrize(
        "pick, field, problem",
        # pick gives (holder, key) of one histogram: a ScanStats field through
        # vars(), or a stored entry of its per_r
        [
            (lambda t, p: (t[3].per_r.stored, 1), "max", "branch bounds not sharp at n=3, r=1"),
            (lambda t, p: (vars(t[4]), "total"), "min", "total branch bounds not sharp at n=4"),
            (lambda t, p: (p[5].per_r.stored, 2), "min", "fringe bounds not sharp at n=5, r=2"),
            (lambda t, p: (vars(p[5]), "total"), "max", "total fringe bounds not sharp at n=5"),
            (lambda t, p: (vars(p[4]), "degree"), "max", "rdeg upper bound not sharp at n=4"),
        ],
        ids=["tree-r-branch", "tree-total", "path-fringe", "path-total", "rdeg"],
    )
    def test_bounds_check_catches_a_corrupted_range(
        self, pick, field, problem, monkeypatch
    ):
        trees, paths = verify._oracle_stats(5, 5)
        assert list(verify._verify_bounds(trees, paths, 1)) == []
        _raise(*pick(trees, paths), field)
        assert next(verify._verify_bounds(trees, paths, 1), None) == problem
        # a second corrupted range, checked before every other: the group
        # yields both in order, and verify reports the first alone
        _raise(trees[1].per_r.stored, 0, "min")
        first = "branch bounds not sharp at n=1, r=0"
        assert list(verify._verify_bounds(trees, paths, 1)) == [first, problem]
        monkeypatch.setattr(verify, "_oracle_stats", lambda *_: (trees, paths))
        report, failed = verify.run(False, 0)
        assert failed and f"bounds-and-sharpness: FAIL ({first})\n" in report

    def test_extremal_check_memory(self):
        tracemalloc.start()
        try:
            problems = list(verify._verify_bounds({}, {}, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert problems == []
        assert peak < 16 * 2**20

    def test_quick_deterministic_across_threads(self, capsys):
        _, a, _ = run(capsys, "verify", "--quick", "--seed", "7", "--threads", "1")
        _, b, _ = run(capsys, "verify", "--quick", "--seed", "7", "--threads", "4")
        assert a == b


def _raise(holder, key, field):
    """Raise the min or the max of the histogram holder[key] by one: every
    count of its lowest bin, or one count of its highest, moves one bin up."""
    hist = holder[key]
    counts = [*hist, 0]
    x = getattr(hist, field)
    moved = counts[x] if field == "min" else 1
    counts[x] -= moved
    counts[x + 1] += moved
    holder[key] = oracle.Histogram(counts)
    assert getattr(holder[key], field) == x + 1


# runs cli.main on its arguments in a fresh interpreter and prints the exit
# code (argparse's included), stdout, stderr and every module loaded from
# the import of cli on
_FRESH_CHILD = """
import contextlib, io, json, sys
before = set(sys.modules)
from redcalc import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
print(json.dumps(
    [code, out.getvalue(), err.getvalue(), sorted(set(sys.modules) - before)]
))
"""

# imports the package alone and prints the redcalc modules that loaded and
# the names of __all__ that do not resolve
_IMPORT_CHILD = """
import json, sys
import redcalc
loaded = sorted(m for m in sys.modules if m.startswith("redcalc"))
missing = [name for name in redcalc.__all__ if not hasattr(redcalc, name)]
print(json.dumps([loaded, missing]))
"""


def _fresh(child, *argv):
    src = os.path.dirname(os.path.dirname(redcalc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def run_fresh(*argv):
    """(exit code, stdout, stderr, loaded) of a request in a fresh
    interpreter; loaded lists the modules imported from the import of cli
    on."""
    return _fresh(_FRESH_CHILD, *argv)


# the modules a request may leave unloaded
_OPTIONAL = (
    "numpy",
    "redcalc.exact",
    "redcalc.oracle",
    "redcalc.paths",
    "redcalc.series",
    "redcalc.trees",
    "redcalc.verify",
)

_ASYMPTOTIC = (
    "table", "branches-total-mean", "--n", "1024",
    "--method", "asymptotic", "--threads", "1",
)
_TREE = ("tree", "register", "((. .) (. .))")
_PATH = ("path", "rdeg", "RRUDLL")

# request -> the optional modules it loads
_COLD_REQUESTS = {
    ("table", "r-branches-mean", "--n", "20", "--r", "1", "--method", "exact"):
        ["redcalc.exact"],
    ("table", "fringe-mean", "--n", "12", "--r", "2", "--method", "series"):
        ["redcalc.series"],
    _ASYMPTOTIC: [],
    ("figure", "branches-fluctuation"): ["redcalc.exact"],
    _TREE: ["redcalc.trees"],
    _PATH: ["redcalc.paths"],
}


def _optional(loaded):
    return [m for m in loaded if m in _OPTIONAL]


class TestColdStart:
    @pytest.mark.parametrize("argv", tuple(_COLD_REQUESTS))
    def test_no_enumeration_no_numpy(self, argv):
        code, _, _, loaded = run_fresh(*argv)
        assert code == 0
        assert _optional(loaded) == _COLD_REQUESTS[argv]
        assert "traceback" not in loaded

    def test_asymptotic_request_skips_dataclasses(self):
        code, _, _, loaded = run_fresh(*_ASYMPTOTIC)
        assert code == 0
        assert "dataclasses" not in loaded and "inspect" not in loaded

    def test_tree_request_skips_dataclasses(self):
        code, _, _, loaded = run_fresh(*_TREE)
        assert code == 0
        assert "dataclasses" not in loaded and "inspect" not in loaded

    @pytest.mark.parametrize("argv", (_ASYMPTOTIC, _TREE, _PATH))
    def test_no_rationals_where_none_is_printed(self, argv):
        code, _, _, loaded = run_fresh(*argv)
        assert code == 0
        assert not {"fractions", "decimal", "numbers"} & set(loaded)

    def test_package_import_loads_only_errors(self):
        loaded, missing = _fresh(_IMPORT_CHILD)
        assert (loaded, missing) == (["redcalc", "redcalc.errors"], [])

    def test_oracle_method(self, capsys):
        argv = ("table", "rdeg-mean", "--n", "6")
        code, out, _, loaded = run_fresh(*argv, "--method", "oracle")
        assert code == 0
        assert _optional(loaded) == ["numpy", "redcalc.oracle", "redcalc.paths"]
        assert out == run(capsys, *argv, "--method", "exact")[1]

    def test_check(self):
        code, out, _, loaded = run_fresh(
            "table", "fringe-mean", "--n", "6", "--r", "1", "--check"
        )
        assert (code, out) == (0, "7/4 (1.75)\n")
        assert _optional(loaded) == [
            m for m in _OPTIONAL if m not in ("redcalc.trees", "redcalc.verify")
        ]

    def test_verify_quick(self):
        code, out, _, loaded = run_fresh("verify", "--quick")
        assert (code, out.count("PASS")) == (1, 4)
        assert _optional(loaded) == list(_OPTIONAL)

    def test_no_module_level_import_of_a_deferred_module(self):
        imported = set()
        for node in ast.parse(Path(cli.__file__).read_text()).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.module in (None, "redcalc"):  # from . import a, b
                    modules = [alias.name for alias in node.names]
                else:
                    modules = [node.module]
            else:
                continue
            for module in modules:
                parts = module.split(".")
                if parts[0] == "redcalc" and len(parts) > 1:
                    parts = parts[1:]
                imported.add(parts[0])
        assert {"argparse", "asym", "errors"} <= imported
        assert not imported & {"verify", "exact", "series", "oracle", "numpy"}


# one mixed sequence of requests: options that differ from call to call,
# argparse errors, help and the verify suite; OUT stands for an --out file
_SEQUENCE = (
    ("table", "fringe-mean", "--n", "6", "--r", "1", "--check", "--threads", "2"),
    ("table", "fringe-mean", "--n", "6", "--r", "1", "--format", "csv",
     "--threads", "1"),
    ("table", "fringe-mean", "--n", "6", "--r", "1"),
    ("table", "rdeg-mean", "--n", "5", "--out", "OUT"),
    ("table", "rdeg-mean", "--n", "5"),
    ("table", "--n", "3"),
    ("table", "rdeg-mean", "--n", "x"),
    ("verify", "--quick", "--full"),
    ("table", "rdeg-mean", "--n", "0"),
    ("--help",),
    ("table", "--help"),
    ("verify", "--quick", "--threads", "1"),
    ("tree", "register", "((. .) (. .))"),
    ("path", "fringes", "RRUDLL", "--threads", "2"),
)


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_sequence_repeats_and_matches_fresh_interpreters(
        self, capsys, monkeypatch, tmp_path
    ):
        # help wraps at COLUMNS, here and in the fresh interpreters
        monkeypatch.setenv("COLUMNS", "80")
        target = tmp_path / "out.txt"
        requests = [
            [str(target) if arg == "OUT" else arg for arg in argv]
            for argv in _SEQUENCE
        ]

        def written():
            """The --out file's text, removed for the next request."""
            if not target.exists():
                return None
            text = target.read_text()
            target.unlink()
            return text

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out = capsys.readouterr()
            return code, out.out, out.err, written()

        first = [in_process(argv) for argv in requests]
        second = [in_process(argv) for argv in requests]
        fresh = [(*run_fresh(*argv)[:3], written()) for argv in requests]
        assert first == second
        assert first == fresh
        assert [result[0] for result in first] == [
            0, 0, 0, 0, 0, 2, 2, 2, 3, 0, 0, 1, 0, 0
        ]
