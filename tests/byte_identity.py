"""The byte-identity corpus: a fixed list of command-line requests, each
with the sha256 of what it gives (exit code, stdout, stderr).

tests/test_byte_identity.py runs every request in-process through
``cli.main`` and names each one whose digest differs from the file, so a
change that claims the same output proves it.  A change that means to
change output rewrites the file and lists the requests that changed:

    PYTHONPATH=src python tests/byte_identity.py

The requests:
- every --n quantity of ``cli.QUANTITIES`` with each --method and with
  --check, in both formats, at tree sizes 0..10 and path lengths -1..8,
  with --r in R_VALUES where the quantity takes one;
- every --n quantity with --method exact, in both formats, at the
  benchmark-sized n of LARGE_SIZES, with --r in LARGE_R_VALUES where the
  quantity takes one;
- every series family at --r 0..3 and the orders ORDERS, in both formats;
- both figures on a small grid;
- ``verify --quick``;
- every tree and path action on the literals of TREES and PATHS, the
  last of each malformed;
- every quantity with an asymptotic method at the n of ASYMPTOTIC_SIZES,
  with --terms 1, the default and 400.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from redcalc import cli

CORPUS = Path(__file__).with_name("byte_identity.jsonl")

R_VALUES = (0, 1, 2, 3, 10**5)
ORDERS = (0, 1, 9, 24)
SIZES = {"trees": range(0, 11), "paths": range(-1, 9)}
METHODS = (
    ["--method", "exact"],
    ["--method", "series"],
    ["--method", "oracle"],
    ["--method", "asymptotic"],
    ["--check"],
)
FORMATS = ("human", "csv")
LARGE_SIZES = (256, 1024)
LARGE_R_VALUES = (1, 2, 3)
TREES = (
    ".",
    "(. .)",
    "((. .) (. .))",
    "(((. .) .) (. (. .)))",
    "((((. .) (. .)) ((. .) (. .))) (. ((. .) .)))",
    "(. .",
)
PATHS = ("R", "RRUD", "RRUDLL", "URDLURDL", "RRRUUULLLDDDRURD", "RXU")
ASYMPTOTIC_SIZES = (64, 1000)
TERMS = (["--terms", "1"], [], ["--terms", "400"])


def requests():
    """Every argv of the corpus, in a fixed order."""
    for quantity, spec in cli.QUANTITIES.items():
        r_args = [["--r", str(r)] for r in R_VALUES] if spec["takes_r"] else [[]]
        for n in SIZES[spec["objects"]]:
            for r_arg in r_args:
                for method in METHODS:
                    for fmt in FORMATS:
                        yield [
                            "table", quantity, "--n", str(n), *r_arg, *method,
                            "--format", fmt,
                        ]
    for quantity, spec in cli.QUANTITIES.items():
        r_args = (
            [["--r", str(r)] for r in LARGE_R_VALUES] if spec["takes_r"] else [[]]
        )
        for n in LARGE_SIZES:
            for r_arg in r_args:
                for fmt in FORMATS:
                    yield [
                        "table", quantity, "--n", str(n), *r_arg,
                        "--method", "exact", "--format", fmt,
                    ]
    for family in cli._SERIES_FAMILIES:
        for r in range(4):
            for order in ORDERS:
                for fmt in FORMATS:
                    yield [
                        "table", "series-coefficients", "--family", family,
                        "--r", str(r), "--order", str(order), "--format", fmt,
                    ]
    for figure in cli._FIGURES:
        yield ["figure", figure, "--x-max", "3.0", "--points", "7"]
    yield ["verify", "--quick"]
    for tree in TREES:
        for action in ("reduce", "register", "branches"):
            yield ["tree", action, tree]
    for path in PATHS:
        for action in ("reduce", "rdeg", "fringes"):
            yield ["path", action, path]
    for quantity, spec in cli.QUANTITIES.items():
        if "asymptotic" not in spec or spec["takes_r"]:
            continue
        for n in ASYMPTOTIC_SIZES:
            for terms in TERMS:
                yield [
                    "table", quantity, "--n", str(n), "--method", "asymptotic",
                    *terms,
                ]


def digest(argv):
    """sha256 of the exit code, stdout and stderr of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse's exit
            code = e.code
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def load():
    """(argv, sha256) of every request in the corpus file."""
    with CORPUS.open() as fh:
        return [(entry["argv"], entry["sha256"]) for entry in map(json.loads, fh)]


def main():
    lines = [
        json.dumps({"argv": argv, "sha256": digest(argv)}) + "\n"
        for argv in requests()
    ]
    CORPUS.write_text("".join(lines))
    print(f"wrote {len(lines)} requests to {CORPUS}")


if __name__ == "__main__":
    main()
