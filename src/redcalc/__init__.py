"""Exact and asymptotic statistics of binary-tree and lattice-path reductions.

Three mutually independent exact backends (exhaustive enumeration, integer
power-series recurrences, closed-form binomial sums) cross-validate each
other bit for bit; a fourth backend evaluates the asymptotic expansions and
their periodic fluctuations in floating point.

The tree and path names below are imported from their modules on first
access, so that ``import redcalc`` (and with it every CLI request) loads
neither module unless it is used.
"""

from .errors import (
    DomainError,
    MismatchError,
    ParseError,
    RedcalcError,
    ResourceCapError,
)

__version__ = "0.1.0"

# public name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "LEAF",
            "Node",
            "BranchCounts",
            "parse_tree",
            "format_tree",
            "tree_size",
            "reduce_tree",
            "register",
            "branch_counts",
            "almost_complete",
        ),
        "trees",
    ),
    **dict.fromkeys(
        (
            "parse_path",
            "reduce_path",
            "rdeg",
            "fringe",
            "fringe_sizes",
            "extremal_path",
        ),
        "paths",
    ),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "RedcalcError",
    "ParseError",
    "DomainError",
    "MismatchError",
    "ResourceCapError",
    *_LAZY,
    "__version__",
]
