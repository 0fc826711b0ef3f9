"""Exact and asymptotic statistics of binary-tree and lattice-path reductions.

Three mutually independent exact backends (exhaustive enumeration, integer
power-series recurrences, closed-form binomial sums) cross-validate each
other bit for bit; a fourth backend evaluates the asymptotic expansions and
their periodic fluctuations in floating point.

The package itself defines only the error types, so that ``import redcalc``
(and with it every CLI request) loads no other module; every other name
lives in its submodule (``redcalc.trees.parse_tree``, ``redcalc.paths.rdeg``
and so on).
"""

from .errors import (
    DomainError,
    MismatchError,
    ParseError,
    RedcalcError,
    ResourceCapError,
)

__version__ = "0.1.0"

__all__ = [
    "RedcalcError",
    "ParseError",
    "DomainError",
    "MismatchError",
    "ResourceCapError",
    "__version__",
]
