"""Exact and asymptotic statistics of binary-tree and lattice-path reductions.

Three mutually independent exact backends (exhaustive enumeration, integer
power-series recurrences, closed-form binomial sums) cross-validate each
other bit for bit; a fourth backend evaluates the asymptotic expansions and
their periodic fluctuations in floating point.
"""

from .errors import (
    DomainError,
    ExactnessError,
    MismatchError,
    ParseError,
    RedcalcError,
    ResourceCapError,
)
from .trees import (
    LEAF,
    Node,
    BranchCounts,
    parse_tree,
    format_tree,
    tree_size,
    reduce_tree,
    register,
    branch_counts,
    almost_complete,
    chain_tree,
)
from .paths import (
    parse_path,
    reduce_path,
    rdeg,
    fringe,
    fringe_sizes,
    extremal_path,
)

__version__ = "0.1.0"

__all__ = [
    "RedcalcError",
    "ParseError",
    "DomainError",
    "MismatchError",
    "ResourceCapError",
    "ExactnessError",
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
    "chain_tree",
    "parse_path",
    "reduce_path",
    "rdeg",
    "fringe",
    "fringe_sizes",
    "extremal_path",
    "__version__",
]
