"""Lattice paths over {U, R, D, L} and their segment-collapsing reduction.

Paths are plain strings; parse_path only validates.  The reduction
normalizes a path by clockwise rotations until it starts horizontally and
ends vertically, splits it into maximal horizontal+vertical segments, and
collapses each segment to a single step determined by its first
horizontal and first vertical move.
"""

import re

from .errors import DomainError, ParseError

__all__ = [
    "STEPS",
    "parse_path",
    "reduce_path",
    "rdeg",
    "fringe",
    "fringe_sizes",
    "extremal_path",
]

STEPS = "URDL"

_CW = str.maketrans("URDL", "RDLU")

# collapsed step for a segment, keyed by (first horizontal, first vertical);
# the intermediate diagonal (NE/SE/SW/NW) already rotated 45 degrees clockwise
_COLLAPSE = {
    ("R", "U"): "R",
    ("R", "D"): "D",
    ("L", "D"): "L",
    ("L", "U"): "U",
}

_SEGMENT = re.compile(r"([RL])[RL]*([UD])[UD]*")


def parse_path(text):
    if not text:
        raise ParseError("empty path", 0)
    for i, c in enumerate(text):
        if c not in STEPS:
            raise ParseError(f"unexpected character {c!r}", i)
    return text


def reduce_path(p):
    if len(p) < 2:
        raise DomainError("reduction of a single step is undefined")
    if p[0] in "UD":
        p = p.translate(_CW)
    if p[-1] in "RL":
        p = p[:-1] + p[-1].translate(_CW)
    # now the path starts horizontally and ends vertically, so the maximal
    # H+V+ segments tile it completely
    return "".join(
        _COLLAPSE[m.group(1), m.group(2)] for m in _SEGMENT.finditer(p)
    )


def rdeg(p):
    """Number of reductions until a single step remains."""
    steps = 0
    while len(p) > 1:
        p = reduce_path(p)
        steps += 1
    return steps


def fringe(p, r):
    """The r-fold reduction, or None if the path cannot be reduced r times.

    A None result stands for a fringe of size 0.
    """
    for _ in range(r):
        if len(p) == 1:
            return None
        p = reduce_path(p)
    return p


def fringe_sizes(p):
    """Lengths of all fringes down to the atomic step: [n, ..., 1]."""
    sizes = [len(p)]
    while len(p) > 1:
        p = reduce_path(p)
        sizes.append(len(p))
    return sizes


# segment openers when a step is expanded (inverse of _COLLAPSE)
_EXPAND = {"R": ("R", "U"), "D": ("R", "D"), "L": ("L", "D"), "U": ("L", "U")}


def _expand(p, long_last):
    """Expand every step to a length-2 segment; with long_last, the final
    step becomes a length-3 segment instead."""
    segs = []
    for s in p:
        h, v = _EXPAND[s]
        segs.append(h + v)
    if long_last:
        h, v = _EXPAND[p[-1]]
        segs[-1] = h + h + v
    return "".join(segs)


def extremal_path(n):
    """A path of length n whose reduction degree is floor(log2 n).

    Double-and-add over the binary digits of n (most significant digit
    dropped): digit 0 expands every step minimally, digit 1 additionally
    lengthens the last segment by one step.
    """
    if n < 1:
        raise DomainError("paths are nonempty")
    p = "R"
    for bit in bin(n)[3:]:
        p = _expand(p, bit == "1")
    return p
