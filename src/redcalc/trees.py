"""Binary trees, the leaf-erasing reduction, and register/branch statistics.

Trees are immutable after construction.  Every traversal here uses an
explicit stack so that degenerate trees (chains with ~10^6 nodes) are safe.

Text format: "." is a leaf, "(l r)" is an internal node with a single
space between the children.  The format is canonical, so formatted output
can be compared byte for byte.
"""

from collections import namedtuple

from .errors import DomainError, ParseError

__all__ = [
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
]


class _Leaf:
    __slots__ = ()

    def __repr__(self):
        return "LEAF"


#: The unique external node; compare with ``is``.
LEAF = _Leaf()


class Node:
    """Internal node with a left and a right subtree."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __eq__(self, other):
        if other is LEAF:
            return False
        if not isinstance(other, Node):
            return NotImplemented
        # iterative structural comparison; trees can be very deep
        work = [(self, other)]
        while work:
            a, b = work.pop()
            if a is LEAF or b is LEAF:
                if a is not b:
                    return False
                continue
            work.append((a.left, b.left))
            work.append((a.right, b.right))
        return True

    def __hash__(self):
        raise TypeError("Node is not hashable; use format_tree for keys")

    def __repr__(self):
        return f"<Node size={tree_size(self)}>"


def parse_tree(text):
    """Parse the canonical tree format, raising ParseError with an offset."""
    i, n = 0, len(text)
    stack = []  # completed left subtrees of open nodes; None = left pending
    while True:
        if i >= n:
            raise ParseError("unexpected end of input", i)
        c = text[i]
        if c == ".":
            done = LEAF
            i += 1
        elif c == "(":
            stack.append(None)
            i += 1
            continue
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        # a subtree just finished; close parents as far as possible
        while stack:
            if stack[-1] is None:
                if i >= n or text[i] != " ":
                    raise ParseError("expected ' ' between children", i)
                stack[-1] = done
                i += 1
                break
            if i >= n or text[i] != ")":
                raise ParseError("expected ')'", i)
            done = Node(stack.pop(), done)
            i += 1
        else:
            if i != n:
                raise ParseError("trailing input", i)
            return done


def format_tree(t):
    """Canonical text form; inverse of parse_tree."""
    out = []
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str):
            out.append(x)
        elif x is LEAF:
            out.append(".")
        else:
            stack.append(")")
            stack.append(x.right)
            stack.append(" ")
            stack.append(x.left)
            stack.append("(")
    return "".join(out)


def tree_size(t):
    """Number of internal nodes."""
    count = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if x is not LEAF:
            count += 1
            stack.append(x.left)
            stack.append(x.right)
    return count


def reduce_tree(t):
    """Erase all leaves, merge single-child chains, re-mark childless nodes.

    Structural implementation, deliberately independent of the register
    labeling so the two can cross-check each other.
    """
    if t is LEAF:
        raise DomainError("reduction of a single leaf is undefined")
    # post-order evaluation: value of a leaf is the ERASED marker, value of
    # an internal node is its reduced subtree
    ERASED = object()
    vals = []
    work = [(t, False)]
    while work:
        node, seen = work.pop()
        if node is LEAF:
            vals.append(ERASED)
            continue
        if not seen:
            work.append((node, True))
            work.append((node.right, False))
            work.append((node.left, False))
        else:
            b = vals.pop()
            a = vals.pop()
            if a is ERASED and b is ERASED:
                vals.append(LEAF)
            elif a is ERASED:
                vals.append(b)
            elif b is ERASED:
                vals.append(a)
            else:
                vals.append(Node(a, b))
    return vals[0]


def _label_scan(t):
    """One bottom-up pass: root label, node counts and in-chain edge counts
    per label value."""
    nodes = []   # nodes[r] = number of nodes labeled r
    within = []  # within[r] = edges whose endpoints are both labeled r
    vals = []
    work = [(t, False)]
    while work:
        node, seen = work.pop()
        if node is LEAF:
            vals.append(0)
            _bump(nodes, 0)
            continue
        if not seen:
            work.append((node, True))
            work.append((node.right, False))
            work.append((node.left, False))
        else:
            b = vals.pop()
            a = vals.pop()
            if a == b:
                lab = a + 1
            else:
                lab = a if a > b else b
                _bump(within, lab)
            _bump(nodes, lab)
            vals.append(lab)
    return vals[0], nodes, within


def _bump(counts, idx):
    while len(counts) <= idx:
        counts.append(0)
    counts[idx] += 1


def register(t):
    """Horton-Strahler value: 0 on a leaf, max/+1 rule on internal nodes."""
    return _label_scan(t)[0]


# a namedtuple rather than a dataclass, with the same fields, equality and
# repr, immutable too: importing dataclasses also imports inspect, most of
# the cold start of a tree request
class BranchCounts(namedtuple("BranchCounts", "counts total")):
    """Per-label counts of maximal equal-label chains: counts[r] is the
    number of r-branches, r = 0..register, and total their sum."""

    __slots__ = ()


def branch_counts(t):
    """Count r-branches for every r in one pass.

    A branch is a maximal chain of nodes sharing the same register label;
    the number of such chains at label r equals (#nodes labeled r) minus
    (#edges internal to a chain at label r).
    """
    root, nodes, within = _label_scan(t)
    counts = list(nodes)
    for r, w in enumerate(within):
        counts[r] -= w
    assert len(counts) == root + 1 and counts[root] >= 1
    return BranchCounts(tuple(counts), sum(counts))


def almost_complete(m):
    """The unique tree with m leaves filled level by level, left to right."""
    if m < 1:
        raise DomainError("need at least one leaf")
    if m == 1:
        return LEAF
    # capacity of the last full level is 2^(h-1), of the level above 2^(h-2)
    h = (m - 1).bit_length()
    half = 1 << (h - 1)
    left = min(half, m - half // 2)
    return Node(almost_complete(left), almost_complete(m - left))

