"""Tree generators and object-level references for the tests: exhaustive
enumeration, a uniform sampler, chains, the register by repeated
reduction and the cherry count."""

import random

from redcalc.errors import TREE_CAP, DomainError, ResourceCapError
from redcalc.trees import LEAF, Node, reduce_tree


def enumerate_trees(n, cap=TREE_CAP):
    """All binary trees with n internal nodes, ordered by left-subtree
    size, then left tree, then right tree, the order of the oracle's scan."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n > cap:
        raise ResourceCapError(f"tree enumeration capped at n = {cap}")
    if n == 0:
        yield LEAF
        return
    for i in range(n):
        for left in enumerate_trees(i, cap=cap):
            for right in enumerate_trees(n - 1 - i, cap=cap):
                yield Node(left, right)


def random_tree(n, rng):
    """Uniform tree of size n >= 1 by leaf insertion (Remy's construction),
    drawn from the random.Random rng."""
    # node ids: 0 is the initial leaf; step k adds internal 2k+1, leaf 2k+2
    children = {}
    parent = {0: (None, None)}
    root = 0
    for k in range(n):
        m = 2 * k + 1
        v = rng.randrange(m)
        b = rng.getrandbits(1)
        u, w = m, m + 1
        children[u] = (w, v) if b else (v, w)
        p, side = parent[v]
        parent[u] = (p, side)
        parent[v] = (u, b)
        parent[w] = (u, b ^ 1)
        if p is None:
            root = u
        else:
            left, right = children[p]
            children[p] = (u, right) if side == 0 else (left, u)
    # convert the id structure into Node/LEAF form, iteratively
    built = {}
    stack = [root]
    while stack:
        v = stack.pop()
        if v not in children:
            built[v] = LEAF
            continue
        left, right = children[v]
        if left in built and right in built:
            built[v] = Node(built[left], built[right])
        else:
            stack.extend((v, left, right))
    return built[root]


def chain_tree(n, seed=0):
    """A chain of n >= 1 internal nodes; left/right attachment drawn from seed."""
    rng = random.Random(seed)
    t = Node(LEAF, LEAF)
    for _ in range(n - 1):
        t = Node(t, LEAF) if rng.getrandbits(1) else Node(LEAF, t)
    return t


def register_by_reduction(t):
    """Number of reductions until only a leaf remains; equals register(t)."""
    steps = 0
    while t is not LEAF:
        t = reduce_tree(t)
        steps += 1
    return steps


def cherry_count(t):
    """Internal nodes with two leaf children.

    Each 1-branch ends in exactly one cherry, so this equals the number of
    1-branches (asserted exhaustively in the tests).
    """
    count = 0
    stack = [t]
    while stack:
        x = stack.pop()
        if x is LEAF:
            continue
        if x.left is LEAF and x.right is LEAF:
            count += 1
        else:
            stack.append(x.left)
            stack.append(x.right)
    return count
