"""Tree generators for the property tests: a uniform sampler and chains."""

import random

from redcalc.trees import LEAF, Node


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
