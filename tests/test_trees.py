import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from redcalc.errors import DomainError, ParseError
from redcalc.trees import (
    LEAF,
    BranchCounts,
    almost_complete,
    branch_counts,
    format_tree,
    parse_tree,
    reduce_tree,
    register,
    tree_size,
)
from tree_generators import (
    chain_tree,
    cherry_count,
    enumerate_trees,
    random_tree,
    register_by_reduction,
)


class TestParseFormat:
    def test_leaf(self):
        assert parse_tree(".") is LEAF
        assert format_tree(LEAF) == "."

    def test_single_node(self):
        t = parse_tree("(. .)")
        assert t.left is LEAF and t.right is LEAF
        assert format_tree(t) == "(. .)"

    def test_nested(self):
        text = "((. .) (. (. .)))"
        assert format_tree(parse_tree(text)) == text

    def test_roundtrip_exhaustive(self):
        for n in range(6):
            for t in enumerate_trees(n):
                assert parse_tree(format_tree(t)) == t

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("(", 1),
            ("(. .", 4),
            ("(..)", 2),
            ("(. .))", 5),
            ("x", 0),
            (". .", 1),
        ],
    )
    def test_parse_errors_with_offset(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_tree(text)
        assert exc.value.offset == offset

    def test_deep_tree_no_recursion_limit(self):
        text = "(" * 5000 + "." + " .)" * 5000
        t = parse_tree(text)
        assert tree_size(t) == 5000
        assert format_tree(t) == text


_seeds = strategies.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=5, deadline=None)
@given(strategies.integers(min_value=10**4, max_value=3 * 10**4), _seeds)
def test_roundtrip_deep_chain(n, seed):
    t = chain_tree(n, seed=seed)
    assert parse_tree(format_tree(t)) == t


@settings(max_examples=30, deadline=None)
@given(strategies.integers(min_value=1, max_value=2000), _seeds)
def test_roundtrip_sampled(n, seed):
    t = random_tree(n, random.Random(seed))
    assert parse_tree(format_tree(t)) == t


class TestReduce:
    def test_leaf_is_domain_error(self):
        with pytest.raises(DomainError):
            reduce_tree(LEAF)

    def test_single_node_reduces_to_leaf(self):
        assert reduce_tree(parse_tree("(. .)")) is LEAF

    def test_chain_collapses(self):
        # a pure chain of any length reduces to a leaf in one step
        assert reduce_tree(parse_tree("(((. .) .) .)")) is LEAF
        assert reduce_tree(chain_tree(50, seed=1)) is LEAF

    def test_two_cherries_reduce_to_node(self):
        t = parse_tree("((. .) (. .))")
        assert format_tree(reduce_tree(t)) == "(. .)"

    def test_size_decreases(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert tree_size(reduce_tree(t)) < n


class TestRegister:
    def test_base_cases(self):
        assert register(LEAF) == 0
        assert register(parse_tree("(. .)")) == 1

    def test_max_rule(self):
        assert register(parse_tree("((. .) .)")) == 1
        assert register(parse_tree("((. .) (. .))")) == 2

    def test_matches_reduction_count_exhaustive(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert register(t) == register_by_reduction(t)

    def test_register_of_reduction_drops_by_one(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                assert register(reduce_tree(t)) == register(t) - 1

    def test_deep_chain(self):
        assert register(chain_tree(100000, seed=3)) == 1


@settings(max_examples=100, deadline=None)
@given(
    strategies.integers(min_value=1, max_value=300),
    strategies.integers(min_value=0, max_value=2**64 - 1),
)
def test_register_of_reduction_drops_by_one_random(n, seed):
    t = random_tree(n, random.Random(seed))
    assert register(reduce_tree(t)) == register(t) - 1


class TestBranchCounts:
    def test_single_node(self):
        bc = branch_counts(parse_tree("(. .)"))
        assert bc.counts == (2, 1)
        assert bc.total == 3

    def test_record_keeps_fields_repr_and_immutability(self):
        bc = branch_counts(parse_tree("((. .) .)"))
        assert repr(bc) == "BranchCounts(counts=(3, 1), total=4)"
        assert bc == BranchCounts((3, 1), 4)
        assert bc != BranchCounts((3, 1), 5)
        with pytest.raises(AttributeError):
            bc.total = 0

    def test_leaf_count_is_n_plus_one(self):
        for n in range(8):
            for t in enumerate_trees(n):
                assert branch_counts(t).counts[0] == n + 1

    def test_top_label_has_single_branch(self):
        for n in range(1, 8):
            for t in enumerate_trees(n):
                assert branch_counts(t).counts[-1] == 1

    def test_one_branches_are_cherries(self):
        for n in range(1, 9):
            for t in enumerate_trees(n):
                bc = branch_counts(t)
                ones = bc.counts[1] if len(bc.counts) > 1 else 0
                assert ones == cherry_count(t)

    def test_counts_survive_reduction(self):
        # reducing shifts every branch level down by one
        for n in range(1, 9):
            for t in enumerate_trees(n):
                before = branch_counts(t).counts
                if register(t) < 1:
                    continue
                after = branch_counts(reduce_tree(t)).counts
                assert before[1:] == after


class TestExtremalFamilies:
    def test_almost_complete_small(self):
        assert almost_complete(1) is LEAF
        assert format_tree(almost_complete(2)) == "(. .)"
        assert format_tree(almost_complete(3)) == "((. .) .)"
        assert format_tree(almost_complete(4)) == "((. .) (. .))"

    def test_leaf_count(self):
        for m in range(1, 200):
            t = almost_complete(m)
            assert tree_size(t) == m - 1

    def test_register_is_floor_log_of_leaves(self):
        # m //= 2 per reduction step, so the register is floor(log2 m)
        for m in range(1, 200):
            assert register(almost_complete(m)) == m.bit_length() - 1

    def test_reduction_halves_leaves(self):
        for m in range(2, 200):
            got = reduce_tree(almost_complete(m))
            assert format_tree(got) == format_tree(almost_complete(m // 2))

    def test_six_leaves_reduces_to_three(self):
        got = reduce_tree(almost_complete(6))
        assert format_tree(got) == format_tree(almost_complete(3))

    def test_chain_tree_branches(self):
        # any chain of n nodes has n+1 leaves, one 1-branch: total n + 2
        for n in range(1, 30):
            bc = branch_counts(chain_tree(n, seed=n))
            assert bc.total == n + 1 + (1 if n > 0 else 0)
            assert register(chain_tree(n, seed=n)) == 1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            almost_complete(0)
