import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from redcalc.errors import DomainError, ParseError
from redcalc.paths import (
    extremal_path,
    fringe,
    fringe_sizes,
    parse_path,
    rdeg,
    reduce_path,
)


def all_paths(n):
    for p in itertools.product("URDL", repeat=n):
        yield "".join(p)


class TestParse:
    def test_valid(self):
        assert parse_path("URDL") == "URDL"

    @pytest.mark.parametrize("text,offset", [("", 0), ("RX", 1), ("uRDL", 0)])
    def test_errors_with_offset(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_path(text)
        assert exc.value.offset == offset


class TestRotate:
    def test_cycle(self):
        # rotating every step clockwise, U->R->D->L->U, four times is the
        # identity, and one rotation changes no fringe size
        cw = str.maketrans("URDL", "RDLU")
        p = "RRUDL"
        assert p.translate(cw).translate(cw).translate(cw).translate(cw) == p
        for n in range(1, 7):
            for p in all_paths(n):
                assert fringe_sizes(p.translate(cw)) == fringe_sizes(p)


class TestReduce:
    def test_single_step_is_domain_error(self):
        for s in "URDL":
            with pytest.raises(DomainError):
                reduce_path(s)

    @pytest.mark.parametrize(
        "path,expect",
        [
            ("RU", "R"),
            ("RD", "D"),
            ("LD", "L"),
            ("LU", "U"),
            # starts vertically: whole path rotates clockwise first
            ("UR", "D"),
            # ends horizontally: last step rotates clockwise
            ("RR", "D"),
            ("RRRRR", "D"),
            ("UU", "D"),
            ("RRUULD", "RL"),
        ],
    )
    def test_examples(self, path, expect):
        assert reduce_path(path) == expect

    def test_length_at_least_halves(self):
        for n in range(2, 9):
            for p in all_paths(n):
                assert 1 <= len(reduce_path(p)) <= n // 2

    def test_horizontal_run_has_degree_one(self):
        for n in range(2, 40):
            assert rdeg("R" * n) == 1

    def test_rdeg_bounds_exhaustive(self):
        for n in range(1, 9):
            lo = 1 if n > 1 else 0
            hi = n.bit_length() - 1
            degs = {rdeg(p) for p in all_paths(n)}
            assert min(degs) == lo and max(degs) == hi


class TestFringes:
    def test_sizes_strictly_decrease_to_one(self):
        for n in range(1, 8):
            for p in all_paths(n):
                sizes = fringe_sizes(p)
                assert sizes[0] == n and sizes[-1] == 1
                assert all(a > b for a, b in zip(sizes, sizes[1:]))

    @settings(max_examples=100, deadline=None)
    @given(strategies.text(alphabet="URDL", min_size=2, max_size=2000))
    def test_sizes_at_least_halve(self, p):
        sizes = fringe_sizes(p)
        assert all(b <= a // 2 for a, b in zip(sizes, sizes[1:]))

    def test_fringe_matches_sizes(self):
        p = "RRUULD"
        assert fringe(p, 0) == p
        assert len(fringe(p, 1)) == fringe_sizes(p)[1]
        assert fringe(p, 5) is None

    def test_zeroth_fringe_is_identity(self):
        assert fringe("RUDL", 0) == "RUDL"


class TestExtremal:
    def test_lengths(self):
        for n in range(1, 600):
            assert len(extremal_path(n)) == n

    def test_degree_attains_upper_bound(self):
        for n in range(2, 600):
            assert rdeg(extremal_path(n)) == n.bit_length() - 1

    def test_degree_attains_upper_bound_large(self):
        for n in (1023, 1024, 2047, 3000, 4096):
            assert rdeg(extremal_path(n)) == n.bit_length() - 1

    def test_domain_error(self):
        with pytest.raises(DomainError):
            extremal_path(0)
