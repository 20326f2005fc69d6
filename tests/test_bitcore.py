"""Pairing, interleaving, assignments, and prefix-free sets."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oneway.bitcore import (
    PartialAssignment,
    PrefixFreeSet,
    check_word,
    comparable,
    data_records,
    pair,
    prefix_set_from_file,
    unpair,
)
from oneway.errors import ConsistencyError, PrefixFreeError, SpecParseError
from oneway.streams import finite, interleaved
from test_streams import prefix_of


# frozen 3x3 pairing table, computed independently by diagonal walk
PAIR_TABLE = {
    (0, 0): 0, (0, 1): 2, (0, 2): 5,
    (1, 0): 1, (1, 1): 4, (1, 2): 8,
    (2, 0): 3, (2, 1): 7, (2, 2): 12,
}


@pytest.mark.parametrize("args,expected", sorted(PAIR_TABLE.items()))
def test_pair_table(args, expected):
    assert pair(*args) == expected


@pytest.mark.parametrize("m,expected", [(5, (0, 2)), (7, (2, 1)), (2, (0, 1))])
def test_unpair_table(m, expected):
    assert unpair(m) == expected


def test_pair_unpair_roundtrip():
    for m in range(2000):
        n, s = unpair(m)
        assert pair(n, s) == m
    rng = random.Random(0)
    for _ in range(200):
        n, s = rng.randrange(10**6), rng.randrange(10**6)
        assert unpair(pair(n, s)) == (n, s)


def test_pair_dominates_stage():
    # every stage-bound argument downstream leans on pair(n,s) >= s
    for n in range(40):
        for s in range(40):
            assert pair(n, s) >= s


# ---------------------------------------------- properties of the pairing

NATS = st.integers(0, 10**12)


@settings(derandomize=True, max_examples=300)
@given(NATS, NATS)
def test_pair_is_a_bijection_dominating_the_stage(n, s):
    m = pair(n, s)
    assert unpair(m) == (n, s)
    assert pair(*unpair(m)) == m
    assert m >= s


@settings(derandomize=True, max_examples=300)
@given(st.integers(0, 10**6), st.data())
def test_indices_below_pair_0_h1_have_stage_within_h(h, data):
    """m < pair(0, h+1) implies unpair(m)[1] <= h: a stage s > h forces
    m >= T(h+1) + h+1.  The bound is tight: pair(0, h+1) has stage h+1."""
    bound = pair(0, h + 1)
    assert unpair(bound) == (0, h + 1)
    assert unpair(bound - 1)[1] <= h
    m = data.draw(st.integers(0, bound - 1))
    assert unpair(m)[1] <= h


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-3)


def test_check_word():
    assert check_word("0110") == "0110"
    assert check_word("") == ""
    with pytest.raises(ValueError):
        check_word("012")
    with pytest.raises(ValueError):
        check_word(b"01")


@pytest.mark.parametrize("a,b,joined", [
    ("11", "00", "1010"),
    ("01", "10", "0110"),
    ("", "", ""),
])
def test_interleave_frozen(a, b, joined):
    # interleaving of words is the join of sources, streams.interleaved
    assert prefix_of(interleaved(finite(a), finite(b)), len(joined)) == joined


def test_interleave_roundtrip_random():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(0, 32)
        a = "".join(rng.choice("01") for _ in range(n))
        b = "".join(rng.choice("01") for _ in range(n))
        joined = prefix_of(interleaved(finite(a), finite(b)), 2 * n)
        assert (joined[0::2], joined[1::2]) == (a, b)


def test_comparable():
    assert comparable("", "0110")
    assert comparable("01", "0110")
    assert comparable("0110", "01")
    assert not comparable("00", "0110")
    assert comparable("x" * 0, "")  # both empty


class TestPartialAssignment:
    def test_of_word_and_positions(self):
        a = PartialAssignment.of_word("10")
        assert a.constraints == ((0, "1"), (1, "0"))

    def test_canonical_order_and_duplicates(self):
        a = PartialAssignment(((3, "1"), (1, "0")))
        assert a.constraints == ((1, "0"), (3, "1"))
        with pytest.raises(ValueError):
            PartialAssignment(((2, "1"), (2, "1")))
        with pytest.raises(ValueError):
            PartialAssignment(((0, "x"),))
        with pytest.raises(ValueError):
            PartialAssignment(((-1, "0"),))

    @pytest.mark.parametrize("bit", ["", "01", 1, True])
    def test_rejects_non_bits(self, bit):
        # a substring test once let "" and "01" through: "01" at one position
        # measured 1/2 yet filled a two-symbol word
        with pytest.raises(ValueError, match="bad bit"):
            PartialAssignment(((0, bit),))

    def test_measure(self):
        assert PartialAssignment().measure() == 1
        a = PartialAssignment(((0, "1"), (7, "0"), (100, "1")))
        assert a.measure() == Fraction(1, 8)

    def test_union_and_consistency(self):
        a = PartialAssignment(((0, "1"), (4, "0")))
        b = PartialAssignment(((4, "0"), (9, "1")))
        assert a.consistent_with(b)
        assert a.union(b).constraints == ((0, "1"), (4, "0"), (9, "1"))
        c = PartialAssignment(((4, "1"),))
        assert not a.consistent_with(c)
        with pytest.raises(ConsistencyError):
            a.union(c)

    def test_filled_word(self):
        a = PartialAssignment(((1, "1"), (3, "1")))
        assert a.filled_word(5) == "01010"
        with pytest.raises(ValueError):
            a.filled_word(3)


class TestPrefixFreeSet:
    def test_frozen_measure(self):
        # {00, 01, 1} tiles the whole space
        s = PrefixFreeSet(["00", "01", "1"])
        assert s.measure() == 1

    def test_intersect_measure_frozen(self):
        s = PrefixFreeSet(["0", "1"])
        assert s.intersect_measure("01") == Fraction(1, 4)
        assert s.intersect_measure("") == 1

    def test_rejects_comparable_pairs(self):
        with pytest.raises(PrefixFreeError):
            PrefixFreeSet(["0", "01"])
        with pytest.raises(PrefixFreeError):
            PrefixFreeSet(["", "1"])

    def test_runtime_shape(self):
        s = PrefixFreeSet(["1", "00", "01"])
        assert tuple(s) == ("1", "00", "01")  # (length, lex) canonical order
        assert "00" in s and "10" not in s
        assert len(s) == 3
        assert s == PrefixFreeSet(["00", "1", "01"])
        assert hash(s) == hash(PrefixFreeSet(["00", "01", "1"]))

    def test_empty_and_epsilon(self):
        assert PrefixFreeSet([]).measure() == 0
        assert PrefixFreeSet([""]).measure() == 1

    def test_kraft_bound_random(self):
        # greedily built prefix-free sets always satisfy Kraft's inequality
        rng = random.Random(2)
        for _ in range(50):
            words = []
            for _ in range(rng.randrange(1, 12)):
                w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 8)))
                if all(not comparable(w, v) for v in words):
                    words.append(w)
            assert PrefixFreeSet(words).measure() <= 1


def test_prefix_set_from_file(tmp_path):
    p = tmp_path / "set.txt"
    p.write_text("# a comment\n00\n01  \n\n1 # trailing\n")
    assert prefix_set_from_file(str(p)).measure() == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("01\n013\n")
    with pytest.raises(SpecParseError, match=r"bad\.txt:2"):
        prefix_set_from_file(str(bad))

    bad.write_text("01\n0 1\n")
    with pytest.raises(SpecParseError, match=r"bad\.txt:2: expected `WORD`"):
        prefix_set_from_file(str(bad))
    bad.write_text("horizon 4\n01\n")
    with pytest.raises(SpecParseError, match="a prefix set takes no horizon"):
        prefix_set_from_file(str(bad))

    overlapping = tmp_path / "overlap.txt"
    overlapping.write_text("0\n01\n")
    with pytest.raises(SpecParseError, match="not prefix-free"):
        prefix_set_from_file(str(overlapping))

    with pytest.raises(SpecParseError, match="cannot read"):
        prefix_set_from_file(str(tmp_path / "absent.txt"))


def test_data_records(tmp_path):
    p = tmp_path / "r.txt"
    p.write_text("# stage word\nhorizon 7\n\n1 01  # trailing\n2 1\n")
    fields = (int, check_word)
    assert data_records(str(p), "", "`s WORD`", fields) == (7, [(4, (1, "01")), (5, (2, "1"))])
    p.write_text("1 01\n")
    assert data_records(str(p), "", "`s WORD`", fields) == (None, [(1, (1, "01"))])
    for text, message in [
        ("1 01 1\n", "r.txt:1: expected `s WORD`$"),
        ("x 01\n", "r.txt:1: invalid literal for int"),
        ("1 02\n", "r.txt:1: bad symbol '2'"),
        ("1 02\nhorizon\n", "r.txt:1: bad symbol '2'"),  # the first bad line in file order
        ("horizon 5\n1 02\n", "r.txt:2: bad symbol '2'"),
        ("horizon 5 6\n", "r.txt:1: bad horizon directive"),
        ("horizon 1\n1 0\nhorizon 1\n", "r.txt:3: bad horizon directive"),
        ("horizon x\n", "r.txt:1: bad horizon value"),
        ("horizon -5\n", "r.txt:1: bad horizon value$"),
    ]:
        p.write_text(text)
        with pytest.raises(SpecParseError, match=message):
            data_records(str(p), "", "`s WORD`", fields)
    with pytest.raises(SpecParseError, match="cannot read stage file .*absent"):
        data_records(str(tmp_path / "absent"), "stage file ", "`s WORD`", fields)
