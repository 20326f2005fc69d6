"""Staged enumerations, the collatz toy, string stages, decided sets, files."""

import pytest
from hypothesis import given, settings, strategies as st

from oneway.bitcore import pair, unpair
from oneway.errors import HorizonError, SpecParseError
from oneway.enumeration import (
    DecidedSet,
    StagedEnumeration,
    StagedStringEnumeration,
    _collatz_lengths,
    collatz_toy,
    column_hit,
    decided_set_from_file,
    enumeration_from_file,
    string_enum_from_file,
)
from oneway.streams import ones, zeros


class TestStagedEnumeration:
    def test_accumulation(self):
        w = StagedEnumeration.from_pairs([(4, 2), (7, 0), (9, 3)], horizon=12)
        assert [n for n in range(5) if w.member_at_stage(n, 3)] == []
        assert [n for n in range(5) if w.member_at_stage(n, 4)] == [2]
        assert [n for n in range(5) if w.member_at_stage(n, 9)] == [0, 2, 3]
        assert w.limit_members() == frozenset({0, 2, 3})
        assert w.member_at_stage(0, 7)
        assert not w.member_at_stage(0, 6)
        assert not w.member_at_stage(5, 12)
        assert w.new_element_at(7) == 0
        assert w.new_element_at(8) is None
        assert w.entry_stage(3) == 9
        assert w.entry_stage(99) is None
        assert w.pairs() == ((4, 2), (7, 0), (9, 3))

    def test_default_horizon_is_last_stage(self):
        w = StagedEnumeration.from_pairs([(4, 2), (9, 3)])
        assert w.horizon == 9

    def test_horizon_guards_every_stage_query(self):
        w = StagedEnumeration.from_pairs([(4, 2)], horizon=10)
        for query in (lambda: w.member_at_stage(2, 11),
                      lambda: w.new_element_at(11)):
            with pytest.raises(HorizonError):
                query()
        with pytest.raises(ValueError):
            w.member_at_stage(2, -1)

    def test_repeats_rejected(self):
        with pytest.raises(SpecParseError, match="element 2 repeated"):
            StagedEnumeration.from_pairs([(0, 2), (5, 2)])
        with pytest.raises(SpecParseError, match="stage 5 repeated"):
            StagedEnumeration.from_pairs([(5, 2), (5, 3)])
        with pytest.raises(SpecParseError, match="beyond horizon"):
            StagedEnumeration.from_pairs([(11, 2)], horizon=10)


class TestCollatzToy:
    def test_lengths(self):
        lengths = _collatz_lengths((1, 2, 3, 27))
        assert [lengths[n] for n in (1, 2, 3, 27)] == [0, 1, 7, 111]
        # the guard stops an endless 0 -> 0 walk
        with pytest.raises(ValueError):
            _collatz_lengths((0,))

    def test_small_schedule_frozen(self):
        w = collatz_toy(16, 25)
        assert w.pairs() == ((0, 1), (1, 2), (2, 4), (3, 8), (5, 5), (6, 10),
                             (7, 3), (8, 6), (9, 12), (10, 13), (14, 11),
                             (16, 7), (17, 14), (18, 15), (19, 9))

    def test_truncation_models_nonhalting(self):
        w = collatz_toy(16, 10)
        assert w.limit_members() == frozenset({1, 2, 4, 8, 5, 10, 3, 6, 12, 13})
        assert w.horizon == 10

    def test_reference_scale(self):
        w = collatz_toy(64, 10**4)
        assert w.limit_members() == frozenset(range(1, 64))
        assert w.pairs()[-1][0] == 113
        for n, s in ((1, 0), (2, 1), (4, 2), (8, 3), (5, 5), (3, 8), (6, 11), (7, 27)):
            assert w.entry_stage(n) == s


def reference_collatz_length(n: int) -> int:
    steps = 0
    while n != 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        steps += 1
    return steps


def reference_collatz_toy(max_element: int, max_stage: int) -> StagedEnumeration:
    """The two-pass toy the one-pass `collatz_toy` replaced: every trajectory
    walked from scratch, once for the ranking and once for the stage."""
    length = reference_collatz_length
    ranked = sorted(range(1, max_element), key=lambda n: (length(n), n))
    schedule = {}
    prev = -1
    for n in ranked:
        stage = max(length(n), prev + 1)
        if stage > max_stage:
            break
        schedule[stage] = n
        prev = stage
    return StagedEnumeration(schedule, max_stage, f"collatz:{max_element}:{max_stage}")


class TestCollatzOnePass:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(0, 400),
           st.one_of(st.integers(0, 300), st.sampled_from([10**4, 10**5])))
    def test_matches_the_two_pass_toy(self, max_element, max_stage):
        # small max_stage cuts the ranking short; the large ones never do
        got = collatz_toy(max_element, max_stage)
        want = reference_collatz_toy(max_element, max_stage)
        assert got.pairs() == want.pairs()
        assert (got.horizon, got.label) == (want.horizon, want.label)

    def test_lengths_match_a_fresh_walk(self):
        for n in range(1, 2000):
            assert _collatz_lengths((n,))[n] == reference_collatz_length(n), n
        lengths = _collatz_lengths((97, 871, 6171))
        assert [lengths[n] for n in (97, 871, 6171)] == [118, 178, 261]


def old_entrant(w: StagedEnumeration, m: int):
    """The per-bit test the table replaced: unpair, then the stage's entry."""
    n, s = unpair(m)
    return n if w.new_element_at(s) == n else None


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


class TestEntrant:
    def test_lookup_and_the_horizon_bound(self):
        w = StagedEnumeration.from_pairs([(5, 3), (12, 1)], horizon=12)
        bound = pair(0, 13)
        assert w.entrant(pair(3, 5)) == 3
        assert w.entrant(pair(1, 12)) == 1 == w.entrant(bound - 1)
        assert w.entrant(pair(3, 6)) is None
        with pytest.raises(HorizonError, match="stage 13 beyond horizon 12"):
            w.entrant(bound)
        # past the bound but at stage 0: unpaired, not an error
        assert w.entrant(pair(17, 0)) is None
        with pytest.raises(ValueError):
            w.entrant(-1)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.dictionaries(st.integers(0, 40), st.integers(0, 60), max_size=12),
           st.integers(0, 40), st.lists(st.integers(0, 3000), max_size=30))
    def test_agrees_with_unpair_and_new_element_at(self, schedule, extra, ms):
        stages = {}
        for s, n in schedule.items():
            if n not in stages.values():
                stages[s] = n
        w = StagedEnumeration(stages, max(stages, default=0) + extra)
        bound = pair(0, w.horizon + 1)
        for m in ms + [bound - 1, bound, pair(w.horizon + 5, 0)] + \
                [pair(n, s) for s, n in stages.items()]:
            assert outcome(w.entrant, m) == outcome(old_entrant, w, m), m


class TestStagedStringEnumeration:
    def test_accumulation_in_stage_order(self):
        u = StagedStringEnumeration.from_pairs([(3, "01"), (1, "11"), (8, "001")],
                                               horizon=10)
        assert u.words_at(0) == ()
        assert u.words_at(3) == ("11", "01")
        assert u.words_at(10) == ("11", "01", "001")
        with pytest.raises(HorizonError):
            u.words_at(11)

    def test_prefix_free_enforced(self):
        with pytest.raises(SpecParseError, match="comparable"):
            StagedStringEnumeration.from_pairs([(0, "0"), (1, "01")])
        with pytest.raises(SpecParseError, match="empty word"):
            StagedStringEnumeration.from_pairs([(0, "")])
        with pytest.raises(SpecParseError, match="stage 2 repeated"):
            StagedStringEnumeration.from_pairs([(2, "0"), (2, "1")])


class TestColumnHit:
    def test_verdicts(self):
        empty = StagedStringEnumeration.from_pairs([], horizon=5)
        assert not column_hit(empty, ones().bit, 5)
        u = StagedStringEnumeration.from_pairs([(2, "1")], horizon=5)
        assert column_hit(u, ones().bit, 5)
        assert not column_hit(u, ones().bit, 1)  # word not yet enumerated
        v = StagedStringEnumeration.from_pairs([(0, "10")], horizon=5)
        assert not column_hit(v, zeros().bit, 5)

    def test_reads_only_what_comparison_needs(self):
        reads = []

        def fn(i):
            reads.append(i)
            return 0

        u = StagedStringEnumeration.from_pairs([(0, "10"), (1, "0")], horizon=2)
        assert column_hit(u, fn, 2)
        assert reads == [0, 0]  # "10" fails at its first bit, "0" matches


class TestDecidedSet:
    def test_membership(self):
        d = DecidedSet({1, 4}, horizon=6)
        assert d.contains(4)
        assert not d.contains(5)
        assert [n for n in range(7) if d.contains(n)] == [1, 4]
        with pytest.raises(HorizonError, match="undecided beyond horizon"):
            d.contains(7)
        with pytest.raises(ValueError):
            d.contains(-1)

    def test_member_beyond_horizon_rejected(self):
        with pytest.raises(SpecParseError):
            DecidedSet({9}, horizon=6)

    def test_from_enumeration(self):
        w = StagedEnumeration.from_pairs([(4, 20)], horizon=10)
        d = DecidedSet.from_enumeration(w)
        assert d.contains(20)
        assert not d.contains(19)
        assert d.horizon == 20  # covers members even past the stage horizon


class TestFiles:
    def test_enumeration_file(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("# toy set\nhorizon 50\n3 7\n10 2  # late\n")
        w = enumeration_from_file(str(p))
        assert w.horizon == 50
        assert w.pairs() == ((3, 7), (10, 2))
        assert w.label == str(p)

    def test_enumeration_file_errors(self, tmp_path):
        cases = [
            ("3 7 9\n", "expected `s n`"),
            ("3 x\n", "expected integers"),
            ("horizon\n", "bad horizon directive"),
            ("horizon 5\nhorizon 6\n", "bad horizon directive"),
            ("horizon x\n", "bad horizon value"),
            ("horizon -5\n", "bad.txt:1: bad horizon value$"),
            ("3 x\nhorizon\n", "bad.txt:1: expected integers"),  # the first bad line
            ("3 7\n4 7\n", "element 7 repeated"),
        ]
        for text, message in cases:
            p = tmp_path / "bad.txt"
            p.write_text(text)
            with pytest.raises(SpecParseError, match=message):
                enumeration_from_file(str(p))
        with pytest.raises(SpecParseError, match="cannot read"):
            enumeration_from_file(str(tmp_path / "absent.txt"))

    def test_string_enum_file(self, tmp_path):
        p = tmp_path / "u.txt"
        p.write_text("horizon 64\n2 00\n5 1\n")
        u = string_enum_from_file(str(p))
        assert u.words_at(5) == ("00", "1")
        assert u.horizon == 64
        p.write_text("2 02\n")
        with pytest.raises(SpecParseError):
            string_enum_from_file(str(p))

    def test_decided_set_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("3\n5\n")
        d = decided_set_from_file(str(p))
        assert d.contains(5) and not d.contains(4)
        assert d.horizon == 5  # defaults to the largest member
        p.write_text("horizon 9\n3\n")
        assert not decided_set_from_file(str(p)).contains(9)
        p.write_text("3 5\n")
        with pytest.raises(SpecParseError, match="single natural"):
            decided_set_from_file(str(p))
