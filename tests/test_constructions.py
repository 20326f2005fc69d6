"""Marker runs, injections, and the shipped one-way constructions."""

import dataclasses

import pytest

from oneway.bitcore import pair
from oneway.constructions import (
    ConstructionHandle,
    Injection,
    MarkerStep,
    MarkerTrace,
    bit_select,
    double_injection,
    identity_injection,
    marker_run_v1,
    marker_run_v2,
    one_way_surjection,
    partial_injection,
    shift_injection,
    simple_one_way,
    stage_where_counter_reaches,
    surjection_injection,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
    z_builder_v1,
    z_builder_v2,
)
from oneway.enumeration import (
    DecidedSet,
    StagedEnumeration,
    StagedStringEnumeration,
)
from oneway.errors import DivergenceError, HorizonError, InjectivityError
from oneway.streams import (
    OracleTape,
    Representation,
    column_source,
    evaluate,
    evaluate_bit,
    finite,
    interleaved,
    ones,
    output_source,
    periodic,
    random_source,
    zeros,
)
from test_streams import prefix_of


def empty_enum(horizon):
    return StagedEnumeration.from_pairs([], horizon=horizon)


class TestMarkerV1:
    def test_always_permitted(self):
        trace = marker_run_v1(empty_enum(10), ones(), 6)
        assert [trace.k_at(s) for s in range(7)] == [0, 1, 2, 3, 4, 5, 6]
        assert [trace.d_at(s) for s in range(7)] == [0, 1, 2, 3, 4, 5, 6]
        assert trace.p_values() == (0, 1, 2, 3, 4, 5)
        assert all(step.permission == "z" for step in trace.steps)
        trace.assert_invariants()

    def test_never_permitted(self):
        trace = marker_run_v1(empty_enum(10), zeros(), 6)
        assert trace.k_final == 0
        assert trace.d_final == 0
        assert trace.p_values() == (1, 2, 3, 4, 5, 6)
        assert "stuck" in trace.stuck_report()
        trace.assert_invariants()

    def test_halting_release(self):
        w = StagedEnumeration.from_pairs([(3, 0)], horizon=10)
        trace = marker_run_v1(w, zeros(), 7)
        assert [trace.k_at(s) for s in range(8)] == [0, 0, 0, 0, 4, 4, 4, 4]
        assert [trace.d_at(s) for s in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert trace.p_values() == (1, 2, 3, 0, 5, 6, 7)
        assert trace.steps[3].permission == "halting"
        assert trace.least_stage_with_k(4) == 4
        assert trace.least_stage_with_k(99) is None
        trace.assert_invariants()

    def test_stuck_then_released_by_entry(self):
        # z grants everywhere except column 2, so k climbs to 2 and waits
        # for the enumeration to list 2 at stage 5, then climbs freely
        w = StagedEnumeration.from_pairs([(5, 2)], horizon=12)
        trace = marker_run_v1(w, z_builder_v1(2), 12)
        assert trace.least_stage_with_k(2) == 2
        assert [trace.k_at(s) for s in range(2, 6)] == [2, 2, 2, 2]
        assert trace.steps[5].permission == "halting"
        assert trace.k_final == 12
        assert trace.p_values() == (0, 1, 3, 4, 5, 2, 6, 7, 8, 9, 10, 11)
        trace.assert_invariants()

    def test_horizon_guard(self):
        with pytest.raises(HorizonError):
            marker_run_v1(empty_enum(5), ones(), 6)


class TestMarkerV2:
    def test_column_keyed_permissions(self):
        u = StagedStringEnumeration.from_pairs([(2, "00")], horizon=10)
        trace = marker_run_v2(empty_enum(10), u, zeros(), 6)
        assert [trace.k_at(s) for s in range(7)] == [0, 0, 0, 3, 4, 5, 6]
        assert [trace.d_at(s) for s in range(7)] == [0, 0, 0, 1, 2, 3, 4]
        assert trace.p_values() == (1, 2, 0, 3, 4, 5)
        trace.assert_invariants()

    def test_horizon_is_joint(self):
        u = StagedStringEnumeration.from_pairs([(2, "00")], horizon=4)
        with pytest.raises(HorizonError):
            marker_run_v2(empty_enum(10), u, zeros(), 5)


def hand_trace(rows, k_final, d_final):
    """A trace from (k, d, p, permission) rows, one per stage."""
    return MarkerTrace(tuple(MarkerStep(s, *row) for s, row in enumerate(rows)),
                       k_final, d_final)


class TestMarkerTraceInvariants:
    @pytest.mark.parametrize("trace, message", [
        (hand_trace([(0, 0, 1, None)], 2, 0), "k jump at stage 0: 0->2"),
        (hand_trace([(5, 0, 1, None), (5, 0, 2, None), (5, 0, 3, None)], 3, 0),
         "k decreased at stage 2"),
        (hand_trace([(0, 0, 1, None), (0, 1, 2, None)], 0, 1), "d miscount at stage 0"),
        (hand_trace([(0, 0, 0, None)], 1, 1), "update without permission at stage 0"),
        (hand_trace([(0, 0, 1, None), (0, 0, 1, None)], 0, 0),
         "p should be s+1 at idle stage 1"),
        (hand_trace([(0, 0, 0, "z")], 0, 0), "permission without update at stage 0"),
        (hand_trace([(0, 0, 1, "halting")], 1, 1), "p should vacate k at update stage 0"),
        # k_0 = 1 keeps every stage locally consistent but selects 1 twice
        (hand_trace([(1, 0, 1, None), (1, 0, 1, "z")], 2, 1), "p not injective"),
        (hand_trace([], 1, 0), "range identity fails at stage 0: [] != [0]"),
        (hand_trace([(-1, 0, 1, None)], -1, 0), "range identity fails at stage 0: [] != [0]"),
        (hand_trace([(3, 0, 1, None), (3, 0, 2, None)], 3, 0),
         "range identity fails at stage 0: [] != [0]"),
    ])
    def test_each_violation_names_its_stage(self, trace, message):
        with pytest.raises(AssertionError) as exc:
            trace.assert_invariants()
        assert str(exc.value) == message


class TestInjections:
    def test_builtin_maps(self):
        ident, double, shift = identity_injection(), double_injection(), shift_injection()
        assert [ident.fn(n) for n in range(4)] == [0, 1, 2, 3]
        assert [double.fn(n) for n in range(4)] == [0, 2, 4, 6]
        assert [shift.fn(n) for n in range(4)] == [1, 2, 3, 4]
        assert double.inverse(6) == 3
        assert double.inverse(5) is None
        assert shift.inverse(0) is None
        assert shift.inverse(1) == 0
        assert ident.inverse(7) == 7

    def test_collision_detected(self):
        bad = Injection("bad", lambda n: n // 2, lambda m: 2 * m)
        with pytest.raises(InjectivityError, match="maps 0 and 1 both to 0"):
            bad.check_injective(2)
        bad.check_injective(1)
        # the check keeps no history on the map, so a collision never raises there
        assert [bad.fn(0), bad.fn(1), bad.fn(0)] == [0, 0, 0]

    def test_inverse_is_required(self):
        with pytest.raises(TypeError):
            Injection("fwd", lambda n: n + 3)

    def test_negative_position_refused_at_its_bit(self):
        """A map that goes negative at n = 4: bits 0..3 read positions 3..0,
        and bit 4 is a ValueError, in evaluate's one pass and in a barrier
        search alike, as when the injection checked its own values."""
        f = bit_select(Injection("down", lambda n: 3 - n, lambda m: 3 - m if m <= 3 else None))
        assert evaluate(f, finite("1011"), 4).output == "1101"
        with pytest.raises(ValueError, match="natural"):
            evaluate(f, finite("1011"), 5)
        rep = Representation(f, 4, 8)
        assert rep.map_word("101") == ""  # bit 0 reads position 3, past the barrier
        with pytest.raises(ValueError, match="natural"):
            rep.map_word("1011")

    def test_surjection_injection_frozen(self):
        w = StagedEnumeration.from_pairs([(1, 2)], horizon=8)
        p = surjection_injection(w)
        assert p.fn(7) == 4  # 7 = ⟨2,1⟩ and 2 enters at stage 1
        assert [p.fn(m) for m in range(7)] == [1, 3, 5, 7, 9, 11, 13]
        assert p.inverse(4) == 7
        assert p.inverse(2) is None  # 1 never enters, so 2 has no preimage
        assert p.inverse(9) == 4

    def test_surjection_injection_is_injective_at_scale(self):
        from oneway.enumeration import collatz_toy
        p = surjection_injection(collatz_toy(16, 100))
        p.check_injective(512)
        values = [p.fn(m) for m in range(512)]
        assert len(set(values)) == 512
        for m in range(512):
            assert p.inverse(values[m]) == m


class TestBitSelectAndWitness:
    def test_bit_select_frozen(self):
        assert tuple(evaluate(bit_select(double_injection()), periodic("10"), 3)) \
            == ("111", 5)
        assert tuple(evaluate(bit_select(shift_injection()), finite("01"), 4)) \
            == ("1000", 5)

    def test_witness_frozen(self):
        # double: interleave with zeros; shift: prepend a zero
        assert evaluate(witness_function(double_injection()), periodic("1"), 8).output \
            == "10101010"
        assert evaluate(witness_function(shift_injection()), periodic("1"), 5).output \
            == "01111"

    def test_negative_output_bit_rejected(self):
        # double's inverse maps -1 to None, which once gave the bit (0, 0)
        with pytest.raises(ValueError, match="output bit must be a natural, got -1"):
            evaluate_bit(witness_function(double_injection()), zeros(), -1)

    @pytest.mark.parametrize("make", [identity_injection, double_injection,
                                      shift_injection])
    def test_select_inverts_witness(self, make):
        y = random_source(3)
        x = output_source(witness_function(make()), y)
        assert evaluate(bit_select(make()), x, 24).output == prefix_of(y, 24)
        # y(n) at position p(n), zeros off the range of p
        p = make()
        assert prefix_of(x, 24) == "".join(
            "0" if p.inverse(m) is None else str(y.bit(p.inverse(m))) for m in range(24))


class TestSimpleAndPartial:
    def test_simple_one_way_frozen(self):
        f = simple_one_way(StagedEnumeration.from_pairs([(1, 2)], horizon=8))
        assert tuple(evaluate(f, periodic("001"), 8)) == ("00000001", 3)

    def test_partial_injection_total_on_decided_support(self):
        w = StagedEnumeration.from_pairs([(1, 2)], horizon=8)
        f = partial_injection(w, DecidedSet({2}, horizon=8))
        result = evaluate(f, finite("001"), 16)
        assert result.output == "0000000000000010"

    def test_partial_injection_diverges_off_domain(self):
        w = StagedEnumeration.from_pairs([(1, 2)], horizon=8)
        f = partial_injection(w, DecidedSet({2}, horizon=8))
        with pytest.raises(DivergenceError, match="input bit 0 is set but undecided"):
            evaluate(f, finite("1"), 4)

    def test_partial_injection_injective_on_domain(self):
        w = StagedEnumeration.from_pairs([(1, 2), (3, 0)], horizon=8)
        f = partial_injection(w, DecidedSet({0, 2}, horizon=8))
        outputs = set()
        for a in "01":
            for b in "01":
                x = column_source({}, finite(a + "0" + b))
                outputs.add(evaluate(f, finite(a + "0" + b), 40).output)
        assert len(outputs) == 4

    def test_partial_injection_requires_listed_members_decided(self):
        w = StagedEnumeration.from_pairs([(1, 3)], horizon=8)
        with pytest.raises(ValueError, match="lists 3"):
            partial_injection(w, DecidedSet({2}, horizon=8))


class TestTwoToOne:
    def test_v1_identity_under_full_permission(self):
        f = two_to_one_v1(empty_enum(20))
        x_and_z = interleaved(periodic("01"), ones())
        assert evaluate(f, x_and_z, 8).output == "01110111"

    def test_v1_shift_under_no_permission(self):
        f = two_to_one_v1(empty_enum(20))
        assert tuple(evaluate(f, interleaved(finite("01"), zeros()), 2)) == ("10", 3)
        assert evaluate(f, interleaved(finite("01"), zeros()), 6).output == "100000"

    def test_v1_odd_bits_copy_z(self):
        f = two_to_one_v1(empty_enum(20))
        z = random_source(9)
        out = evaluate(f, interleaved(zeros(), z), 16).output
        assert out[1::2] == prefix_of(z, 8)

    def test_v1_horizon(self):
        f = two_to_one_v1(empty_enum(3))
        with pytest.raises(HorizonError):
            evaluate(f, interleaved(zeros(), zeros()), 8)

    def test_v2_identity_when_every_column_hits(self):
        u = StagedStringEnumeration.from_pairs([(0, "1")], horizon=20)
        f = two_to_one_v2(empty_enum(20), u)
        x_and_z = interleaved(periodic("01"), ones())
        assert evaluate(f, x_and_z, 8).output == "01110111"

    def test_v2_joint_horizon(self):
        u = StagedStringEnumeration.from_pairs([(0, "1")], horizon=3)
        f = two_to_one_v2(empty_enum(20), u)
        with pytest.raises(HorizonError):
            evaluate(f, interleaved(zeros(), ones()), 8)

    def test_even_bit_budget_pays_only_new_stages(self):
        # with every stage permitted on its first z read, bit 2s adds one
        # stage (one read) and reads x(p_s): two reads however large s is
        u = StagedStringEnumeration.from_pairs([(0, "1")], horizon=200)
        x_and_z = interleaved(periodic("01"), ones())
        for f in (two_to_one_v1(empty_enum(200)), two_to_one_v2(empty_enum(200), u)):
            assert evaluate(f, x_and_z, 256, budget=2) == evaluate(f, x_and_z, 256)
            # a fresh tape runs all s+1 stages for bit 2s
            with pytest.raises(DivergenceError):
                evaluate_bit(f, x_and_z, 20, budget=2)

    def test_failed_bit_leaves_no_stage_the_tape_forgot(self):
        # bit 4 runs stage 1, which reads position 9, then fails under the
        # barrier at stage 2; bit 2 needs stage 1, so it runs it again
        f = two_to_one_v1(empty_enum(10**6))
        x = interleaved(random_source(5), ones())
        tape = OracleTape(x, barrier=10)
        assert tape.try_emit(f, 4) is None
        tape.barrier = None
        fresh = OracleTape(x)
        assert [tape.emit(f, m) for m in range(5)] == [fresh.emit(f, m) for m in range(5)]
        assert tape.positions_read() == fresh.positions_read() == (0, 1, 2, 3, 4, 9, 25)

    def test_bit_out_of_steps_keeps_no_stages(self):
        # a retry under the same budget starts from the same stage, so it
        # runs out of steps the same way
        u = StagedStringEnumeration.from_pairs([(0, "1")], horizon=200)
        x_and_z = interleaved(periodic("01"), ones())
        for f in (two_to_one_v1(empty_enum(200)), two_to_one_v2(empty_enum(200), u)):
            tape = OracleTape(x_and_z, budget=2)
            assert [tape.try_emit(f, 20) for _ in range(12)] == [None] * 12
            assert tape.positions_read() == ()

    def test_odd_bit_budget_pays_only_new_guard_positions(self):
        # bit 2j+1 checks only position j once the bits before it ran on the
        # same tape; on a fresh tape it checks all j+1 positions
        B = 3
        f = partial_injection(StagedEnumeration.from_pairs([(1, 2)], horizon=64),
                              DecidedSet({2, 5}, horizon=64))
        x = finite("001001")
        assert evaluate(f, x, 4 * B + 8, budget=B) == evaluate(f, x, 4 * B + 8)
        with pytest.raises(DivergenceError) as exc:
            evaluate_bit(f, x, 2 * B + 1, budget=B)
        assert (exc.value.bit_index, exc.value.reason) == (2 * B + 1, "step budget exhausted")


class TestZBuilderAndColumns:
    def test_z_builder_blocks_one_column(self):
        z = z_builder_v1(2)
        assert z.bit(pair(2, 5)) == 0
        assert z.bit(pair(1, 5)) == 1
        assert z.bit(pair(3, 0)) == 1

    def test_z_builder_zeta_prefix(self):
        z = z_builder_v1(0, zeta="101")
        assert [z.bit(m) for m in range(3)] == [1, 0, 1]
        # past the prefix the column formula takes over
        assert z.bit(pair(0, 2)) == 0 if pair(0, 2) >= 3 else True

    def test_replace_column(self):
        w = column_source({2: zeros()}, ones())
        assert w.bit(pair(2, 4)) == 0
        assert w.bit(pair(1, 4)) == 1
        u = StagedStringEnumeration.from_pairs([(1, "01")], horizon=8)
        with pytest.raises(ValueError, match="^column index must be a natural$"):
            z_builder_v2(u, -1)


def tau(d):
    # equal lengths keep the family prefix-free for d up to 15
    return "1" + format(d, "04b")


def counter_fixture(n, toy_pairs=()):
    """The d-keyed stuck fixture: column d of z matches τ_d except column n."""
    u = StagedStringEnumeration.from_pairs(
        [(d + 1, tau(d)) for d in range(9)], horizon=64)
    z = column_source({**{i: finite(tau(i)) for i in range(9)}, n: zeros()}, zeros())
    w = StagedEnumeration.from_pairs(list(toy_pairs), horizon=64)
    return w, u, z


class TestStageWhereCounterReaches:
    def test_counter_sticks_at_blocked_column(self):
        w, u, z = counter_fixture(3)
        assert [stage_where_counter_reaches(w, u, z, d) for d in range(4)] \
            == [0, 2, 3, 4]
        with pytest.raises(HorizonError, match="counter reached 3, not 4"):
            stage_where_counter_reaches(w, u, z, 4)

    def test_counter_sticks_later(self):
        w, u, z = counter_fixture(6)
        assert stage_where_counter_reaches(w, u, z, 6) == 7
        with pytest.raises(HorizonError):
            stage_where_counter_reaches(w, u, z, 7)

    def test_enumeration_entry_unsticks(self):
        w, u, z = counter_fixture(3, toy_pairs=[(9, 3)])
        assert [stage_where_counter_reaches(w, u, z, d) for d in range(4, 9)] \
            == [10, 11, 12, 13, 14]
        assert stage_where_counter_reaches(w, u, z, 9) == 15
        with pytest.raises(HorizonError, match="reached 9, not 10"):
            stage_where_counter_reaches(w, u, z, 10)

    def test_rejects_negative_target(self):
        w, u, z = counter_fixture(3)
        with pytest.raises(ValueError):
            stage_where_counter_reaches(w, u, z, -1)

    def test_runs_only_the_stages_it_needs(self):
        """The run stops at the first stage where d = n: each stage asks W
        once, so s stages ask it s times, not once per stage of the horizon."""
        w, u, z = counter_fixture(9)
        asked = []
        w.member_at_stage = lambda k, s: asked.append(s) or False
        assert [stage_where_counter_reaches(w, u, z, d) for d in (3, 0)] == [4, 0]
        assert asked == [0, 1, 2, 3]

    def test_stops_where_the_counter_cannot_move(self):
        """With no word in U only W moves the counter: once d = 1, which W
        never enumerates, the run ends with the horizon's text at once
        instead of asking W at every stage up to the horizon."""
        w = StagedEnumeration.from_pairs([(2, 0)], horizon=10**5)
        u = StagedStringEnumeration.from_pairs([], horizon=10**5)
        asked, member = [], w.member_at_stage
        w.member_at_stage = lambda k, s: asked.append(s) or member(k, s)
        with pytest.raises(HorizonError, match="^counter reached 1, not 3, within horizon 10+$"):
            stage_where_counter_reaches(w, u, zeros(), 3)
        assert asked == [0, 1, 2]


class TestZBuilderV2:
    def test_counter_runs_as_on_the_test_fixture(self):
        """Every column but n carries U's first word (τ_0, entering at stage
        1), the fixture's column d carries τ_d (entering at d+1): the counter
        moves at the same stages below 9 and sticks on n in both."""
        for n in range(9):
            w, u, fixture = counter_fixture(n)
            built = z_builder_v2(u, n)
            assert [stage_where_counter_reaches(w, u, built, d) for d in range(n + 1)] == \
                [stage_where_counter_reaches(w, u, fixture, d) for d in range(n + 1)]
            with pytest.raises(HorizonError, match=f"counter reached {n}, not {n + 1}"):
                stage_where_counter_reaches(w, u, built, n + 1)

    def test_blocked_column_escapes_every_word(self):
        u = StagedStringEnumeration.from_pairs([(1, "0"), (2, "10"), (3, "111")], horizon=8)
        z = z_builder_v2(u, 2)
        # column 2 is 110 0^ω, the first word that none of 0, 10, 111 is a prefix of
        assert [z.bit(pair(2, i)) for i in range(5)] == [1, 1, 0, 0, 0]
        assert [z.bit(pair(c, i)) for c in (0, 3) for i in range(3)] == [0, 0, 0] * 2

    def test_words_covering_every_column(self):
        u = StagedStringEnumeration.from_pairs([(1, "0"), (2, "11"), (3, "10")], horizon=8)
        with pytest.raises(ValueError, match="every column extends a word"):
            z_builder_v2(u, 0)

    def test_empty_word_set_leaves_zeros(self):
        z = z_builder_v2(StagedStringEnumeration.from_pairs([], horizon=8), 1)
        assert {z.bit(m) for m in range(40)} == {0}


def test_construction_handle_is_frozen():
    handle = ConstructionHandle("identity", "identity", bit_select(identity_injection()))
    assert handle.family == "identity"
    assert handle.w is None
    with pytest.raises(dataclasses.FrozenInstanceError):
        handle.family = "other"
