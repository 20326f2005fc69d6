"""Inverters, extraction adversaries, and fiber evidence."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oneway.bitcore import pair
from oneway.constructions import (
    bit_select,
    double_injection,
    identity_injection,
    marker_run_v1,
    one_way_surjection,
    shift_injection,
    simple_one_way,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
)
from oneway.enumeration import (
    StagedEnumeration,
    StagedStringEnumeration,
    collatz_toy,
)
from oneway.errors import (
    ConsistencyError,
    DeskError,
    DivergenceError,
    HorizonError,
    MeasureThresholdError,
    NotInRangeError,
    NotSingletonError,
)
import oneway.inversion as INV
from oneway.inversion import (
    FiberCount,
    InverterUnderTest,
    _dovetail_leaves,
    extract_randomized,
    extract_simple,
    extract_two_to_one,
    fiber_branch_count,
    inverts_at_finite_stage,
    reference_inverter_simple,
    reference_inverter_surjection,
    reference_inverter_two_to_one,
    unique_path_invert,
)
from oneway.streams import (
    MAX_BITS,
    OracleTape,
    RealFunction,
    Representation,
    evaluate,
    finite,
    interleaved,
    mutate_beyond_use,
    ones,
    output_source,
    random_source,
    zeros,
)

from test_acceptance import calibrated_len
from test_fork_differential import dovetail_fixtures, fiber_fixtures
from test_marker_differential import fixed_limit_inverter, outcome


def enum(pairs, horizon):
    return StagedEnumeration.from_pairs(pairs, horizon=horizon)


def tapes_emitting(g, m):
    """g, and the list of tapes on which it emits bit m, in order."""
    tapes = []

    def emit(tape, j):
        if j == m:
            tapes.append(tape)
        return g.g.emit(tape, j)

    return InverterUnderTest(RealFunction(g.g.name, emit), g.binary), tapes


def only_bit(m):
    """A unary inverter whose bit m is 0 from no reads and whose every other
    bit diverges."""

    def emit(tape, j):
        if j == m:
            return 0
        raise DivergenceError(j, "spun out")

    return InverterUnderTest(RealFunction(f"only{m}", emit))


class TestUniquePathInvert:
    """Levelwise consensus recovers preimages of injective maps."""

    @pytest.mark.parametrize("build,out_cap", [
        (lambda: bit_select(identity_injection()), None),
        (lambda: witness_function(shift_injection()), None),
        (lambda: witness_function(double_injection()), 80),
    ])
    def test_recovers_32_bits(self, build, out_cap):
        f = build()
        x = random_source(7)
        rep = Representation(f, 40, out_cap)
        got = unique_path_invert(rep, output_source(f, x), 32)
        assert got == "".join(str(x.bit(i)) for i in range(32))
        # round trip through the recovered prefix
        assert evaluate(f, finite(got), 32).output == evaluate(f, x, 32).output

    def test_lost_bits_never_reach_consensus(self):
        # selection along n -> 2n drops every odd input bit
        f = bit_select(double_injection())
        rep = Representation(f, 16)
        y = output_source(f, random_source(7))
        with pytest.raises(NotSingletonError, match="no 8-bit consensus by depth 16"):
            unique_path_invert(rep, y, 8)

    def test_not_in_range(self):
        # the shift witness always outputs 0 first; 1^ω has no preimage
        rep = Representation(witness_function(shift_injection()), 8)
        with pytest.raises(NotInRangeError, match="not in range at depth 0"):
            unique_path_invert(rep, ones(), 4)

    def test_negative_bit_count(self):
        rep = Representation(bit_select(identity_injection()), 8)
        with pytest.raises(ValueError, match=f"bit count must be a natural at most {MAX_BITS}, "
                                             "got -1"):
            unique_path_invert(rep, zeros(), -1)

    def test_negative_survivor_cap(self):
        rep = Representation(bit_select(identity_injection()), 8)
        with pytest.raises(ValueError, match="survivor cap must be a natural, got -1"):
            unique_path_invert(rep, zeros(), 2, survivor_cap=-1)

    def test_survivor_cap(self):
        rep = Representation(RealFunction("const0", lambda tape, m: 0), 8)
        with pytest.raises(NotSingletonError, match="16 surviving words at depth 4"):
            unique_path_invert(rep, zeros(), 2, survivor_cap=8)


class TestReferenceInverters:
    def test_simple_round_trip(self):
        toy = collatz_toy(16, 10**3)
        f = simple_one_way(toy)
        g = reference_inverter_simple(toy)
        y = output_source(f, random_source(3))
        assert inverts_at_finite_stage(f, g, y, 24).state == "consistent"

    def test_surjection_round_trip(self):
        toy = collatz_toy(16, 10**3)
        f = one_way_surjection(toy)
        g = reference_inverter_surjection(toy)
        y = output_source(f, interleaved(random_source(4), zeros()))
        yr = interleaved(y, random_source(5))
        fx = output_source(f, output_source(g.g, yr))
        assert all(fx.bit(m) == yr.bit(2 * m) for m in range(24))

    def test_two_to_one_round_trip(self):
        w = enum([(3, 5)], 10**5)
        f = two_to_one_v1(w)
        g = reference_inverter_two_to_one(w)
        y = output_source(f, interleaved(random_source(6), random_source(16)))
        assert inverts_at_finite_stage(f, g, y, 24).state == "consistent"

    def test_two_to_one_failed_bit_drops_its_marker_stages(self):
        """A bit that diverges runs marker stages whose reads the tape
        forgets; it must drop them too, so a later bit reads what it reads
        on a fresh tape."""
        g = fixed_limit_inverter(enum([], 300), 6).g
        tape, fresh = OracleTape(zeros()), OracleTape(zeros())
        assert tape.try_emit(g, 20) is None
        assert tape.try_emit(g, 2) == fresh.try_emit(g, 2) == 0
        assert tape.positions_read() == fresh.positions_read() == (0, 1)


class TestExtractSimple:
    def test_empty_enumeration_all_non_members(self):
        w = enum([], 100)
        g = reference_inverter_simple(w)
        for n in (0, 3, 7):
            v = extract_simple(g, w, n)
            assert v.line() == f"n={n} member=false use=0 stagebound=0"

    def test_single_entry_table(self):
        w = enum([(1, 2)], 100)  # element 2 enters at stage 1
        g = reference_inverter_simple(w)
        lines = [extract_simple(g, w, n).line() for n in range(4)]
        assert lines == [
            "n=0 member=false use=0 stagebound=0",
            "n=1 member=false use=0 stagebound=0",
            "n=2 member=true use=8 stagebound=8",  # reads position ⟨2,1⟩ = 7
            "n=3 member=false use=0 stagebound=0",
        ]

    def test_toy_sweep_matches_membership(self):
        toy = collatz_toy(16, 10**3)
        g = reference_inverter_simple(toy)
        verdicts = [extract_simple(g, toy, n) for n in range(16)]
        assert [v.element for v in verdicts if v.member] == list(range(1, 16))
        assert verdicts[7].line() == "n=7 member=true use=293 stagebound=293"

    def test_use_beyond_horizon(self):
        toy = collatz_toy(16, 25)
        g = reference_inverter_simple(toy)
        with pytest.raises(HorizonError, match="stage 580 beyond horizon 25"):
            extract_simple(g, toy, 15)

    def test_positive_witness_bit(self):
        # a set bit certifies non-membership with no stage bound at all
        g = InverterUnderTest(RealFunction("allones", lambda tape, m: 1))
        v = extract_simple(g, enum([(1, 2)], 100), 3)
        assert v.line() == "n=3 member=false use=0 stagebound=-"
        assert v.evidence == "positive witness bit"

    def test_zero_inversion_validation(self):
        g = InverterUnderTest(RealFunction("allones", lambda tape, m: 1))
        with pytest.raises(ConsistencyError, match="fails on the zero real"):
            extract_simple(g, enum([(1, 2)], 100), 2)

    def test_rejects_binary_inverter(self):
        toy = collatz_toy(16, 10**3)
        with pytest.raises(ValueError, match="unary"):
            extract_simple(reference_inverter_surjection(toy), toy, 2)

    def test_audited_bit_runs_once_before_its_mutations(self):
        # n = 3 never enters, so the audit of f(g(0^ω)) does not read bit 3
        w = enum([(1, 2)], 100)
        g, tapes = tapes_emitting(reference_inverter_simple(w), 3)
        assert extract_simple(g, w, 3).line() == "n=3 member=false use=0 stagebound=0"
        assert len({id(tape) for tape in tapes}) == len(tapes) == 1 + 6  # six mutations

    @pytest.mark.parametrize("n,audited", [(0, [0]), (1, [0, 1]), (2, [0, 1, 2, 3])])
    def test_audit_emits_each_position_once(self, monkeypatch, n, audited):
        # n enters at stage 0, so ⟨n,0⟩ is n for n ≤ 1 and 3 for n = 2
        w = enum([(0, n)], 100)
        emitted = []

        def counting(w):
            f = simple_one_way(w)
            return RealFunction(f.name, lambda tape, m: emitted.append(m) or f.emit(tape, m))

        monkeypatch.setattr(INV, "simple_one_way", counting)
        assert extract_simple(reference_inverter_simple(w), w, n).member
        assert emitted == audited

    def test_validation_divergence(self):
        # f's bit ⟨1,1⟩ = 4 reads g's bit 1, which diverges
        with pytest.raises(DivergenceError,
                           match="^no output bit at index 4: inverter validation diverged$"):
            extract_simple(only_bit(5), enum([(1, 1)], 100), 5)


class TestExtractRandomized:
    """Dovetail collection over a cylinder, crossing half its measure."""

    def fixture(self):
        w = enum([(1, 2)], 20)
        return reference_inverter_surjection(w), one_way_surjection(w), w

    def test_negative_element(self):
        g, f, w = self.fixture()
        with pytest.raises(ValueError, match="^element must be a natural, got -1$"):
            extract_randomized(g, f, "", w, -1)

    def test_member_crossing(self):
        g, f, w = self.fixture()
        v = extract_randomized(g, f, "", w, 2)
        assert v.line() == "n=2 member=true use=15 stagebound=15"
        rec = v.evidence
        assert rec.k == 15
        assert rec.words_collected == 16385
        assert rec.measure == Fraction(16385, 32768)
        assert rec.measure > rec.threshold == Fraction(1, 2)
        rec.assert_prefix_free()

    def test_non_member_trivial_crossing(self):
        g, f, w = self.fixture()
        v = extract_randomized(g, f, "", w, 3)
        assert v.line() == "n=3 member=false use=0 stagebound=0"
        assert v.evidence.words_collected == 1
        assert tuple(v.evidence.materialize()) == ("",)

    def test_relativized_cylinder(self):
        g, f, w = self.fixture()
        v = extract_randomized(g, f, "1", w, 2)
        assert v.line() == "n=2 member=true use=15 stagebound=15"
        assert v.evidence.words_collected == 8193
        assert v.evidence.measure == Fraction(8193, 32768)
        assert v.evidence.measure > Fraction(1, 4)

    def test_validation_refutes_a_non_inverter(self):
        _, f, w = self.fixture()
        g = InverterUnderTest(RealFunction("zero", lambda tape, m: 0), binary=True)
        with pytest.raises(ConsistencyError,
                           match=r"fails over ⟦1⟧: f\(g\(y,r\)\) differs from y at bit 0"):
            extract_randomized(g, f, "1", w, 2)

    def test_validation_divergence(self):
        _, f, w = self.fixture()

        def spin(tape, m):
            i = 0
            while True:
                tape.read(i)
                i += 1

        g = InverterUnderTest(RealFunction("spin", spin), binary=True)
        with pytest.raises(DivergenceError, match="inverter validation diverged") as err:
            extract_randomized(g, f, "", w, 2, run_budget=50)
        # f's bit 0 reads g's bit 1 (the injection maps 0 to 1): the bit of
        # f∘g without a value is 0
        assert err.value.bit_index == 0

    def test_materialize_cap(self):
        g, f, w = self.fixture()
        rec = extract_randomized(g, f, "", w, 2).evidence
        with pytest.raises(ValueError, match="16385 words, over cap 100"):
            rec.materialize(cap=100)

    def test_tiny_collection_is_literal(self):
        w = enum([(0, 0)], 20)
        v = extract_randomized(reference_inverter_surjection(w),
                               one_way_surjection(w), "", w, 0)
        assert v.line() == "n=0 member=true use=1 stagebound=1"
        wt = v.evidence.materialize()
        assert tuple(wt) == ("0", "1")
        assert wt.intersect_measure("") == Fraction(1)

    def test_measure_never_crosses(self):
        _, f, w = self.fixture()

        def half(tape, m):
            if tape.read(0) == 1:
                raise DivergenceError(m, "spun out")
            return 0

        g = InverterUnderTest(RealFunction("half", half), binary=True)
        with pytest.raises(MeasureThresholdError,
                           match="cover only 1/2 of ⟦ε⟧, never exceeding 1/2"):
            extract_randomized(g, f, "", w, 1)

    def test_fork_tree_budget(self):
        _, f, w = self.fixture()

        # inverts f on 0^ω, which the audit reads, and scans without end past a 1 at 0
        def deep(tape, m):
            if tape.read(0):
                i = 1
                while True:
                    tape.read(i)
                    i += 1
            return 0

        g = InverterUnderTest(RealFunction("deep", deep), binary=True)
        with pytest.raises(MeasureThresholdError, match="exceeded 50 nodes"):
            extract_randomized(g, f, "", w, 1, node_budget=50, run_budget=10**4)

    def test_validation_against_wrong_function(self):
        g, _, w = self.fixture()
        wrong = one_way_surjection(enum([(0, 0)], 20))
        with pytest.raises(ConsistencyError, match="differs from y at bit 0"):
            extract_randomized(g, wrong, "1", w, 2)

    def test_rejects_unary_inverter(self):
        _, f, w = self.fixture()
        with pytest.raises(ValueError, match="binary inverter"):
            extract_randomized(reference_inverter_simple(w), f, "", w, 2)

    @staticmethod
    @st.composite
    def surjection_cases(draw):
        stages = draw(st.lists(st.integers(0, 3), max_size=4, unique=True))
        elements = draw(st.lists(st.integers(0, 3), min_size=len(stages),
                                 max_size=len(stages), unique=True))
        w = enum(list(zip(stages, elements)), 64)
        g = reference_inverter_surjection(w)
        if draw(st.booleans()):
            # reads y up to its first 1, then answers as g: leaves of many lengths
            width, answer = draw(st.integers(1, 12)), g.g.emit

            def scan(tape, m):
                any(tape.read(i) for i in range(0, 2 * width, 2))
                return answer(tape, m)

            g = InverterUnderTest(RealFunction(f"scan{width}", scan), binary=True)
        return g, one_way_surjection(w), w, draw(st.text("01", max_size=10)), \
            draw(st.integers(0, 4))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(surjection_cases())
    def test_materialized_record_has_the_recorded_measure(self, case):
        g, f, w, sigma, n = case
        record = extract_randomized(g, f, sigma, w, n).evidence
        assume(record.words_collected <= 4096)
        words = record.materialize()  # a PrefixFreeSet rejects comparable words
        assert len(words) == record.words_collected
        assert all(word.startswith(sigma) for word in words)
        assert words.intersect_measure(sigma) == record.measure > record.threshold

    def test_deep_fork_tree_needs_no_recursion(self):
        # scanning for the first 1 forks once per position: 1,200 deep
        def emit(tape, m):
            for i in range(1200):
                if tape.read(i):
                    return 1
            return 0

        leaves = _dovetail_leaves(RealFunction("scan", emit), "", 0, 100000, 10**6)
        assert sorted(leaf.use for leaf in leaves) == list(range(1, 1201)) + [1200]

    def test_horizon_overrun_is_an_error(self):
        # a diverging candidate is dropped, but a horizon overrun is not
        # divergence: it stops the whole search
        def emit(tape, m):
            if tape.read(0):
                raise HorizonError("stage 9 beyond horizon 8")
            return 0

        with pytest.raises(HorizonError, match="stage 9 beyond horizon 8"):
            _dovetail_leaves(RealFunction("horizon", emit), "", 0, 100, 10**6)


class TestExtractTwoToOne:
    def fixture(self):
        w = enum([(3, 5)], 10**5)  # element 5 enters at stage 3
        return reference_inverter_two_to_one(w), w

    def test_verdict_table(self):
        g, w = self.fixture()
        lines = [extract_two_to_one(g, w, n).line() for n in (0, 3, 5, 7)]
        assert lines == [
            "n=0 member=false use=65792 stagebound=65792",
            "n=3 member=false use=67334 stagebound=67334",
            "n=5 member=true use=82 stagebound=82",
            "n=7 member=false use=69418 stagebound=69418",
        ]
        # parked columns pay the full scan: use = 2⟨n,255⟩+2; the released
        # column stops at its halting stage: use = 2⟨4,4⟩+2
        assert 2 * pair(0, 255) + 2 == 65792
        assert 2 * pair(4, 4) + 2 == 82

    def test_relativized_verdicts_agree(self):
        g, w = self.fixture()
        for n in (3, 5, 7):
            plain = extract_two_to_one(g, w, n)
            rel = extract_two_to_one(g, w, n, upsilon="101", zeta="01")
            assert rel.line() == plain.line()

    def test_empty_enumeration(self):
        w = enum([], 10**5)
        g = reference_inverter_two_to_one(w)
        assert extract_two_to_one(g, w, 0).line() == \
            "n=0 member=false use=65792 stagebound=65792"
        assert extract_two_to_one(g, w, 4).line() == \
            "n=4 member=false use=67852 stagebound=67852"

    def test_zeta_guard(self):
        g, w = self.fixture()
        with pytest.raises(ValueError, match="need n > |zeta| = 3, got n = 2"):
            extract_two_to_one(g, w, 2, zeta="011")

    def test_validation_catches_non_inverter(self):
        _, w = self.fixture()
        g = InverterUnderTest(RealFunction("zero", lambda tape, m: 0))
        with pytest.raises(ConsistencyError, match="differs from y at bit 1"):
            extract_two_to_one(g, w, 5)

    def test_rejects_binary_inverter(self):
        _, w = self.fixture()
        toy = collatz_toy(16, 10**3)
        with pytest.raises(ValueError, match="unary"):
            extract_two_to_one(reference_inverter_surjection(toy), w, 5)
        # the arity is checked first, before n is held against zeta
        with pytest.raises(ValueError, match="^extract_two_to_one takes a unary inverter$"):
            extract_two_to_one(reference_inverter_surjection(toy), w, 1, zeta="0101")

    def test_audited_bit_runs_once_before_its_mutations(self):
        # n = 3 never enters, so the adversarial z parks the marker on it and
        # the audit of f's bits 0..2n+1 never reads g's bit 2n
        g, w = self.fixture()
        g, tapes = tapes_emitting(g, 6)
        assert extract_two_to_one(g, w, 3).line() == \
            "n=3 member=false use=67334 stagebound=67334"
        assert len({id(tape) for tape in tapes}) == len(tapes) == 1 + 6  # six mutations

    def test_validation_divergence(self):
        # f's bit 0 reads z at g's bit 2⟨0,0⟩+1 = 1, which diverges; the bit
        # of f∘g without a value is 0
        _, w = self.fixture()
        with pytest.raises(DivergenceError, match="inverter validation diverged") as err:
            extract_two_to_one(only_bit(10), w, 5)
        assert err.value.bit_index == 0


@pytest.mark.parametrize("extract,make,n,use", [
    (extract_simple, reference_inverter_simple, 0, 0),
    (extract_simple, reference_inverter_simple, 2, 8),
    (extract_simple, reference_inverter_simple, 5, 73),
    (extract_two_to_one, reference_inverter_two_to_one, 5, 122),
    (extract_two_to_one, reference_inverter_two_to_one, 3, 67334),
])
def test_spot_checks_flip_fixed_draws_past_the_use(extract, make, n, use):
    # the six spot-checked tapes of the extracted bit read y flipped where
    # six successive mutate_beyond_use draws of random.Random(0) flip it,
    # past each use; the audit's tape, if it emits the bit, comes after them
    w = enum([(1, 2), (4, 7), (6, 5)], 10**5)
    m = n if extract is extract_simple else 2 * n
    g, tapes = tapes_emitting(make(w), m)
    assert extract(g, w, n).use == use
    y, rng = tapes[0].source, random.Random(0)
    draws = [mutate_beyond_use(y, use, rng) for _ in range(6)]
    assert [(tuple(sorted(tape.source.flips)), tape.source.spec) for tape in tapes[1:7]] == \
        [(positions, x.spec) for positions, x in draws]


class TestFiberBranchCount:
    def test_identity_singleton(self):
        f = bit_select(identity_injection())
        assert fiber_branch_count(f, "1011", 4) == FiberCount(1, 1)

    def test_selection_leaves_odd_bits_free(self):
        f = bit_select(double_injection())
        assert fiber_branch_count(f, "11", 4) == FiberCount(4, 4)

    def test_inconsistent_target(self):
        f = RealFunction("far", lambda tape, m: tape.read(4) * 0 + 1)
        assert fiber_branch_count(f, "0", 2) == FiberCount(0, 4)

    def test_stuck_marker_has_two_branches(self):
        # z = 0^ω parks the marker on 0 forever, so x(0) is never read and
        # the fiber splits exactly there
        w = enum([], 10**6)
        f = two_to_one_v1(w)
        y = evaluate(f, interleaved(random_source(11), zeros()), 30).output
        fc = fiber_branch_count(f, y, 8)
        assert fc == FiberCount(2, 16)

    def test_climbing_marker_pins_everything(self):
        w = enum([], 10**6)
        f = two_to_one_v1(w)
        y = evaluate(f, interleaved(random_source(11), ones()), 68).output
        fc = fiber_branch_count(f, y, 8)
        assert fc == FiberCount(1, 64)

    def test_v2_stuck_marker(self):
        w = enum([], 10**6)
        u = StagedStringEnumeration.from_pairs([], horizon=10**6)
        f = two_to_one_v2(w, u)
        y = evaluate(f, interleaved(random_source(11), zeros()), 94).output
        assert fiber_branch_count(f, y, 16).branches == 2

    @pytest.mark.parametrize("depth", [20, 24])
    def test_deep_counts_follow_the_marker_trace(self, depth):
        # words are never listed, so depth 24 costs what the reads cost
        w = enum([], 10**6)
        f = two_to_one_v1(w)
        for z in (zeros(), ones()):
            ylen, missing = calibrated_len(marker_run_v1(w, z, 512), depth)
            y = evaluate(f, interleaved(random_source(11), z), ylen).output
            assert fiber_branch_count(f, y, depth).branches == (2 if missing else 1)
        y = evaluate(f, interleaved(random_source(11), zeros()), 182).output
        assert fiber_branch_count(f, y, 24) == FiberCount(2, 688128)

    def test_image_runs_grow_linearly_in_depth(self):
        # every class grows its image on its own tape, one barrier position
        # at a time, so no fork node reruns the image from bit 0; the 0 half
        # of a split goes on in place, so only the 1 half reruns its bit
        f = bit_select(double_injection())

        def image_runs(depth):
            barriers = []

            def emit(tape, m):
                barriers.append(tape.barrier)
                return f.emit(tape, m)

            y = evaluate(f, random_source(1), depth).output
            fiber_branch_count(RealFunction("counting", emit), y, depth)
            # probe tapes put their barrier past depth
            return sum(b is not None and b <= depth for b in barriers)

        depths = (8, 16, 24, 32)
        assert [image_runs(depth) for depth in depths] == [2 * d + 1 for d in depths]

    def test_probe_past_the_horizon_is_an_error(self):
        # the image check truncates at the horizon; a probed bit does not
        f = two_to_one_v1(collatz_toy(16, 6))
        with pytest.raises(HorizonError,
                           match="^output bit 12 needs marker stage 7 beyond horizon 6$"):
            fiber_branch_count(f, "0111110101110101", 6)

    def test_budget_exhaustion_is_a_desk_error(self):
        # the probe scans past depth for a 1 and forks once per position;
        # the budget on probe emitter runs stops it
        def scan(tape, m):
            i = 2
            while not tape.read(i):
                i += 1
            return 1

        with pytest.raises(DeskError, match="^fiber probe budget exhausted$"):
            fiber_branch_count(RealFunction("scan", scan), "1", 2,
                               probe_len=10**6, budget=500)
        f = two_to_one_v1(enum([], 10**6))
        y = evaluate(f, interleaved(random_source(11), zeros()), 90).output
        with pytest.raises(DeskError, match="^fiber probe budget exhausted$"):
            fiber_branch_count(f, y, 16, budget=50)
        # an empty target runs no probed bit: the probe tree's node bound stops it
        with pytest.raises(DeskError, match="^fiber probe budget exhausted$"):
            fiber_branch_count(bit_select(identity_injection()), "", 4, budget=0)


def test_each_search_opens_one_tape(monkeypatch):
    # a fiber count's class levels and probes, and a dovetail fork tree, roll
    # one tape back at every fork: any other tape they use is a branch of it
    opened, init = [], OracleTape.__init__
    monkeypatch.setattr(OracleTape, "__init__",
                        lambda tape, *args, **kwargs: opened.append(tape) or
                        init(tape, *args, **kwargs))
    for name, (f, y, depth) in fiber_fixtures().items():
        opened.clear()
        fiber_branch_count(f, y, depth)
        assert len(opened) == 1, name
    for name, args in dovetail_fixtures().items():
        opened.clear()
        outcome(_dovetail_leaves, *args)
        assert len(opened) == 1, name


class TestNegativeArguments:
    """A negative step budget, node budget, probe budget, probe length or
    word cap is a ValueError naming its value, raised before any emitter
    runs; a budget of 0 keeps its meaning."""

    @staticmethod
    def watched(f):
        """f, and the list of the output bits its emitter is asked for."""
        asked = []

        def emit(tape, m):
            asked.append(m)
            return f.emit(tape, m)

        return RealFunction(f.name, emit), asked

    def test_tape_step_budget(self):
        f, asked = self.watched(bit_select(identity_injection()))
        with pytest.raises(ValueError, match="^step budget must be a natural, got -1$"):
            OracleTape(zeros(), budget=-1)
        with pytest.raises(ValueError, match="^step budget must be a natural, got -2$"):
            evaluate(f, zeros(), 4, budget=-2)
        g = InverterUnderTest(f)
        with pytest.raises(ValueError, match="^step budget must be a natural, got -3$"):
            inverts_at_finite_stage(f, g, zeros(), 4, budget=-3)
        assert asked == []
        with pytest.raises(DivergenceError, match="step budget exhausted"):
            OracleTape(zeros(), budget=0).emit(f, 0)  # the first read is over budget

    def test_representation_step_budget(self):
        # it used to search on and report `no 2-bit consensus by depth 4`
        f, asked = self.watched(bit_select(double_injection()))
        with pytest.raises(ValueError, match="^step budget must be a natural, got -1$"):
            unique_path_invert(Representation(f, 4, budget=-1), finite("0101"), 2)
        assert asked == []

    def test_fiber_probe_budget_and_length(self):
        # a negative budget used to read as exhausted, a negative length was clamped
        f, asked = self.watched(bit_select(identity_injection()))
        with pytest.raises(ValueError, match="^probe budget must be a natural, got -1$"):
            fiber_branch_count(f, "10110", 4, budget=-1)
        with pytest.raises(ValueError, match="^probe length must be a natural, got -5$"):
            fiber_branch_count(f, "10110", 4, probe_len=-5)
        assert asked == []
        with pytest.raises(DeskError, match="^fiber probe budget exhausted$"):
            fiber_branch_count(f, "10110", 4, budget=0)  # bit 4 needs a probe run
        assert fiber_branch_count(f, "10110", 4, probe_len=0) == FiberCount(1, 1)

    def test_randomized_extraction_budgets(self):
        g, f, w = TestExtractRandomized().fixture()
        watched, asked = self.watched(g.g)
        g = InverterUnderTest(watched, binary=True)
        # a negative node budget used to report `dovetail fork tree exceeded -1 nodes`
        with pytest.raises(ValueError, match="^node budget must be a natural, got -1$"):
            extract_randomized(g, f, "", w, 2, node_budget=-1)
        with pytest.raises(ValueError, match="^step budget must be a natural, got -1$"):
            extract_randomized(g, f, "", w, 2, run_budget=-1)
        assert asked == []
        with pytest.raises(MeasureThresholdError, match="exceeded 0 nodes"):
            extract_randomized(g, f, "", w, 2, node_budget=0)

    def test_materialize_word_cap(self):
        g, f, w = TestExtractRandomized().fixture()
        record = extract_randomized(g, f, "", w, 2).evidence
        with pytest.raises(ValueError, match="^word cap must be a natural, got -1$"):
            record.materialize(cap=-1)
        with pytest.raises(ValueError, match="16385 words, over cap 0$"):
            record.materialize(cap=0)


class TestInvertsAtFiniteStage:
    def test_consistent(self):
        w = enum([(1, 2)], 100)
        out = inverts_at_finite_stage(simple_one_way(w),
                                      reference_inverter_simple(w), zeros(), 16)
        assert out.state == "consistent"
        assert str(out) == "consistent"

    def test_refuted(self):
        # constant-zero claim against a published 1 bit
        w = enum([(1, 2)], 100)
        g = InverterUnderTest(RealFunction("zero", lambda tape, m: 0))
        out = inverts_at_finite_stage(simple_one_way(w), g, finite("00000001"), 16)
        assert (out.state, out.index) == ("refuted", 7)
        assert str(out) == "refuted at bit 7"

    def test_non_bit_of_f_is_refused(self):
        # True equals 1 but is no bit: f∘g must not count it as agreeing
        truthy = RealFunction("truthy", lambda tape, m: True)
        g = reference_inverter_simple(collatz_toy(8, 100))
        with pytest.raises(ValueError, match=r"produced non-bit True at 0$"):
            inverts_at_finite_stage(truthy, g, ones(), 3)

    def test_diverged(self):
        w = enum([(1, 2)], 100)

        def spin(tape, m):
            i = 0
            while True:
                tape.read(i)
                i += 1

        g = InverterUnderTest(RealFunction("spin", spin))
        out = inverts_at_finite_stage(simple_one_way(w), g, zeros(), 8, budget=50)
        assert out.state == "diverged"
        # f's bit ⟨2,1⟩ = 7 reads g's bit 2, the first one f reads; the
        # divergence is named at the bit of f∘g, not at g's
        assert str(out) == "diverged at bit 7"

    def test_binary_inverter_is_checked_against_the_even_half(self):
        """A binary inverter inverts y from y⊕r: f(g(y⊕r)) is compared with
        y, not with the join."""
        w = enum([(1, 2)], 20)
        f, yr = one_way_surjection(w), interleaved(finite("1011"), zeros())
        g = reference_inverter_surjection(w)
        assert str(inverts_at_finite_stage(f, g, yr, 6)) == "consistent"
        zero = InverterUnderTest(RealFunction("zero", lambda tape, m: 0), binary=True)
        assert str(inverts_at_finite_stage(f, zero, interleaved(finite("0010"), ones()),
                                           6)) == "refuted at bit 2"
