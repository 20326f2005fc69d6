"""Sources, tapes, use accounting, representations, and the preimage tree."""

import random

import pytest

from oneway.constructions import Marker, two_to_one_v1
from oneway.enumeration import StagedEnumeration
from oneway.errors import DeskError, DivergenceError, HorizonError, SpecParseError
from oneway import streams
from oneway.inversion import preimage_tree
from oneway.streams import (
    RANDOM_POSITIONS,
    BitSource,
    OracleTape,
    RealFunction,
    Representation,
    barrier_image,
    column_source,
    columns_from_file,
    evaluate,
    evaluate_bit,
    finite,
    flipped_at,
    identity_function,
    interleaved,
    ones,
    output_source,
    periodic,
    random_source,
    use_soundness_check,
    zeros,
)


def prefix_of(source, n):
    """The first n bits of `source` as a word, each read through `bit`."""
    return "".join(str(source.bit(i)) for i in range(n))


def image_with_reads(rep, sigma):
    """`rep.map_word(sigma)` and the sorted positions its emitted bits read,
    from its own barrier tape."""
    tape = OracleTape(finite(sigma), barrier=len(sigma))
    image = "".join(map(str, barrier_image(rep.f, tape, rep.out_cap)))
    assert image == rep.map_word(sigma), sigma
    return image, tape.positions_read()


def select(stride):
    """Inline bit selection n -> stride*n, enough for stream-level tests."""
    return RealFunction(f"sel{stride}", lambda tape, m: tape.read(stride * m))


class TestSources:
    def test_basics(self):
        assert prefix_of(zeros(), 5) == "00000"
        assert prefix_of(ones(), 3) == "111"
        assert prefix_of(periodic("10"), 5) == "10101"
        assert prefix_of(finite("011"), 6) == "011000"

    def test_periodic_rejects_empty(self):
        with pytest.raises(ValueError):
            periodic("")

    def test_flipped(self):
        assert prefix_of(flipped_at(zeros(), 2), 4) == "0010"
        assert prefix_of(flipped_at(flipped_at(zeros(), 0), 0), 2) == "00"
        stacked = flipped_at(flipped_at(flipped_at(ones(), 3), 0), 3)
        at_once = flipped_at(ones(), 3, 0, 3)
        assert (at_once.spec, prefix_of(at_once, 5)) \
            == (stacked.spec, prefix_of(stacked, 5)) == ("flip:3:flip:0:flip:3:ones", "01111")
        with pytest.raises(ValueError):
            flipped_at(zeros(), -1)

    def test_interleaved(self):
        assert prefix_of(interleaved(ones(), zeros()), 6) == "101010"

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            zeros().bit(-1)

    def test_nonbinary_source_rejected(self):
        # only the ints 0 and 1 are bits
        for value in (2, -1, "1", 2.0, 1.0, True, False, None):
            junk = BitSource("junk", lambda i: value)
            with pytest.raises(ValueError, match="produced non-bit"):
                junk.bit(0)
            with pytest.raises(ValueError, match="produced non-bit"):
                evaluate(identity_function(), junk, 4)

    @pytest.mark.parametrize("value", [2, "1", 2.0, True, None])
    @pytest.mark.parametrize("layer, position", [
        (lambda s: flipped_at(s, 5), 2),  # an unflipped position
        (lambda s: flipped_at(s, 2), 2),  # the flipped one
        (lambda s: flipped_at(flipped_at(s, 2), 2), 2),  # a flip undone
        (lambda s: flipped_at(flipped_at(flipped_at(s, 2), 7), 2), 7),
        (lambda s: interleaved(s, zeros()), 4),
        (lambda s: interleaved(zeros(), s), 5),
        (lambda s: column_source({1: s}, zeros()), 4),  # pair(1, 1)
        (lambda s: column_source({1: zeros()}, s), 3),  # pair(0, 2), the default
        (lambda s: column_source({1: flipped_at(s, 0)}, zeros()), 1),  # pair(1, 0), flipped
        # pair(0, 1): the odd half at 0, flipped
        (lambda s: column_source({0: interleaved(s, flipped_at(s, 0))}, zeros()), 2),
    ])
    def test_non_bits_are_refused_through_every_layer(self, layer, position, value):
        """A composite source hands its children's raw values to the one
        check of the outer read: a flip must neither negate a non-bit into a
        bit-looking value nor fail on it with a TypeError."""
        src = layer(BitSource("junk", lambda i: value))
        with pytest.raises(ValueError, match="produced non-bit"):
            OracleTape(src).read(position)

    def test_random_source_deterministic(self):
        a = random_source(7)
        b = random_source(7)
        assert prefix_of(a, 64) == prefix_of(b, 64)
        # cache consistency: revisiting after a deep read changes nothing
        deep = a.bit(200)
        assert a.bit(200) == deep
        assert prefix_of(a, 64) == prefix_of(b, 64)
        assert prefix_of(random_source(8), 64) != prefix_of(a, 64)

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 12345])
    def test_random_source_is_the_getrandbits_stream(self, seed):
        rng = random.Random(seed)
        want = [rng.getrandbits(1) for _ in range(100_000)]
        stream = random_source(seed)
        assert [stream.bit(i) for i in range(len(want))] == want
        deep = random_source(seed)  # the first read is a deep one
        assert deep.bit(len(want) - 1) == want[-1]
        assert [deep.bit(i) for i in range(0, len(want), 97)] == want[::97]

    def test_random_source_refuses_far_positions_before_allocating(self):
        src = random_source(3)
        with pytest.raises(DeskError, match="past the 16777216-bit bound"):
            src.bit(10**10)
        with pytest.raises(DeskError):
            src.bit(RANDOM_POSITIONS)
        assert prefix_of(src, 64) == prefix_of(random_source(3), 64)
        assert src.bit(RANDOM_POSITIONS - 1) in (0, 1)

    def test_random_prefix_draws_only_the_words_it_lacks(self):
        """prefix(P) grows the cache to exactly P bits, whatever reads grew it
        before, and gives a fresh source's per-bit bits."""
        src, fresh = random_source(5), random_source(5)
        assert len(src.prefix(100)) == 100
        src.bit(5000)  # a read grows the cache in doubling batches, past 5000
        assert 5000 < len(src.prefix(0)) < 70000
        assert len(src.prefix(70000)) == 70000
        assert src.prefix(70000) == bytes(fresh.bit(i) for i in range(70000))

    def test_random_prefix_refuses_far_positions_as_a_read_does(self):
        message = f"random source position {RANDOM_POSITIONS} past the {RANDOM_POSITIONS}-bit bound"
        with pytest.raises(DeskError) as read:
            random_source(3).bit(RANDOM_POSITIONS)
        src = random_source(3)
        with pytest.raises(DeskError) as prefix:
            src.prefix(RANDOM_POSITIONS + 1)
        assert str(read.value) == str(prefix.value) == message
        assert len(src.prefix(0)) == 0  # refused before any draw

    def test_column_source_and_column_of(self):
        # column 1 carries ones, default is the all-zeros backdrop
        w = column_source({1: ones()}, zeros())
        from oneway.bitcore import pair
        assert w.bit(pair(1, 0)) == 1
        assert w.bit(pair(1, 5)) == 1
        assert w.bit(pair(0, 0)) == 0
        assert [w.bit(pair(1, i)) for i in range(4)] == [1, 1, 1, 1]
        assert [w.bit(pair(2, i)) for i in range(4)] == [0, 0, 0, 0]

    def test_column_source_default_by_absolute_position(self):
        # replacing one column must leave every other position untouched
        base = random_source(3)
        w = column_source({2: zeros()}, base)
        from oneway.bitcore import pair, unpair
        for m in range(64):
            i, s = unpair(m)
            expected = 0 if i == 2 else base.bit(m)
            assert w.bit(m) == expected


def test_columns_from_file(tmp_path):
    p = tmp_path / "cols.txt"
    p.write_text("# column word\n0 11\n3 101\n")
    w = columns_from_file(str(p))
    from oneway.bitcore import pair
    assert w.bit(pair(0, 0)) == 1
    assert w.bit(pair(0, 1)) == 1
    assert w.bit(pair(0, 2)) == 0  # beyond the word: zeros
    assert w.bit(pair(3, 2)) == 1
    assert w.bit(pair(1, 0)) == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("0 11\n0 01\n")
    with pytest.raises(SpecParseError, match="column 0 listed twice"):
        columns_from_file(str(bad))
    bad.write_text("0 11\n-1 01\n")
    with pytest.raises(SpecParseError, match=r"bad\.txt:2: negative column -1"):
        columns_from_file(str(bad))
    bad.write_text("horizon 9\n0 11\n")
    with pytest.raises(SpecParseError, match="a column file takes no horizon"):
        columns_from_file(str(bad))


class TestOracleTape:
    def test_use_is_max_read_plus_one(self):
        tape = OracleTape(zeros())
        assert tape.use == 0
        tape.read(4)
        assert tape.use == 5
        tape.read(1)
        assert tape.use == 5
        assert tape.positions_read() == (1, 4)

    def test_rollback(self):
        # a failed bit's reads are forgotten; reads of earlier bits stay
        def late_divergence(tape, m):
            tape.read(9)
            raise DivergenceError(m, "stuck")

        tape = OracleTape(zeros())
        tape.read(0)
        assert tape.try_emit(RealFunction("stuck", late_divergence), 1) is None
        assert tape.positions_read() == (0,)
        assert tape.use == 10  # use stays monotone by contract

    def test_budget(self):
        tape = OracleTape(zeros(), budget=3)
        for _ in range(3):
            tape.read(0)
        from oneway.errors import _BudgetExhausted
        with pytest.raises(_BudgetExhausted):
            tape.read(0)
        # every bit run starts from a full budget
        three_reads = RealFunction("three", lambda t, m: t.read(0) + t.read(1) + t.read(2))
        assert tape.emit(three_reads, 0) == 0
        assert tape.emit(three_reads, 1) == 0

    def test_emit_budget_names_the_bit(self):
        four_reads = RealFunction("four", lambda t, m: sum(t.read(i) for i in range(4)))
        tape = OracleTape(zeros(), budget=3)
        with pytest.raises(DivergenceError,
                           match="^no output bit at index 7: step budget exhausted$"):
            tape.emit(four_reads, 7)

    @pytest.mark.parametrize("why", ["barrier", "divergence", "budget"])
    def test_try_emit_failure_leaves_no_reads(self, why):
        def emit(tape, m):
            tape.read(1)
            tape.read(2)
            if why == "divergence":
                raise DivergenceError(m, "stuck")
            return tape.read(5)

        tape = OracleTape(zeros(), barrier=5 if why == "barrier" else None,
                          budget=2 if why == "budget" else 10)
        tape.read(0)
        assert tape.try_emit(RealFunction(why, emit), 0) is None
        assert tape.positions_read() == (0,)

    def test_try_emit_reraises_horizon_without_reads(self):
        def emit(tape, m):
            tape.read(3)
            raise HorizonError("stage 9 beyond horizon 8")

        tape = OracleTape(zeros())
        with pytest.raises(HorizonError, match="stage 9 beyond horizon 8"):
            tape.try_emit(RealFunction("horizon", emit), 0)
        assert tape.positions_read() == ()
        assert tape.use == 4

    def test_branch_rerun_of_interrupted_bit_forgets_reads_before_the_interruption(self):
        class Interrupt(Exception):
            pass

        def source_bit(i):
            if i == 1:
                raise Interrupt()
            return 0

        def emit(tape, m):
            tape.read(3)
            tape.read(1)
            return tape.read(5)

        f = RealFunction("interrupted", emit)
        tape = OracleTape(BitSource("open at 1", source_bit), barrier=5)
        tape.read(0)
        with pytest.raises(Interrupt):
            tape.try_emit(f, 0)
        assert tape.positions_read() == (0, 3)  # bit 0 is still open
        rerun = tape.branch(zeros())
        assert rerun.try_emit(f, 0) is None
        assert rerun.positions_read() == (0,)
        # another bit on a branch starts its own rollback point
        other = tape.branch(zeros())
        assert other.try_emit(f, 1) is None
        assert other.positions_read() == (0, 3)

    def test_checkpoint_rolls_back_a_branch_taken_after_it(self):
        # the halves of a fiber probe split go on on a tape and a branch of
        # it, and both roll back to checkpoints taken before the branch
        w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 1)], horizon=10**4)
        f, x = two_to_one_v1(w), interleaved(random_source(1), random_source(2))

        def replayed(n):
            tape = OracleTape(x)
            barrier_image(f, tape, n)
            return tape

        def state(tape):
            return tape.positions_read(), tape.use, [
                (m.rows[:], m.k, m.d, m.kept) if isinstance(m, Marker) else m[:]
                for m in tape.state.values()]

        tape = replayed(24)
        checkpoint = tape.checkpoint()
        barrier_image(f, tape, 40)
        twin = tape.branch(x)
        barrier_image(f, tape, 56)
        barrier_image(f, twin, 48)
        assert state(tape) == state(replayed(56)) and state(twin) == state(replayed(48))
        twin.rollback(checkpoint)
        assert state(twin) == state(replayed(24))
        assert state(tape) == state(replayed(56))  # rolling back the branch leaves the tape
        tape.rollback(checkpoint)
        assert state(tape) == state(replayed(24))
        barrier_image(f, tape, 64)
        assert state(twin) == state(replayed(24))  # and the tape's work leaves the branch
        assert barrier_image(f, twin, 64) == barrier_image(f, replayed(64), 64)
        assert state(tape) == state(twin) == state(replayed(64))

    def test_barrier(self):
        from oneway.errors import _ReadBeyondBarrier
        tape = OracleTape(ones(), barrier=2)
        assert tape.read(1) == 1
        with pytest.raises(_ReadBeyondBarrier) as hit:
            tape.read(2)
        # the hit carries its position; its message is formatted when shown
        assert hit.value.position == 2 and hit.value.args == (2,)
        assert str(hit.value) == "read at position 2 crossed the barrier"


class TestEvaluate:
    def test_identity_on_zeros(self):
        result = evaluate(identity_function(), zeros(), 4)
        assert result.output == "0000"
        assert result.use == 4
        output, use = result  # tuple protocol
        assert (output, use) == ("0000", 4)

    def test_selection_use(self):
        result = evaluate(select(2), periodic("10"), 3)
        assert result.output == "111"
        assert result.use == 5

    def test_single_bit_fresh_tape(self):
        bit, use = evaluate_bit(select(3), ones(), 4)
        assert bit == 1
        assert use == 13

    def test_divergence_budget(self):
        def spin(tape, m):
            while True:
                tape.read(0)

        tape = OracleTape(zeros(), budget=50)
        with pytest.raises(DivergenceError) as err:
            tape.emit(RealFunction("spin", spin), 0)
        assert err.value.bit_index == 0

    def test_negative_bit_or_count_rejected(self):
        # the emitter never reads, so only the tape's own check can object
        never_reads = RealFunction("const0", lambda tape, m: 0)
        for run in (OracleTape(zeros()).emit, OracleTape(zeros()).try_emit):
            with pytest.raises(ValueError, match="output bit must be a natural, got -1"):
                run(never_reads, -1)
        with pytest.raises(ValueError, match="output bit must be a natural, got -2"):
            evaluate_bit(never_reads, zeros(), -2)
        with pytest.raises(ValueError,
                           match=f"bit count must be a natural at most {streams.MAX_BITS}, got -3"):
            evaluate(never_reads, zeros(), -3)
        assert tuple(evaluate(never_reads, zeros(), 0)) == ("", 0)

    def test_bit_count_bound(self, monkeypatch):
        monkeypatch.setattr(streams, "MAX_BITS", 8)
        assert evaluate(identity_function(), ones(), 8).output == "11111111"
        with pytest.raises(ValueError, match="^bit count must be a natural at most 8, got 9$"):
            evaluate(identity_function(), ones(), 9)

    @pytest.mark.parametrize("value", [2, 256, -1, "1", 1.0, None])
    def test_non_bit_output_rejected(self, value):
        junk = RealFunction("junk", lambda tape, m: value if m == 2 else 0)
        with pytest.raises(ValueError, match="junk emitted a non-bit among its first 4 bits"):
            evaluate(junk, zeros(), 4)

    def test_budget_is_per_output_bit(self):
        # 3 reads per bit never trips a 4-read budget, no matter how many bits
        probe = RealFunction("probe3", lambda tape, m: [tape.read(m) for _ in range(3)][-1])
        tape = OracleTape(zeros(), budget=4)
        assert [tape.emit(probe, m) for m in range(20)] == [0] * 20


def test_output_source_memoizes():
    calls = []

    def emit(tape, m):
        calls.append(m)
        return tape.read(m)

    y = output_source(RealFunction("counted", emit), ones())
    assert y.bit(3) == 1
    assert y.bit(3) == 1
    assert calls == [3]
    assert prefix_of(y, 2) == "11"


class TestRepresentation:
    def test_identity_map(self):
        rep = Representation(identity_function(), 8)
        assert rep.map_word("") == ""
        assert rep.map_word("0110") == "0110"

    def test_truncation_by_barrier(self):
        # output bit m needs input bit 2m: a 5-letter word determines 3 bits
        rep = Representation(select(2), 8)
        assert rep.map_word("10101") == "111"
        assert rep.map_word("1010") == "11"

    def test_monotone(self):
        rep = Representation(select(2), 10)
        rng = random.Random(5)
        for _ in range(100):
            w = "".join(rng.choice("01") for _ in range(rng.randrange(10)))
            longer = w + rng.choice("01")
            assert rep.map_word(longer).startswith(rep.map_word(w))

    def test_reads_cover_emitted_bits_only(self):
        rep = Representation(select(2), 9)
        out, reads = image_with_reads(rep, "101010101")
        assert out == "11111"
        assert reads == (0, 2, 4, 6, 8)

    def test_out_cap(self):
        rep = Representation(identity_function(), depth=8, out_cap=2)
        assert rep.map_word("0110") == "01"

    @pytest.mark.parametrize("out_cap", [-1, streams.MAX_BITS + 1])
    def test_out_cap_bound(self, out_cap):
        message = f"^out_cap must be a natural at most {streams.MAX_BITS}, got {out_cap}$"
        with pytest.raises(ValueError, match=message):
            Representation(identity_function(), depth=2, out_cap=out_cap)

    def test_depth_guard(self):
        rep = Representation(identity_function(), depth=2, out_cap=8)
        with pytest.raises(ValueError):
            rep.map_word("010")

    def test_budget_truncates(self):
        # output bit m reads positions 0..m, so from bit 3 on it needs more than 3 steps
        f = RealFunction("prefix-and", lambda tape, m: min(tape.read(i) for i in range(m + 1)))
        tape = OracleTape(finite("11111111"), barrier=8, budget=3)
        assert barrier_image(f, tape, 8) == [1, 1, 1]
        assert Representation(f, 8).map_word("11111111") == "11111111"

    def test_divergence_truncates(self):
        def emit(tape, m):
            if m >= 2:
                raise HorizonError("stage past the recorded schedule")
            return tape.read(m)

        rep = Representation(RealFunction("clipped", emit), 6)
        assert rep.map_word("111111") == "11"


def test_preimage_tree_frozen():
    # select(2) against all-ones target: even positions pinned, odd free
    rep = Representation(select(2), 2)
    assert preimage_tree(rep, ones()) == ["", "1", "10", "11"]


def test_preimage_tree_prunes():
    rep = Representation(identity_function(), 3)
    assert preimage_tree(rep, zeros()) == ["", "0", "00", "000"]


class TestUseSoundness:
    def test_honest_function_passes(self):
        report = use_soundness_check(identity_function(), random_source(11), 16,
                                     trials=25, seed=1)
        assert report.passed
        assert report.use == 16

    def test_impure_function_caught(self):
        # reads position 0 on the first call, then far afield: the recorded
        # use of 1 no longer bounds what later runs look at
        state = {"calls": 0}

        def emit(tape, m):
            state["calls"] += 1
            if state["calls"] == 1:
                return tape.read(0)
            return max(tape.read(i) for i in range(1, 300))

        report = use_soundness_check(RealFunction("impure", emit), zeros(), 1,
                                     trials=40, seed=0)
        assert report.use == 1
        assert not report.passed
        positions, before, after = report.violations[0]
        assert before != after
