"""The partial injection's resumable divergence guard against the full
rescan it replaced.

The reference below is the library's earlier emitter, kept here as a
test-only copy: odd output bit 2j+1 reads input positions 0..j from scratch
and diverges at the first set bit outside the decided set.  The library now
keeps, per map and tape, how many leading positions are already checked and
reads only the rest.  Outputs, errors, `use`, the positions read,
representations, use-soundness reports and fiber counts must all agree with
the reference under the default step budget.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oneway.bitcore import unpair
from oneway.constructions import partial_injection
from oneway.enumeration import DecidedSet, StagedEnumeration, collatz_toy
from oneway.errors import DivergenceError, HorizonError
from oneway.inversion import fiber_branch_count
from oneway.streams import (
    OracleTape,
    RealFunction,
    Representation,
    evaluate,
    finite,
    flipped_at,
    output_source,
    use_soundness_check,
    zeros,
)
from test_streams import image_with_reads


# ----------------------------------------------------------------- reference

def ref_partial_injection(w, d):
    for n in sorted(w.limit_members()):
        if n > d.horizon or not d.contains(n):
            raise ValueError(
                f"enumeration lists {n} but the decided set does not contain it")

    def emit(tape, m):
        j, odd = divmod(m, 2)
        if not odd:
            n, s = unpair(j)
            if w.new_element_at(s) == n:
                return tape.read(n)
            return 0
        for i in range(j + 1):
            if tape.read(i) == 1 and not d.contains(i):
                raise DivergenceError(m, f"input bit {i} is set but undecided")
        return 0

    return RealFunction(f"inj({w.label},{d.label})", emit)


# ------------------------------------------------------------------ fixtures

TOY = collatz_toy(64, 10**5)


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def bit_by_bit(f, x, order, barrier=None, searching=False):
    """Emit the bits of `order` on one tape (through `try_emit` when
    searching); after each, the bit or its error, the use and the reads."""
    tape = OracleTape(x, barrier=barrier)
    run = tape.try_emit if searching else tape.emit
    return [(outcome(run, f, m), tape.use, tape.positions_read()) for m in order]


def both(w, d):
    return partial_injection(w, d), ref_partial_injection(w, d)


def benchmark_shaped(rng, bits):
    """Decided set: the toy's members 1..63 plus 24 extras below `bits`;
    input: zeros with six decided positions flipped on."""
    decided = sorted(list(range(1, 64)) + rng.sample(range(64, bits), 24))
    x = zeros()
    for p in rng.sample(decided, 6):
        x = flipped_at(x, p)
    return DecidedSet(decided, horizon=bits), x


# --------------------------------------------------------------------- tests

def test_evaluate_matches_on_benchmark_shaped_inputs():
    rng = random.Random(11)
    for bits in (128, 1024):
        d, x = benchmark_shaped(rng, bits)
        new, old = both(TOY, d)
        assert bit_by_bit(new, x, range(bits)) == bit_by_bit(old, x, range(bits))
        for n in (1, 2, 3, 64, bits):
            assert tuple(evaluate(new, x, n)) == tuple(evaluate(old, x, n)), (bits, n)


def test_evaluate_matches_on_random_finite_inputs():
    rng = random.Random(12)
    members = set(range(1, 64)) | set(rng.sample(range(64, 512), 200))
    d = DecidedSet(members, horizon=512)
    new, old = both(TOY, d)
    for trial in range(6):
        word = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(1, 400)))
        if trial % 2 == 0:  # total: every set bit decided
            word = "".join(b if i in members else "0" for i, b in enumerate(word))
        x = finite(word)
        assert bit_by_bit(new, x, range(1024)) == bit_by_bit(old, x, range(1024)), trial


def test_divergence_and_horizon_errors_match():
    d = DecidedSet({1, 2, 5}, horizon=40)
    w = StagedEnumeration.from_pairs([(0, 2), (3, 5)], horizon=100)
    new, old = both(w, d)
    cases = {
        "undecided": finite("0110001"),   # bit 6 set, not decided
        "beyond": flipped_at(finite("011"), 50),  # bit 50 set, past the horizon
    }
    for name, x in cases.items():
        assert outcome(evaluate, new, x, 128) == outcome(evaluate, old, x, 128), name
        assert bit_by_bit(new, x, range(128)) == bit_by_bit(old, x, range(128)), name
    with pytest.raises(DivergenceError) as exc:
        evaluate(new, cases["undecided"], 128)
    assert (exc.value.bit_index, exc.value.reason) == (13, "input bit 6 is set but undecided")
    assert outcome(evaluate, new, cases["beyond"], 128) == \
        (HorizonError, "membership of 50 undecided beyond horizon 40")


def test_representation_matches_for_every_word_to_depth_8():
    d = DecidedSet({0, 2, 3, 6}, horizon=64)
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 2)], horizon=10**4)
    new, old = both(w, d)
    got, want = Representation(new, 8, 48), Representation(old, 8, 48)
    for length in range(9):
        for i in range(2 ** length):
            sigma = format(i, f"0{length}b") if length else ""
            assert image_with_reads(got, sigma) == image_with_reads(want, sigma), sigma


def test_out_of_order_odd_bits_match():
    rng = random.Random(13)
    d, x = benchmark_shaped(rng, 256)
    y = flipped_at(x, next(p for p in range(64, 256) if not d.contains(p)))
    new, old = both(TOY, d)
    for source in (x, y):
        order = [2 * j + 1 for j in range(128)] + list(range(0, 256, 2))
        rng.shuffle(order)
        order += [401, 3, 255, 9]
        assert bit_by_bit(new, source, order) == bit_by_bit(old, source, order)
        got, want = output_source(new, source), output_source(old, source)
        assert [outcome(got.bit, m) for m in order] == \
            [outcome(want.bit, m) for m in order]


def test_use_soundness_reports_match():
    rng = random.Random(14)
    d, x = benchmark_shaped(rng, 256)
    new, old = both(TOY, d)
    for n in (16, 255):
        got, want = use_soundness_check(new, x, n, 20), use_soundness_check(old, x, n, 20)
        assert (got.bits, got.use, got.trials, got.violations) == \
            (want.bits, want.use, want.trials, want.violations)
        assert got.passed


def test_fiber_counts_match():
    d = DecidedSet({0, 2, 3, 6}, horizon=64)
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 2)], horizon=10**4)
    new, old = both(w, d)
    for word in ("1011", "0010001", "0"):
        y = evaluate(new, finite(word), 24).output
        for depth in (4, 6, 8):
            assert fiber_branch_count(new, y, depth) == \
                fiber_branch_count(old, y, depth), (word, depth)


# ----------------------------------------------------------- property: guard

@st.composite
def guard_cases(draw):
    horizon = draw(st.integers(0, 40))
    members = sorted(draw(st.sets(st.integers(0, horizon))))
    listed = draw(st.lists(st.sampled_from(members), unique=True)) if members else []
    stages = draw(st.lists(st.integers(0, 24), min_size=len(listed),
                           max_size=len(listed), unique=True))
    w = StagedEnumeration.from_pairs(zip(stages, listed), horizon=24)
    d = DecidedSet(members, horizon)
    word = draw(st.text("01", max_size=48))
    if draw(st.booleans()):  # mostly in the domain
        word = "".join(b if i in members else "0" for i, b in enumerate(word))
    order = draw(st.lists(st.integers(0, 100), max_size=40))
    barrier = draw(st.one_of(st.none(), st.integers(0, 50)))
    return w, d, word, order, barrier, draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(guard_cases())
def test_guard_matches_full_rescan(case):
    w, d, word, order, barrier, searching = case
    new, old = both(w, d)
    x = finite(word)
    assert bit_by_bit(new, x, order, barrier, searching) == \
        bit_by_bit(old, x, order, barrier, searching)
    assert outcome(evaluate, new, x, len(order)) == outcome(evaluate, old, x, len(order))
