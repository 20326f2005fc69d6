"""Claims of the library as properties over drawn inputs.

* `Representation` is monotone in the barrier and agrees with `evaluate`,
  for every construction family;
* evaluation is use-sound: flipping input bits anywhere at or beyond the
  reported use, up to 2^20 positions past it, moves neither the output nor
  the use;
* the marker recursion keeps the invariants `MarkerTrace.assert_invariants`
  checks, under both permission rules, for drawn enumerations and z;
* a two-to-one map or its reference inverter, run on one tape where some
  bits failed under a barrier before the rest ran without one, reads what a
  fresh tape reads for the same bits: a failed bit leaves no marker stage
  behind whose reads the tape forgot;
* the d-keyed extractor returns the toy's membership, non-members included;
* the shipped injections are injective, and a collision is named.

The strategies for small toys and marker maps are shared with the fiber
property of `test_fork_differential.py`.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oneway.bitcore import comparable, pair
from oneway.constructions import (
    Injection,
    bit_select,
    double_injection,
    identity_injection,
    marker_run_v1,
    marker_run_v2,
    one_way_surjection,
    partial_injection,
    shift_injection,
    simple_one_way,
    surjection_injection,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
)
from oneway.enumeration import DecidedSet, StagedEnumeration, StagedStringEnumeration
from oneway.errors import InjectivityError
from oneway.inversion import extract_two_to_one_v2, reference_inverter_two_to_one
from oneway.streams import (
    BitSource,
    OracleTape,
    Representation,
    evaluate,
    flipped_at,
    identity_function,
    interleaved,
    ones,
    periodic,
    random_source,
    zeros,
)
from test_marker_differential import fixed_limit_inverter

# ---------------------------------------------------------------- strategies


@st.composite
def toys(draw, elements=12, stages=24):
    """A staged enumeration of at most five entries below small bounds."""
    pairs = draw(st.lists(st.tuples(st.integers(0, stages - 1), st.integers(0, elements - 1)),
                          max_size=5, unique_by=(lambda e: e[0], lambda e: e[1])))
    return StagedEnumeration.from_pairs(pairs, horizon=10**6)


@st.composite
def word_toys(draw, stages=24):
    """A prefix-free staged word enumeration of at most four short words."""
    words: dict[int, str] = {}
    for s, word in draw(st.lists(st.tuples(st.integers(1, stages - 1),
                                           st.text("01", min_size=1, max_size=4)), max_size=4)):
        if s not in words and not any(comparable(word, v) for v in words.values()):
            words[s] = word
    return StagedStringEnumeration.from_pairs(sorted(words.items()), horizon=10**6)


def marker_maps():
    """two1 and two2 over drawn toys."""
    return st.one_of(toys().map(two_to_one_v1), st.builds(two_to_one_v2, toys(), word_toys()))


def families():
    """Every construction family, over drawn toys where it takes one."""
    injections = st.sampled_from([identity_injection, double_injection, shift_injection])
    return st.one_of(
        st.just(identity_function()),
        injections.map(lambda p: bit_select(p())),
        injections.map(lambda p: witness_function(p())),
        toys().map(simple_one_way),
        toys().map(one_way_surjection),
        st.builds(lambda w, extra: partial_injection(
            w, DecidedSet(w.limit_members() | extra, horizon=64)),
            toys(), st.frozensets(st.integers(0, 63), max_size=8)),
        marker_maps())


def z_sources():
    return st.one_of(st.just(zeros()), st.just(ones()),
                     st.integers(0, 10**6).map(random_source),
                     st.text("01", min_size=1, max_size=8).map(periodic))


def extension(word: str, seed: int) -> BitSource:
    """`word`, then random bits."""
    tail = random_source(seed)
    return BitSource(f"ext:{word}:{seed}",
                     lambda i: int(word[i]) if i < len(word) else tail.bit(i))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


# ------------------------------------------------------------ representation

@settings(derandomize=True, deadline=None, max_examples=200)
@given(families(), st.text("01", max_size=12), st.text("01", max_size=6),
       st.integers(0, 10**6))
def test_representation_is_monotone_and_agrees_with_evaluate(f, sigma, more, seed):
    """map_word(σ) is a prefix of map_word(στ); on every x extending σ,
    evaluate gives the same bits, and the next bit reads at or past |σ| or
    fails there too."""
    rep = Representation(f, len(sigma) + len(more), 24)
    short, long = rep.map_word(sigma), rep.map_word(sigma + more)
    assert long.startswith(short)
    for word, image in ((sigma, short), (sigma + more, long)):
        x = extension(word, seed)
        assert evaluate(f, x, len(image)).output == image
        if len(image) < rep.out_cap:
            nxt = outcome(evaluate, f, x, len(image) + 1)
            assert isinstance(nxt, tuple) or nxt.use > len(word), (word, image, nxt)


# ------------------------------------------------------------ use soundness

@settings(derandomize=True, deadline=None, max_examples=200)
@given(families(), st.integers(0, 10**6), st.integers(0, 40),
       st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=4))
def test_flips_at_or_beyond_use_change_nothing(f, seed, n, offsets):
    x = random_source(seed)
    base = outcome(evaluate, f, x, n)
    assume(not isinstance(base, tuple))
    mutated = x
    for k in offsets:
        mutated = flipped_at(mutated, base.use + k)
    assert evaluate(f, mutated, n) == base


# -------------------------------------------------------------------- marker

@settings(derandomize=True, deadline=None, max_examples=200)
@given(toys(), word_toys(), z_sources(), st.integers(0, 80))
def test_marker_traces_keep_their_invariants(w, u, z, stages):
    marker_run_v1(w, z, stages).assert_invariants()
    marker_run_v2(w, u, z, stages).assert_invariants()


def reference_inverters():
    """The two-to-one reference inverter over drawn toys, with a search
    short enough that some even bits diverge."""
    return st.builds(lambda w, stages: fixed_limit_inverter(w, stages).g,
                     toys(), st.integers(1, 24))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(marker_maps(), reference_inverters()), z_sources(), st.integers(0, 10**6),
       st.lists(st.integers(0, 15), max_size=8), st.integers(0, 48), st.integers(0, 8))
def test_failed_bits_leave_no_stage_the_tape_forgot(f, z, seed, evens, barrier, extra):
    """Even bits in drawn order under a barrier (some fail), then every bit
    in order without one: the same bits, failures and positions read as a
    fresh tape."""
    x = interleaved(random_source(seed), z)
    tape = OracleTape(x, barrier=barrier)
    for s in evens:
        tape.try_emit(f, 2 * s)
    tape.barrier = None
    n = 2 * max(evens, default=0) + 1 + extra
    fresh = OracleTape(x)
    assert [tape.try_emit(f, m) for m in range(n)] == [fresh.try_emit(f, m) for m in range(n)]
    assert tape.positions_read() == fresh.positions_read()


# ---------------------------------------------------------------- extraction

@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from([24, 1000]).flatmap(lambda stages: toys(stages=stages)), word_toys(),
       st.integers(0, 11))
def test_d_keyed_extraction_matches_membership(w, u, n):
    """The d-keyed extractor, given the reference inverter of its own toy,
    returns the toy's membership of n: toys hold at most five of the twelve
    elements drawn from, so most n are non-members, and members may enter
    before or after the counter reaches them, and before or after stage 256,
    the inverter's scan limit for a parked key that never enters."""
    assume(u.pairs())  # with no word the counter moves only as W enumerates
    assume(sum(Fraction(1, 2 ** len(word)) for _, word in u.pairs()) < 1)  # a column is free
    g = reference_inverter_two_to_one(w, u=u)
    assert extract_two_to_one_v2(g, w, u, n).member == (w.entry_stage(n) is not None)


# --------------------------------------------------------------- injections

@settings(derandomize=True, deadline=None, max_examples=100)
@given(toys(), st.integers(0, 40), st.integers(1, 40))
def test_injections_are_injective(w, a, gap):
    """check_injective passes for every shipped injection up to a limit past
    every entry of the toy, and names both arguments of a collision."""
    limit = max((pair(n, s) for s, n in w.pairs()), default=0) + 64
    for p in (identity_injection(), double_injection(), shift_injection(),
              surjection_injection(w)):
        p.check_injective(limit)
    b = a + gap
    collide = Injection("collide", lambda n: a if n == b else n, lambda m: m)
    collide.check_injective(b)
    with pytest.raises(InjectivityError, match=f"collide maps {a} and {b} both to {a}$"):
        collide.check_injective(b + 1)
