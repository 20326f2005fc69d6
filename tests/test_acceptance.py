"""Acceptance suite: ten desk-scale checks, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
criterion lines; each test is independent, so a failure in one leaves the
other nine to report their own verdicts.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest

from oneway.bitcore import pair
from oneway.constructions import (
    bit_select,
    column_source,
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
)
from oneway.enumeration import (
    DecidedSet,
    StagedEnumeration,
    StagedStringEnumeration,
    collatz_toy,
)
from oneway.errors import HorizonError, NotSingletonError
from oneway.inversion import (
    extract_randomized,
    extract_simple,
    extract_two_to_one,
    fiber_branch_count,
    reference_inverter_simple,
    reference_inverter_surjection,
    reference_inverter_two_to_one,
    unique_path_invert,
)
from oneway.streams import (
    RealFunction,
    Representation,
    evaluate,
    finite,
    interleaved,
    ones,
    output_source,
    random_source,
    use_soundness_check,
    zeros,
)


def criterion(num, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} {name}: FAIL")
                raise
            print(f"criterion {num:02d} {name}: PASS")
        return run
    return wrap


def seeded_enumeration(rng, elements, stages, draws, horizon):
    pairs, seen_e, seen_s = [], set(), set()
    for _ in range(draws):
        e, s = rng.randrange(elements), rng.randrange(stages)
        if e not in seen_e and s not in seen_s:
            pairs.append((s, e))
            seen_e.add(e)
            seen_s.add(s)
    return StagedEnumeration.from_pairs(pairs, horizon=horizon)


def seeded_string_enumeration(rng, stages, draws, horizon):
    words = {}
    for _ in range(draws):
        s = rng.randrange(1, stages)
        word = "".join(rng.choice("01") for _ in range(5))
        if s not in words and word not in words.values():
            words[s] = word
    return StagedStringEnumeration.from_pairs(sorted(words.items()),
                                              horizon=horizon)


def tau(d):
    # equal lengths keep the family prefix-free for d up to 15
    return "1" + format(d, "04b")


def counter_fixture(n, toy_pairs=()):
    u = StagedStringEnumeration.from_pairs(
        [(d + 1, tau(d)) for d in range(9)], horizon=64)
    z = column_source({**{i: finite(tau(i)) for i in range(9)}, n: zeros()}, zeros())
    w = StagedEnumeration.from_pairs(list(toy_pairs), horizon=64)
    return w, u, z


def calibrated_len(trace, depth, word_lens=(0,)):
    """Target length pinning every selection below depth: long enough to
    publish each chosen bit and to cover the permissions consulted on the
    way, so only genuinely free positions survive as branch doublers."""
    qs = range((depth + 1) // 2)
    sel = {}
    for step in trace.steps:
        if step.p not in sel:
            sel[step.p] = step.s
    s_star = max((sel[q] for q in qs if q in sel), default=0)
    k_star = trace.steps[s_star].k if trace.steps else 0
    consult = max(pair(k_star, s_star), pair(s_star, max(word_lens)))
    missing = [q for q in qs if q not in sel]
    return 2 * consult + 4 + 2 * depth, missing


@criterion(1, "bit selections preserve measure")
def test_criterion_01():
    started = time.monotonic()
    for p in (identity_injection(), double_injection(), shift_injection()):
        f = bit_select(p)
        for length in range(7):
            span = max((p.fn(m) for m in range(length)), default=-1) + 1
            counts = {}
            for bits in itertools.product("01", repeat=span):
                out = evaluate(f, finite("".join(bits)), length).output
                counts[out] = counts.get(out, 0) + 1
            # exact: every target word of this length is hit by the same
            # number of inputs, so each preimage has measure 2^-length
            assert len(counts) == 2 ** length, (p.name, length)
            assert all(c == 2 ** (span - length) for c in counts.values()), \
                (p.name, length)
    assert time.monotonic() - started < 10


@criterion(2, "canonical witnesses invert the selections")
def test_criterion_02():
    toy = collatz_toy(64, 10**4)
    cases = [
        (bit_select(identity_injection()), identity_injection()),
        (bit_select(double_injection()), double_injection()),
        (bit_select(shift_injection()), shift_injection()),
        (one_way_surjection(toy), surjection_injection(toy)),
    ]
    for f, p in cases:
        for seed in range(100):
            y = random_source(2000 + seed)
            out = evaluate(f, output_source(witness_function(p), y), 64).output
            assert out == "".join(str(y.bit(m)) for m in range(64)), \
                (f.name, seed)


@criterion(3, "simple extraction matches toy membership")
def test_criterion_03():
    started = time.monotonic()
    toy = collatz_toy(64, 10**4)
    g = reference_inverter_simple(toy)
    overflow = []
    for n in range(64):
        try:
            verdict = extract_simple(g, toy, n)
            assert verdict.member == (toy.entry_stage(n) is not None), n
        except HorizonError:
            overflow.append(n)
    # six members publish beyond the default horizon; a doubled horizon
    # decides every element below 64
    assert overflow == [41, 47, 54, 55, 62, 63]
    repaired = StagedEnumeration.from_pairs(toy.pairs(), horizon=2 * 10**4,
                                            label="collatz:64(h=2e4)")
    g2 = reference_inverter_simple(repaired)
    for n in range(64):
        assert extract_simple(g2, repaired, n).member == \
            (repaired.entry_stage(n) is not None), n
    for i in range(20):
        rng = random.Random(7000 + i)
        w = seeded_enumeration(rng, elements=64, stages=100, draws=10,
                               horizon=3 * 10**4)
        g = reference_inverter_simple(w)
        for n in range(64):
            assert extract_simple(g, w, n).member == \
                (w.entry_stage(n) is not None), (i, n)
    assert time.monotonic() - started < 30


@criterion(4, "randomized extraction crosses half the cylinder")
def test_criterion_04():
    toy = collatz_toy(32, 10**5)
    f = one_way_surjection(toy)
    g = reference_inverter_surjection(toy)
    for n in range(32):
        verdict = extract_randomized(g, f, "", toy, n)
        assert verdict.member == (toy.entry_stage(n) is not None), n
        verdict.evidence.assert_prefix_free()
        assert verdict.evidence.measure > Fraction(1, 2), n


@criterion(5, "two-to-one extraction matches toy membership")
def test_criterion_05():
    toy = collatz_toy(32, 10**5)
    g = reference_inverter_two_to_one(toy)
    members = {n for n in range(32) if toy.entry_stage(n) is not None}
    for n in range(32):
        assert extract_two_to_one(g, toy, n).member == (n in members), n
    rng = random.Random(880)
    for _ in range(5):
        zeta = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        upsilon = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        for n in range(len(zeta) + 1, 32):
            verdict = extract_two_to_one(g, toy, n, upsilon=upsilon, zeta=zeta)
            assert verdict.member == (n in members), (n, upsilon, zeta)


@criterion(6, "marker traces keep every invariant")
def test_criterion_06():
    for trial in range(200):
        rng = random.Random(4000 + trial)
        w = seeded_enumeration(rng, elements=40, stages=200, draws=6,
                               horizon=512)
        u = seeded_string_enumeration(rng, stages=200, draws=5, horizon=512)
        z = random_source(6000 + trial)
        marker_run_v1(w, z, 256).assert_invariants()
        marker_run_v2(w, u, z, 256).assert_invariants()


@criterion(7, "fiber branch counts stay at or below two")
def test_criterion_07():
    w_empty = StagedEnumeration.from_pairs([], horizon=10**6)
    x = random_source(11)

    # stuck marker: the parked column is never read, two preimages
    for depth in (8, 16):
        f = two_to_one_v1(w_empty)
        trace = marker_run_v1(w_empty, zeros(), 512)
        ylen, missing = calibrated_len(trace, depth)
        assert missing
        y = evaluate(f, interleaved(x, zeros()), ylen).output
        assert fiber_branch_count(f, y, depth).branches == 2, depth

    # climbing marker: every position below depth selected, one preimage
    for depth in (8, 16):
        f = two_to_one_v1(w_empty)
        trace = marker_run_v1(w_empty, ones(), 512)
        ylen, missing = calibrated_len(trace, depth)
        assert not missing
        y = evaluate(f, interleaved(x, ones()), ylen).output
        assert fiber_branch_count(f, y, depth).branches == 1, depth

    # d-keyed variants of the same two regimes
    u_hit = StagedStringEnumeration.from_pairs([(0, "1")], horizon=10**6)
    u_empty = StagedStringEnumeration.from_pairs([], horizon=10**6)
    for u, z, want in ((u_hit, ones(), 1), (u_empty, zeros(), 2)):
        f = two_to_one_v2(w_empty, u)
        trace = marker_run_v2(w_empty, u, z, 512)
        ylen, missing = calibrated_len(trace, 16, word_lens=(1,))
        assert bool(missing) == (want == 2)
        y = evaluate(f, interleaved(x, z), ylen).output
        assert fiber_branch_count(f, y, 16).branches == want

    # randomized suite: expectation read off the marker trace
    for trial in range(4):
        rng = random.Random(900 + trial)
        wp, seen_e, seen_s = [], set(), set()
        for _ in range(4):
            e, s = rng.randrange(20), rng.randrange(40)
            if e not in seen_e and s not in seen_s:
                wp.append((e, s))
                seen_e.add(e)
                seen_s.add(s)
        w = StagedEnumeration.from_pairs([(s, e) for e, s in wp],
                                         horizon=10**6)
        z = random_source(500 + trial)
        xs = random_source(600 + trial)
        for depth in (8, 12, 16):
            f = two_to_one_v1(w)
            trace = marker_run_v1(w, z, 512)
            ylen, missing = calibrated_len(trace, depth)
            y = evaluate(f, interleaved(xs, z), ylen).output
            got = fiber_branch_count(f, y, depth).branches
            assert got <= 2, (trial, depth, got)
            assert got == (2 if missing else 1), (trial, depth, got)

    for trial in range(2):
        rng = random.Random(950 + trial)
        w = seeded_enumeration(rng, elements=20, stages=40, draws=4,
                               horizon=10**6)
        u = seeded_string_enumeration(rng, stages=40, draws=4, horizon=10**6)
        z = random_source(700 + trial)
        xs = random_source(800 + trial)
        f = two_to_one_v2(w, u)
        trace = marker_run_v2(w, u, z, 512)
        ylen, missing = calibrated_len(trace, 8, word_lens=(5,))
        y = evaluate(f, interleaved(xs, z), ylen).output
        got = fiber_branch_count(f, y, 8).branches
        assert got <= 2 and got == (2 if missing else 1), (trial, got)


@criterion(8, "unique-path inversion recovers injective preimages")
def test_criterion_08():
    x = random_source(7)
    fixtures = [
        (bit_select(identity_injection()), None),
        (witness_function(shift_injection()), None),
        (witness_function(double_injection()), 80),
    ]
    for f, out_cap in fixtures:
        rep = Representation(f, 40, out_cap)
        got = unique_path_invert(rep, output_source(f, x), 32)
        assert got == "".join(str(x.bit(i)) for i in range(32)), f.name
        assert evaluate(f, finite(got), 32).output == \
            evaluate(f, x, 32).output, f.name
    # dropping odd input bits leaves no consensus to recover
    lossy = bit_select(double_injection())
    rep = Representation(lossy, 16)
    with pytest.raises(NotSingletonError):
        unique_path_invert(rep, output_source(lossy, x), 8)


@criterion(9, "counter stages are exact and the dichotomy holds")
def test_criterion_09():
    w, u, z = counter_fixture(9)
    stages = [stage_where_counter_reaches(w, u, z, n) for n in range(9)]
    assert stages == [0, 2, 3, 4, 5, 6, 7, 8, 9]
    for n, s in enumerate(stages):
        trace = marker_run_v2(w, u, z, s)
        assert trace.d_final == n
        if n:
            assert marker_run_v2(w, u, z, s - 1).d_final == n - 1
    # a blocked column sticks exactly when the toy never enumerates it
    for toy in (collatz_toy(16, 64), collatz_toy(16, 5)):
        for n in range(9):
            w, u, z = counter_fixture(n, toy_pairs=toy.pairs())
            try:
                stage_where_counter_reaches(w, u, z, n + 1)
                released = True
            except HorizonError:
                released = False
            assert released == (toy.entry_stage(n) is not None), \
                (toy.label, n)


@criterion(10, "outputs never depend on bits beyond the use")
def test_criterion_10():
    toy = collatz_toy(16, 1000)
    u = StagedStringEnumeration.from_pairs(
        [(d + 1, tau(d)) for d in range(9)], horizon=64)
    decided = DecidedSet.from_enumeration(toy)
    shipped = [
        (bit_select(identity_injection()), random_source(31), 16),
        (bit_select(double_injection()), random_source(32), 16),
        (bit_select(shift_injection()), random_source(33), 16),
        (witness_function(identity_injection()), random_source(34), 16),
        (witness_function(double_injection()), random_source(35), 16),
        (witness_function(shift_injection()), random_source(36), 16),
        (simple_one_way(toy), random_source(37), 16),
        (one_way_surjection(toy), random_source(38), 16),
        (partial_injection(toy, decided), zeros(), 16),
        (two_to_one_v1(toy), interleaved(random_source(39), random_source(40)), 8),
        (two_to_one_v2(toy, u), interleaved(random_source(41), random_source(42)), 8),
    ]
    for f, x, bits in shipped:
        report = use_soundness_check(f, x, bits, trials=100, seed=9)
        assert report.passed, (f.name, report.violations[:1])
