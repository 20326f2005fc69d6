"""The resumable marker against the plain per-bit recursion it replaced.

The reference below reruns the movable-marker recursion from stage 0 for
every query, exactly as the library once did in four places.  The library
now keeps one marker per map and tape and runs stages forward on demand;
every output, use, read set, trace and verdict must agree with the
reference.
"""

import random

import pytest

from oneway.bitcore import pair
from oneway.constructions import (
    Marker,
    MarkerStep,
    MarkerTrace,
    _marker_map,
    _selected_position,
    marker_run_v1,
    marker_run_v2,
    odd_half,
    two_to_one_v1,
    two_to_one_v2,
)
from oneway.enumeration import StagedEnumeration, StagedStringEnumeration, \
    collatz_toy, column_hit
from oneway.errors import DivergenceError, HorizonError
from oneway.inversion import InverterUnderTest, extract_two_to_one, \
    fiber_branch_count, reference_inverter_two_to_one
from oneway.streams import BitSource, RealFunction, Representation, evaluate, \
    interleaved, periodic, random_source

from test_acceptance import seeded_enumeration, seeded_string_enumeration


# ----------------------------------------------------------------- reference

def ref_marker_run(stages, permission_at):
    k = d = 0
    steps = []
    for s in range(stages):
        perm = permission_at(k, d, s)
        if perm is None:
            steps.append(MarkerStep(s, k, d, s + 1, None))
        else:
            steps.append(MarkerStep(s, k, d, k, perm))
            k = s + 1
            d += 1
    return MarkerTrace(tuple(steps), k, d)


def ref_k_permission(w, zbit):
    def permission(k, d, s):
        if w.member_at_stage(k, s):
            return "halting"
        if zbit(pair(k, s)) == 1:
            return "z"
        return None
    return permission


def ref_d_permission(w, u, column):
    def permission(k, d, s):
        if w.member_at_stage(d, s):
            return "halting"
        if column_hit(u, column(d).bit, s):
            return "z"
        return None
    return permission


def ref_marker_run_v1(w, z, stages):
    return ref_marker_run(stages, ref_k_permission(w, z.bit))


def ref_column(z, n):
    return BitSource(f"column:{n}:{z.spec}", lambda i: z.bit(pair(n, i)))


def ref_marker_run_v2(w, u, z, stages):
    return ref_marker_run(stages, ref_d_permission(w, u, lambda d: ref_column(z, d)))


def ref_two_to_one_v1(w):
    def emit(tape, m):
        if m % 2 == 1:
            return tape.read(m)
        s = m // 2
        if s + 1 > w.horizon:
            raise HorizonError(
                f"output bit {m} needs marker stage {s + 1} beyond horizon {w.horizon}")
        permission = ref_k_permission(w, lambda i: tape.read(2 * i + 1))
        return tape.read(2 * ref_marker_run(s + 1, permission).steps[s].p)
    return RealFunction(f"two1({w.label})", emit)


def ref_two_to_one_v2(w, u):
    def emit(tape, m):
        if m % 2 == 1:
            return tape.read(m)
        s = m // 2
        cap = min(w.horizon, u.horizon)
        if s + 1 > cap:
            raise HorizonError(
                f"output bit {m} needs marker stage {s + 1} beyond horizon {cap}")

        def column(d):
            return BitSource(f"tape-column:{d}",
                             lambda i: tape.read(2 * pair(d, i) + 1))

        permission = ref_d_permission(w, u, column)
        return tape.read(2 * ref_marker_run(s + 1, permission).steps[s].p)
    return RealFunction(f"two2({w.label},{u.label})", emit)


def ref_inverter_two_to_one(w, search_stages=256):
    def emit(tape, m):
        if m % 2 == 1:
            return tape.read(m)
        q = m // 2
        k = 0
        for t in range(search_stages):
            if w.member_at_stage(k, t) or tape.read(2 * pair(k, t) + 1) == 1:
                p_t, k = k, t + 1
            else:
                p_t = t + 1
            if p_t == q:
                return tape.read(2 * t)
        if k == q:
            return 0
        raise DivergenceError(m, f"position {q} not selected within {search_stages} stages")
    return InverterUnderTest(
        RealFunction(f"refinv-two1({w.label},{search_stages})", emit))


# ------------------------------------------------------------------ fixtures

TOY = collatz_toy(64, 10**5)
U2 = StagedStringEnumeration.from_pairs([(3, "01"), (9, "110")], horizon=10**5)
SOURCES = {
    "periodic": periodic("0110"),
    "random": random_source(3),
    "interleaved": interleaved(periodic("0110"), periodic("10")),
}


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


# --------------------------------------------------------------------- tests

def test_traces_match_on_criterion_06_runs():
    for trial in range(200):
        rng = random.Random(4000 + trial)
        w = seeded_enumeration(rng, elements=40, stages=200, draws=6,
                               horizon=512)
        u = seeded_string_enumeration(rng, stages=200, draws=5, horizon=512)
        z = random_source(6000 + trial)
        got, want = marker_run_v1(w, z, 256), ref_marker_run_v1(w, z, 256)
        assert (got.steps, got.k_final, got.d_final) == \
            (want.steps, want.k_final, want.d_final), ("v1", trial)
        got, want = marker_run_v2(w, u, z, 256), ref_marker_run_v2(w, u, z, 256)
        assert (got.steps, got.k_final, got.d_final) == \
            (want.steps, want.k_final, want.d_final), ("v2", trial)


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_two1_evaluate_matches(source):
    x = SOURCES[source]
    for bits in (64, 256, 1024):
        assert tuple(evaluate(two_to_one_v1(TOY), x, bits)) == \
            tuple(evaluate(ref_two_to_one_v1(TOY), x, bits)), bits


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_two2_evaluate_matches(source):
    x = SOURCES[source]
    for bits in (64, 256):
        assert tuple(evaluate(two_to_one_v2(TOY, U2), x, bits)) == \
            tuple(evaluate(ref_two_to_one_v2(TOY, U2), x, bits)), bits


def test_evaluate_errors_match():
    short = StagedEnumeration.from_pairs([(2, 1)], horizon=20)
    for f, g in ((two_to_one_v1(short), ref_two_to_one_v1(short)),
                 (two_to_one_v2(short, U2), ref_two_to_one_v2(short, U2))):
        assert outcome(evaluate, f, random_source(5), 64) == \
            outcome(evaluate, g, random_source(5), 64)


def test_representation_matches_for_every_word_to_depth_8():
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 1)], horizon=10**4)
    for new, old in ((two_to_one_v1(w), ref_two_to_one_v1(w)),
                     (two_to_one_v2(w, U2), ref_two_to_one_v2(w, U2))):
        got, want = Representation(new, 8, 48), Representation(old, 8, 48)
        for length in range(9):
            for i in range(2 ** length):
                sigma = format(i, f"0{length}b") if length else ""
                assert got.map_with_reads(sigma) == want.map_with_reads(sigma), sigma


def test_fiber_counts_match():
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 1)], horizon=10**4)
    y = evaluate(two_to_one_v1(w), interleaved(random_source(1), random_source(2)),
                 64).output
    assert fiber_branch_count(two_to_one_v1(w), y, 8) == \
        fiber_branch_count(ref_two_to_one_v1(w), y, 8)


def test_reference_inverter_matches():
    for search_stages in (0, 1, 5, 256):
        new = reference_inverter_two_to_one(TOY, search_stages).g
        old = ref_inverter_two_to_one(TOY, search_stages).g
        for name, y in sorted(SOURCES.items()):
            for bits in (1, 2, 9, 64, 200):
                assert outcome(evaluate, new, y, bits) == \
                    outcome(evaluate, old, y, bits), (search_stages, name, bits)


def test_two1_extraction_lines_match():
    new = reference_inverter_two_to_one(TOY)
    old = ref_inverter_two_to_one(TOY)
    for n in range(32):
        assert extract_two_to_one(new, TOY, n).line() == \
            extract_two_to_one(old, TOY, n).line(), n


def old_d_keyed(w, u, z):
    """The d-keyed rule before permissions took a bit function: a BitSource
    per column and permission call, compared word by word against U_s."""
    def permission(k, d, s):
        if w.member_at_stage(d, s):
            return "halting"
        col = BitSource(f"column:{d}", lambda i: z(pair(d, i)))
        for word in u.words_at(s):
            if all(col.bit(i) == int(ch) for i, ch in enumerate(word)):
                return "z"
        return None
    return permission


def recording(base):
    """`base`, and the list of positions read from it, in read order."""
    reads = []

    def bit(i):
        reads.append(i)
        return base.bit(i)

    return BitSource(f"rec:{base.spec}", bit), reads


def test_d_keyed_reads_in_the_old_order():
    z_stages = 0
    for trial in range(20):
        rng = random.Random(7000 + trial)
        w = seeded_enumeration(rng, elements=40, stages=200, draws=6, horizon=512)
        u = seeded_string_enumeration(rng, stages=200, draws=5, horizon=512)
        old = _marker_map(f"two2({w.label},{u.label})",
                          lambda tape: old_d_keyed(w, u, odd_half(tape)), _selected_position(512))
        runs = []
        for f in (two_to_one_v2(w, u), old):
            x, reads = recording(random_source(8000 + trial))
            runs.append((tuple(evaluate(f, x, 256)), reads))
        assert runs[0] == runs[1], trial
        runs = []
        for run in (lambda z: marker_run_v2(w, u, z, 256),
                    lambda z: Marker().advance_to(256, old_d_keyed(w, u, z.bit)).trace()):
            z, reads = recording(random_source(9000 + trial))
            runs.append((run(z), reads))
        assert runs[0] == runs[1], trial
        z_stages += sum(step.permission == "z" for step in runs[0][0].steps)
    assert z_stages > 0  # some column hit a word, so whole words were compared
