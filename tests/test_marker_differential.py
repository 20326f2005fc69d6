"""The resumable marker against the plain per-bit recursion it replaced.

The reference below reruns the movable-marker recursion from stage 0 for
every query, exactly as the library once did in four places.  The library
now keeps one marker per map and tape and runs stages forward on demand;
every output, use, read set, trace and verdict must agree with the
reference.

`ref_scan_inverter` is the reference inverter of both two-to-one maps as it
was when its scan for the stage selecting a parked position q called
`Marker.advance_to` once per stage.  The library's scan is one pass of the
marker's own stage loop up to the first update from stage q on; on every
query, bit, use, reads in order, marker rows and error text must agree.
`fixed_limit_inverter` is that one-pass scan cut at a fixed number of
stages, the library's `_marker_map` under a test-local index: with it a
test makes the inverter fail on a chosen bit.

`PYTHONPATH=src python tests/test_marker_differential.py` prints, for the
thm-two1 and thm-two2 demos, the marker stages each extraction phase runs
and the passes of the marker's stage loop that run them, for the library
and for the per-stage scan.
"""

import random
import sys

import pytest

from oneway.bitcore import pair
import oneway.cli as cli
import oneway.inversion as inversion
from oneway.constructions import (
    Marker,
    MarkerStep,
    MarkerTrace,
    _marker_map,
    _selected_position,
    d_keyed,
    k_keyed,
    marker_run_v1,
    marker_run_v2,
    stage_where_counter_reaches,
    two_to_one_v1,
    two_to_one_v2,
    z_builder_v1,
    z_builder_v2,
)
from oneway.enumeration import StagedEnumeration, StagedStringEnumeration, \
    collatz_toy, column_hit
from oneway.errors import DivergenceError, HorizonError
from oneway.inversion import InverterUnderTest, extract_two_to_one, \
    fiber_branch_count, reference_inverter_two_to_one
from oneway.streams import BitSource, OracleTape, RealFunction, Representation, evaluate, \
    evaluate_bit, finite, interleaved, periodic, random_source

from test_acceptance import seeded_enumeration, seeded_string_enumeration
from test_streams import image_with_reads


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


def fixed_limit_inverter(w, limit, u=None):
    """The reference inverter of either two-to-one map with its scan cut at
    `limit` stages in place of the key's entry: `Marker.state_at`, then
    `first_update` below the limit; a bit whose position no stage below the
    limit selects, with the marker not parked on it, diverges."""

    def selecting_stage(marker, permission, q):
        if q <= limit:
            if marker.state_at(q, permission)[0] != q:
                return q - 1
            t = marker.first_update(q, limit, permission)
            if t is not None:
                return t
        if marker.state_at(limit, permission)[0] != q:
            raise DivergenceError(2 * q, f"position {q} not selected within {limit} stages")
        return None

    rule = (lambda tape: k_keyed(w, tape.read)) if u is None else \
        (lambda tape: d_keyed(w, u, tape.read))
    return InverterUnderTest(_marker_map(
        f"refinv-two{1 if u is None else 2}({w.label},{limit})", rule, selecting_stage))


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
                assert image_with_reads(got, sigma) == image_with_reads(want, sigma), sigma


def test_fiber_counts_match():
    w = StagedEnumeration.from_pairs([(1, 0), (4, 3), (6, 1)], horizon=10**4)
    y = evaluate(two_to_one_v1(w), interleaved(random_source(1), random_source(2)),
                 64).output
    assert fiber_branch_count(two_to_one_v1(w), y, 8) == \
        fiber_branch_count(ref_two_to_one_v1(w), y, 8)


def test_reference_inverter_matches():
    for search_stages in (0, 1, 5, 256):
        new = fixed_limit_inverter(TOY, search_stages).g
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
                          lambda tape: old_d_keyed(w, u, lambda i: tape.read(2 * i + 1)),
                          _selected_position(512))
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


# ------------------------------------------------- the per-stage parked scan

def ref_selecting_stage(w, search_stages, u):
    """The reference inverter's index with its scan for the stage that
    selects q made one `Marker.advance_to` call per stage."""

    def selecting_stage(marker, permission, q):
        stop = search_stages
        if stop is None:
            k, d = marker.state_at(q, permission)
            if k != q:
                return q - 1
            entry = w.entry_stage(q if u is None else d)
            stop = max(256, q) if entry is None else max(q, entry) + 1
        # p_t is t+1 or k_t <= t, so no stage before q-1 selects q
        for t in range(max(q - 1, 0), stop):
            if marker.advance_to(t + 1, permission).rows[t][2] == q:
                return t
        if marker.state_at(stop, permission)[0] != q:
            raise DivergenceError(2 * q, f"position {q} not selected within {stop} stages")
        return None

    return selecting_stage


def ref_scan_inverter(w, search_stages=None, u=None):
    """`reference_inverter_two_to_one` with the per-stage scan."""
    rule = (lambda tape: k_keyed(w, tape.read)) if u is None else \
        (lambda tape: d_keyed(w, u, tape.read))
    limit = "" if search_stages is None else f",{search_stages}"
    return InverterUnderTest(_marker_map(
        f"refinv-two{1 if u is None else 2}({w.label}{limit})", rule,
        ref_selecting_stage(w, search_stages, u)))


def library_scan(w, search_stages=None, u=None):
    """The library's inverter, or with a limit `fixed_limit_inverter`."""
    if search_stages is None:
        return reference_inverter_two_to_one(w, u=u)
    return fixed_limit_inverter(w, search_stages, u)


SCANS = {"library": library_scan, "per-stage": ref_scan_inverter}


def markers(tape):
    """Every marker on the tape: k, d, kept and its rows."""
    return [(m.k, m.d, m.kept, tuple(m.rows))
            for m in tape.state.values() if isinstance(m, Marker)]


def logged(make, log):
    """`make`'s inverter, appending to `log` for every bit it emits: the
    bit or the type and text of what it raised, then the tape's use, its
    reads in first-read order and its markers."""

    def build(w, search_stages=None, u=None):
        g = make(w, search_stages, u)

        def emit(tape, m):
            try:
                b = g.g.emit(tape, m)
            except Exception as exc:
                log.append((m, type(exc), str(exc), tape.use, tuple(tape._reads),
                            markers(tape)))
                raise
            log.append((m, b, tape.use, tuple(tape._reads), markers(tape)))
            return b

        return InverterUnderTest(RealFunction(g.g.name, emit), g.binary)

    return build


def queried(g, y, queries):
    """Each query on a fresh tape, then all of them in turn on one tape;
    with every outcome the use, reads in first-read order, sorted reads and
    markers, and every read of y in order."""
    x, reads = recording(y)
    fresh = [outcome(evaluate_bit, g.g, x, m) for m in queries]
    tape, log = OracleTape(x), []
    for m in queries:
        log.append((outcome(tape.try_emit, g.g, m), outcome(tape.emit, g.g, m), tape.use,
                    tuple(tape._reads), tape.positions_read(), markers(tape)))
    return fresh, log, reads


WHERE = ("before q", "after q", "past 256", "never")


def _entry(rng, where, q):
    return {"before q": rng.randrange(q) if q else 0, "after q": rng.randrange(q + 1, 257),
            "past 256": rng.randrange(257, 600), "never": None}[where]


def _toy(rng, key, entry, elements, horizon):
    """A schedule of a few drawn elements other than `key`, which enters at
    `entry` (or never), within a horizon of at least `horizon`."""
    schedule = {} if entry is None else {entry: key}
    for _ in range(rng.randrange(6)):
        s, n = rng.randrange(min(horizon, 300) + 1), rng.randrange(elements)
        if s not in schedule and n != key and n not in schedule.values():
            schedule[s] = n
    return StagedEnumeration(schedule, max(horizon, *schedule, 0), f"toy{len(schedule)}")


def _word(rng, most):
    return "".join(rng.choice("01") for _ in range(rng.randrange(most + 1)))


def _even_half(rng):
    """υ0^ω for a drawn υ, or a random real: y's bits the inverter copies."""
    if rng.random() < 0.5:
        return finite(_word(rng, 8))
    return random_source(rng.randrange(10**6))


def k_keyed_case(rng, where):
    """(w, None, y, q): the even half of y drawn, its odd half the adversarial
    z that parks the k-keyed marker on q, whose key q enters W `where`."""
    q = rng.randrange(1, 40)
    horizon = rng.choice([10**4, rng.randrange(q, 300)])
    w = _toy(rng, q, _entry(rng, where, q), 64, horizon)
    zeta = _word(rng, min(q - 1, 5))
    return w, None, interleaved(_even_half(rng), z_builder_v1(q, zeta)), q


def d_keyed_case(rng, where):
    """(w, U, y, q): the even half of y drawn, its odd half the adversarial
    z that parks the d-keyed marker at the stage q where its counter reaches
    n, and the key n enters W `where` relative to that stage."""
    while True:
        u = seeded_string_enumeration(rng, stages=60, draws=rng.randrange(1, 5), horizon=10**4)
        n = rng.randrange(1, 10)
        try:
            z = z_builder_v2(u, n)
            q = stage_where_counter_reaches(_toy(rng, n, None, 16, 10**4), u, z, n)
        except (ValueError, HorizonError):
            continue
        horizon = rng.choice([10**4, rng.randrange(q, 300)])
        w = _toy(rng, n, _entry(rng, where, q), 16, horizon)
        return w, u, interleaved(_even_half(rng), z), q


@pytest.mark.parametrize("where", WHERE)
@pytest.mark.parametrize("keyed", ["k", "d"])
def test_parked_scan_matches_per_stage_scan(keyed, where):
    """Drawn toys, upsilon and zeta, and scan limits below, at and above q."""
    rng = random.Random(f"parked:{keyed}:{where}")
    for trial in range(6):
        w, u, y, q = (k_keyed_case if keyed == "k" else d_keyed_case)(rng, where)
        queries = [2 * q, *range(2 * q + 4), 2 * (q + rng.randrange(1, 30)), 2 * q]
        for search_stages in (None, rng.randrange(q), q, q + rng.randrange(1, 300)):
            runs = [queried(make(w, search_stages, u), y, queries) for make in SCANS.values()]
            assert runs[0] == runs[1], (trial, w.pairs(), y.spec, q, search_stages)


@pytest.mark.parametrize("script", [row.demo for row in cli.REDUCTIONS])
def test_demo_queries_match_per_stage_scan(monkeypatch, script):
    """Every bit the four demos ask of the reference inverter, in order."""
    runs = []
    for make in SCANS.values():
        log, lines = [], []
        monkeypatch.setattr(cli, "reference_inverter_two_to_one", logged(make, log))
        assert cli._run_demo(script, lines.append) == 0
        runs.append((lines, log))
    assert runs[0] == runs[1]
    assert bool(runs[0][1]) == script.startswith("thm-two")


def test_extractions_match_per_stage_scan():
    """extract two1 with drawn upsilon and zeta, query by query."""
    rng = random.Random("extract two1")
    for trial in range(12):
        w = _toy(rng, None, None, 32, 10**5)
        n = rng.randrange(1, 32)
        upsilon, zeta = _word(rng, 6), _word(rng, min(n - 1, 4))
        runs = []
        for make in SCANS.values():
            log = []
            g = logged(make, log)(w)
            runs.append((outcome(lambda: extract_two_to_one(g, w, n, upsilon, zeta).line()),
                         log))
        assert runs[0] == runs[1], (trial, w.pairs(), n, upsilon, zeta)


# ---------------------------------------------------------------- the tool

def phase_stages(script, make):
    """(stages, loop passes) of the marker per phase of the demo's
    extractions: the base bit, its six spot checks, the audit and the bound
    (every other marker run: the extractor's own marker)."""
    counts = {phase: [0, 0] for phase in ("bit", "spot", "audit", "bound")}
    phase, bits = ["bound"], [0]
    run, evaluate_one, audit, extract = \
        Marker._run, inversion.evaluate_bit, inversion._audit, inversion._extract

    def counted_run(marker, stages, permission, watch):
        before = len(marker.rows)
        try:
            return run(marker, stages, permission, watch)
        finally:
            counts[phase[0]][0] += len(marker.rows) - before
            counts[phase[0]][1] += 1

    def in_phase(name, fn):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "bound"
        return wrapper

    def evaluate_counted(*args, **kwargs):
        bits[0] += 1  # an extraction's first bit is the base bit, the rest spot checks
        return in_phase("bit" if bits[0] == 1 else "spot", evaluate_one)(*args, **kwargs)

    def extract_counted(*args, **kwargs):
        bits[0] = 0
        return extract(*args, **kwargs)

    patches = {(Marker, "_run"): counted_run, (cli, "reference_inverter_two_to_one"): make,
               (inversion, "evaluate_bit"): evaluate_counted,
               (inversion, "_audit"): in_phase("audit", audit),
               (inversion, "_extract"): extract_counted}
    saved = {key: getattr(*key) for key in patches}
    try:
        for (owner, name), value in patches.items():
            setattr(owner, name, value)
        lines = []
        ok = cli._run_demo(script, lines.append) == 0
    finally:
        for (owner, name), value in saved.items():
            setattr(owner, name, value)
    return ok, lines, counts


def main() -> int:
    """Per demo and phase, the marker stages run and the passes of the
    marker's stage loop that ran them, library beside the per-stage scan."""
    bad = 0
    for script in ("thm-two1", "thm-two2"):
        runs = {name: phase_stages(script, make) for name, make in SCANS.items()}
        same = runs["library"][:2] == runs["per-stage"][:2] and runs["library"][0]
        bad += not same
        print(f"{'ok ' if same else 'BAD'} {script}: phase, stages library/per-stage, "
              f"loop passes library/per-stage")
        for phase in runs["library"][2]:
            lib, ref = runs["library"][2][phase], runs["per-stage"][2][phase]
            print(f"  {phase:<6} {lib[0]:>7}/{ref[0]:<7} {lib[1]:>7}/{ref[1]}")
    print(f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
