"""A tape read, an emitted bit and a marker stage against the call stack
they replaced.

A read once went `OracleTape.read` → `BitSource.bit` → the raw source, an
output bit `try_emit` → `emit` → the emitter, and a marker stage asked
`StagedEnumeration.member_at_stage` and `bitcore.pair` through a permission
rule over an odd-half reader, a lambda per read.  The references below are
test-local copies of that stack: `FormerTape` reads, emits and tries bits
as the tape did, and `former_k_keyed` / `former_d_keyed` are the rules over
`odd_half`.  On drawn maps, sources (non-bits included), barriers, budgets,
checkpoints, rollbacks and branches, and enumerations whose horizon ends
inside a scan, every step must give the same bit or the same exception
type, text and bit index, with the same use, positions read in first-read
order, budget, open bit and marker rows.
"""

import random

from hypothesis import given, settings, strategies as st

from oneway.bitcore import pair
from oneway.constructions import (
    Marker,
    _marker_map,
    _selected_position,
    bit_select,
    identity_injection,
    marker_run_v1,
    marker_run_v2,
    one_way_surjection,
    partial_injection,
    simple_one_way,
    stage_where_counter_reaches,
    two_to_one_v1,
    two_to_one_v2,
    z_builder_v1,
    z_builder_v2,
)
from oneway.enumeration import DecidedSet, StagedEnumeration, StagedStringEnumeration, \
    column_hit
from oneway.errors import _NO_VALUE, DivergenceError, HorizonError, _BudgetExhausted, \
    _ReadBeyondBarrier
from oneway.inversion import InverterUnderTest, reference_inverter_two_to_one
from oneway.streams import (
    BitSource,
    OracleTape,
    barrier_image,
    column_source,
    finite,
    flipped_at,
    interleaved,
    ones,
    periodic,
    random_source,
    zeros,
)
from test_marker_differential import library_scan


# ---------------------------------------------------------------- references

class FormerTape(OracleTape):
    """The tape with its former read, emit and try_emit: a read checks, then
    calls `source.bit`; `try_emit` calls `emit`."""

    def read(self, i):
        if i < 0:
            raise ValueError(f"tape position must be a natural, got {i}")
        if self.barrier is not None and i >= self.barrier:
            raise _ReadBeyondBarrier(i)
        if self._budget_left <= 0:
            raise _BudgetExhausted()
        self._budget_left -= 1
        b = self.source.bit(i)
        if i + 1 > self.use:
            self.use = i + 1
        self._reads[i] = None
        return b

    def emit(self, f, m):
        if m < 0:
            raise ValueError(f"output bit must be a natural, got {m}")
        self._budget_left = self._budget_limit
        try:
            return f.emit(self, m)
        except _BudgetExhausted:
            raise DivergenceError(m, "step budget exhausted") from None

    def try_emit(self, f, m):
        mark = self._open[1] if self._open and self._open[0] == m else len(self._reads)
        self._open = (m, mark)
        try:
            b = self.emit(f, m)
        except _NO_VALUE as exc:
            self._open = None
            while len(self._reads) > mark:
                self._reads.popitem()
            if isinstance(exc, HorizonError):
                raise
            return None
        self._open = None
        return b


def odd_half(tape):
    """z of an input x⊕z, read through the tape: z(i) is input bit 2i+1."""
    return lambda i: tape.read(2 * i + 1)


def former_k_keyed(w, z):
    def permission(k, d, s):
        if w.member_at_stage(k, s):
            return "halting"
        if z(pair(k, s)) == 1:
            return "z"
        return None

    return permission


def former_d_keyed(w, u, z):
    def permission(k, d, s):
        if w.member_at_stage(d, s):
            return "halting"
        if column_hit(u, lambda i: z(pair(d, i)), s):
            return "z"
        return None

    return permission


def former_rule(w, u):
    if u is None:
        return lambda tape: former_k_keyed(w, odd_half(tape))
    return lambda tape: former_d_keyed(w, u, odd_half(tape))


def former_two_to_one(w, u):
    cap = w.horizon if u is None else min(w.horizon, u.horizon)
    name = f"two1({w.label})" if u is None else f"two2({w.label},{u.label})"
    return _marker_map(name, former_rule(w, u), _selected_position(cap))


def former_reference_inverter(w, search_stages, u):
    """`reference_inverter_two_to_one` over the former rules."""

    def selecting_stage(marker, permission, q):
        stop = search_stages
        if stop is None or q <= stop:
            k, d = marker.state_at(q, permission)
            if k != q:
                return q - 1
            if stop is None:
                entry = w.entry_stage(q if u is None else d)
                stop = max(256, q) if entry is None else max(q, entry) + 1
            t = marker.first_update(q, stop, permission)
            if t is not None:
                return t
        if marker.state_at(stop, permission)[0] != q:
            raise DivergenceError(2 * q, f"position {q} not selected within {stop} stages")
        return None

    limit = "" if search_stages is None else f",{search_stages}"
    return InverterUnderTest(_marker_map(
        f"refinv-two{1 if u is None else 2}({w.label}{limit})", former_rule(w, u),
        selecting_stage))


def former_marker_run(w, u, z, stages):
    if u is None:
        if stages > w.horizon:
            raise HorizonError(f"marker run of {stages} stages beyond horizon {w.horizon}")
        return Marker().advance_to(stages, former_k_keyed(w, z.bit)).trace()
    if stages > w.horizon or stages > u.horizon:
        raise HorizonError(
            f"marker run of {stages} stages beyond horizons ({w.horizon}, {u.horizon})")
    return Marker().advance_to(stages, former_d_keyed(w, u, z.bit)).trace()


def former_stage_where_counter_reaches(w, u, z, n):
    if n < 0:
        raise ValueError("counter target must be a natural")
    cap = min(w.horizon, u.horizon)
    marker, permission = Marker(), former_d_keyed(w, u, z.bit)
    wordless = not u.pairs()
    while marker.d < n:
        if wordless and w.entry_stage(marker.d) is None:
            break
        if marker.first_update(len(marker.rows), cap, permission) is None:
            break
    if marker.d < n:
        raise HorizonError(f"counter reached {marker.d}, not {n}, within horizon {cap}")
    return len(marker.rows)


# ------------------------------------------------------------------ drawing

WORDS = ("00", "011", "10", "111", "0100")  # prefix-free


def drawn_enumerations(draw):
    """W with a few entries among 0..11 and U with a few of WORDS, each with
    a horizon that is short (a scan can cross it) or far."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    horizon = draw(st.sampled_from([10**4, *range(0, 60, 3)]))
    schedule = {}
    for _ in range(rng.randrange(7)):
        s, n = rng.randrange(min(horizon, 120) + 1), rng.randrange(12)
        if s not in schedule and n not in schedule.values():
            schedule[s] = n
    w = StagedEnumeration(schedule, horizon, f"w{len(schedule)}")
    u_horizon = draw(st.sampled_from([10**4, horizon, 40]))
    stages = rng.sample(range(min(u_horizon, 60) + 1), min(u_horizon + 1, rng.randrange(6)))
    u = StagedStringEnumeration(dict(zip(stages, rng.sample(WORDS, len(stages)))), u_horizon, "u")
    return w, u


def drawn_source(draw, u):
    """A source of every kind the library builds, or one that returns the
    non-bit 2, True or 1.0 at a drawn position, possibly under flips."""
    word = draw(st.text("01", max_size=24))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random", "periodic", "finite", "interleave", "flips",
                                 "columns", "zbuild1", "zbuild2", "nonbit"]))
    if kind == "random":
        return random_source(seed)
    if kind == "periodic":
        return periodic(word or "1")
    if kind == "finite":
        return finite(word)
    if kind == "interleave":
        return interleaved(finite(word), random_source(seed))
    if kind == "flips":
        stack = flipped_at(random_source(seed), *draw(st.lists(st.integers(0, 300), max_size=4)))
        return flipped_at(stack, *draw(st.lists(st.integers(0, 300), max_size=4)))
    if kind == "columns":
        c = draw(st.integers(0, 5))
        return column_source({c: finite(word), c + 2: ones()}, periodic("011"))
    if kind.startswith("zbuild"):  # z alone, or as the odd half of an input
        try:
            z = z_builder_v1(draw(st.integers(0, 8)), word) if kind == "zbuild1" else \
                z_builder_v2(u, draw(st.integers(0, 8)))
        except ValueError:  # every column extends a word of U
            z = periodic("01")
        return interleaved(random_source(seed), z) if draw(st.booleans()) else z
    bad, at = draw(st.sampled_from([2, True, 1.0])), draw(st.integers(0, 80))
    base = random_source(seed)._bit
    source = BitSource(f"nonbit:{bad!r}@{at}", lambda i: bad if i == at else base(i))
    return flipped_at(source, *draw(st.lists(st.integers(0, 80), max_size=2)))


def drawn_maps(draw, w, u):
    """(label, the library's map, the former one)."""
    label = draw(st.sampled_from(["two1", "two2", "refinv-two1", "refinv-two2", "simple",
                                  "surj", "bitselect", "inj"]))
    if label in ("two1", "two2"):
        v = None if label == "two1" else u
        return label, (two_to_one_v2(w, u) if v else two_to_one_v1(w)), former_two_to_one(w, v)
    if label.startswith("refinv"):
        v = None if label == "refinv-two1" else u
        stages = draw(st.one_of(st.none(), st.integers(0, 60)))
        return label, library_scan(w, stages, v).g, former_reference_inverter(w, stages, v).g
    if label == "inj":
        d = DecidedSet(set(w.limit_members()) | {1, 4, 9}, horizon=max(w.horizon, 40))
        f = partial_injection(w, d)
        return label, f, f
    f = {"simple": simple_one_way, "surj": one_way_surjection,
         "bitselect": lambda w: bit_select(identity_injection())}[label](w)
    return label, f, f


def failure(exc):
    """An exception as an outcome: its type, text and the bit it names."""
    return type(exc), str(exc), getattr(exc, "bit_index", None)


def markers(tape):
    return [(m.k, m.d, m.kept, tuple(m.rows))
            for m in tape.state.values() if isinstance(m, Marker)]


def step(tape, op, f, saved):
    """Apply one drawn op to `tape`; the tape it leaves (a branch replaces
    it) and what the op gave, with the tape's use, reads in first-read order,
    budget, open bit and markers."""
    kind, arg = op
    try:
        if kind == "emit":
            got = tape.emit(f, arg)
        elif kind == "try":
            got = tape.try_emit(f, arg)
        elif kind == "read":
            got = tape.read(arg)
        elif kind == "image":
            got = barrier_image(f, tape, arg)
        elif kind == "checkpoint":
            saved.append(tape.checkpoint())
            got = len(saved)
        elif kind == "rollback":
            got = None
            if saved:
                tape.rollback(saved[arg % len(saved)])
        else:
            tape = tape.branch(tape.source)
            got = "branch"
    except Exception as exc:  # the error is the outcome
        got = failure(exc)
    return tape, (got, tape.use, tuple(tape._reads), tape.positions_read(),
                  tape._budget_left, tape._open, markers(tape))


EMITS = st.tuples(st.sampled_from(["emit", "try"]), st.integers(-1, 90))
OPS = st.one_of(
    EMITS, EMITS, EMITS,  # most steps emit a bit
    st.tuples(st.just("read"), st.integers(-2, 400)),
    st.tuples(st.just("image"), st.integers(0, 60)),
    st.tuples(st.sampled_from(["checkpoint", "rollback", "branch"]), st.integers(0, 5)),
)


# --------------------------------------------------------------------- tests

@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.data())
def test_tape_steps_match_the_former_stack(data):
    draw = data.draw
    w, u = drawn_enumerations(draw)
    x = drawn_source(draw, u)
    label, new, old = drawn_maps(draw, w, u)
    barrier = draw(st.one_of(st.none(), st.integers(0, 300)))
    budget = draw(st.one_of(st.just(10**6), st.integers(0, 3)))
    ops = draw(st.lists(OPS, max_size=14))
    tapes = [OracleTape(x, barrier, budget), FormerTape(x, barrier, budget)]
    saved = [[], []]
    for op in ops:
        (tapes[0], got), (tapes[1], want) = (step(tapes[i], op, f, saved[i])
                                             for i, f in enumerate((new, old)))
        assert got == want, (label, op)


def recording(base):
    """`base`, and the list of positions read from it, in read order."""
    reads = []

    def bit(i):
        reads.append(i)
        return base.bit(i)

    return BitSource(f"rec:{base.spec}", bit), reads


def run(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return failure(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data(), st.integers(0, 130), st.integers(0, 10))
def test_marker_runs_match_the_former_rules(data, stages, n):
    """marker_run_v1/v2 and stage_where_counter_reaches, which read z on its
    own: the same trace or failure, from the same reads in the same order."""
    w, u = drawn_enumerations(data.draw)
    z = drawn_source(data.draw, u)
    cases = [(lambda z: marker_run_v1(w, z, stages),
              lambda z: former_marker_run(w, None, z, stages)),
             (lambda z: marker_run_v2(w, u, z, stages),
              lambda z: former_marker_run(w, u, z, stages)),
             (lambda z: stage_where_counter_reaches(w, u, z, n),
              lambda z: former_stage_where_counter_reaches(w, u, z, n))]
    for new, old in cases:
        got, want = recording(z), recording(z)
        assert (run(new, got[0]), got[1]) == (run(old, want[0]), want[1])


PARKED = interleaved(zeros(), z_builder_v1(1))  # parks the k-keyed marker on 1
NAMED = {  # (source, barrier, budget): what bit 2 of refinv-two1(empty:30) raises
    "non-bit": ((BitSource("two", lambda i: 2 if i == 1 else 0), None, 10**6),
                (ValueError, "source two produced non-bit 2 at 1", None)),
    "horizon mid-scan": ((PARKED, None, 10**6),
                         (HorizonError, "stage 31 beyond horizon 30", None)),
    "barrier": ((PARKED, 3, 10**6),
                (_ReadBeyondBarrier, "read at position 9 crossed the barrier", None)),
    "budget": ((PARKED, None, 1), (DivergenceError, "no output bit at index 2: step budget "
                                                    "exhausted", 2)),
}


def test_named_failures_match():
    """Each failure the property draws, named: `emit` raises it on both
    stacks, and `try_emit` turns all but a non-bit and a horizon into None."""
    g = reference_inverter_two_to_one(StagedEnumeration({}, 30, "empty")).g
    for case, (args, expected) in NAMED.items():
        assert [run(tape.emit, g, 2) for tape in (OracleTape(*args), FormerTape(*args))] == \
            [expected] * 2, case
        assert [run(tape.try_emit, g, 2) for tape in (OracleTape(*args), FormerTape(*args))] == \
            [expected if case in ("non-bit", "horizon mid-scan") else None] * 2, case
