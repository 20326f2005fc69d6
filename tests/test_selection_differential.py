"""The selection emitter and the marker-map skeleton against the nine
hand-written emitters they replaced.

Every "copy one chosen input bit" map of the library (the identity, bit
selections, witness maps, the simple map, the surjection, the even half of
the partial injection and the two reference inverters of those shapes) and
the two two-to-one marker maps once wrote out their own emit body.  The
references below are those bodies, kept as test-only copies.  Per bit on one
tape, every family must give the same bit or error, the same `use` and the
same positions read; representations and fiber counts must agree too.

`evaluate` of a built-in selection over a source with a kernel, within its
table bound and under a budget above 0, gathers its bits from one prefix by
the selection's position map as data (`Gather`); any other selection it
emits bit by bit.  The tests at the end hold the gather and `evaluate` to n
`emit` calls on one tape, the per-bit path that every search still takes,
with the same bits, use, positions read and errors.
"""

import dataclasses
import random
import tracemalloc
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from oneway.bitcore import pair, unpair
from oneway.constructions import (
    Injection,
    Marker,
    bit_select,
    d_keyed,
    double_injection,
    identity_injection,
    k_keyed,
    one_way_surjection,
    partial_injection,
    shift_injection,
    simple_one_way,
    surjection_injection,
    two_to_one_v1,
    two_to_one_v2,
    witness_function,
    z_builder_v1,
    z_builder_v2,
)
from oneway.enumeration import DecidedSet, StagedEnumeration, StagedStringEnumeration, \
    collatz_toy
from oneway.errors import DeskError, DivergenceError, HorizonError
from oneway.inversion import InverterUnderTest, fiber_branch_count, \
    reference_inverter_simple, reference_inverter_surjection
from oneway.streams import (
    RANDOM_POSITIONS,
    BitSource,
    OracleTape,
    RealFunction,
    Representation,
    column_source,
    evaluate,
    finite,
    flipped_at,
    identity_function,
    interleaved,
    ones,
    output_source,
    periodic,
    random_source,
    selection,
    zeros,
)
from test_streams import image_with_reads


# ---------------------------------------------------------------- references

def ref_identity_function():
    return RealFunction("identity", lambda tape, m: tape.read(m))


def ref_bit_select(p, name: Optional[str] = None):
    return RealFunction(name or f"bitselect({p.name})",
                        lambda tape, m: tape.read(p.fn(m)))


def ref_witness_function(p, name: Optional[str] = None):
    def emit(tape, m):
        n = p.inverse(m)
        return 0 if n is None else tape.read(n)

    return RealFunction(name or f"witness({p.name})", emit)


def ref_simple_one_way(w):
    def emit(tape, m):
        n, s = unpair(m)
        if w.new_element_at(s) == n:
            return tape.read(n)
        return 0

    return RealFunction(f"simple({w.label})", emit)


def ref_surjection_injection(w):
    """p(⟨n,s⟩) as it read before `StagedEnumeration.entrant`: unpair every
    index and ask the stage for its entry."""

    def fn(m):
        n, s = unpair(m)
        if w.new_element_at(s) == n:
            return 2 * n
        return 2 * m + 1

    def inverse(v):
        if v % 2 == 0:
            s = w.entry_stage(v // 2)
            return None if s is None else pair(v // 2, s)
        m = v // 2
        n, s = unpair(m)
        return None if w.new_element_at(s) == n else m

    return Injection(f"surj-p({w.label})", fn, inverse)


def ref_one_way_surjection(w):
    return ref_bit_select(ref_surjection_injection(w), name=f"surj({w.label})")


def ref_partial_injection(w, d):
    for n in sorted(w.limit_members()):
        if n > d.horizon or not d.contains(n):
            raise ValueError(
                f"enumeration lists {n} but the decided set does not contain it")
    key = object()

    def emit(tape, m):
        j, odd = divmod(m, 2)
        if not odd:
            n, s = unpair(j)
            if w.new_element_at(s) == n:
                return tape.read(n)
            return 0
        checked = tape.state.get(key, 0)
        if j < checked:
            return 0
        for i in range(checked, j + 1):
            if tape.read(i) == 1 and not d.contains(i):
                raise DivergenceError(m, f"input bit {i} is set but undecided")
        tape.state[key] = j + 1
        return 0

    return RealFunction(f"inj({w.label},{d.label})", emit)


def ref_two_to_one_v1(w):
    key = object()

    def emit(tape, m):
        if m % 2 == 1:
            return tape.read(m)
        s = m // 2
        if s + 1 > w.horizon:
            raise HorizonError(
                f"output bit {m} needs marker stage {s + 1} beyond horizon {w.horizon}")
        marker = Marker.on(tape, key).advance_to(s + 1, k_keyed(w, tape.read))
        return tape.read(2 * marker.rows[s][2])

    return RealFunction(f"two1({w.label})", emit)


def ref_two_to_one_v2(w, u):
    key = object()

    def emit(tape, m):
        if m % 2 == 1:
            return tape.read(m)
        s = m // 2
        cap = min(w.horizon, u.horizon)
        if s + 1 > cap:
            raise HorizonError(
                f"output bit {m} needs marker stage {s + 1} beyond horizon {cap}")
        marker = Marker.on(tape, key).advance_to(s + 1, d_keyed(w, u, tape.read))
        return tape.read(2 * marker.rows[s][2])

    return RealFunction(f"two2({w.label},{u.label})", emit)


def ref_reference_inverter_simple(w):
    def emit(tape, m):
        s = w.entry_stage(m)
        if s is None:
            return 0
        return tape.read(pair(m, s))

    return InverterUnderTest(RealFunction(f"refinv-simple({w.label})", emit))


def ref_reference_inverter_surjection(w):
    p = ref_surjection_injection(w)

    def emit(tape, m):
        idx = p.inverse(m)
        if idx is None:
            return 0
        return tape.read(2 * idx)

    return InverterUnderTest(RealFunction(f"refinv-surj({w.label})", emit), binary=True)


# ------------------------------------------------------------------ fixtures

TOY = collatz_toy(64, 10**5)
U2 = StagedStringEnumeration.from_pairs([(3, "01"), (9, "110"), (40, "111")], horizon=10**5)
DECIDED = DecidedSet(set(range(64)) | set(range(100, 4096, 3)), horizon=4096)
SHORT = StagedEnumeration.from_pairs([(2, 1), (5, 0)], horizon=12)
U_SHORT = StagedStringEnumeration.from_pairs([(1, "1")], horizon=9)

# label -> (the library's map, the reference); each built fresh per call
FAMILIES = {
    "identity": lambda: (identity_function(), ref_identity_function()),
    "bitselect:identity": lambda: (bit_select(identity_injection()),
                                   ref_bit_select(identity_injection())),
    "bitselect:double": lambda: (bit_select(double_injection()),
                                 ref_bit_select(double_injection())),
    "bitselect:shift": lambda: (bit_select(shift_injection()),
                                ref_bit_select(shift_injection())),
    "witness:double": lambda: (witness_function(double_injection()),
                               ref_witness_function(double_injection())),
    "witness:shift": lambda: (witness_function(shift_injection()),
                              ref_witness_function(shift_injection())),
    "simple": lambda: (simple_one_way(TOY), ref_simple_one_way(TOY)),
    "surj": lambda: (one_way_surjection(TOY), ref_one_way_surjection(TOY)),
    "inj": lambda: (partial_injection(TOY, DECIDED), ref_partial_injection(TOY, DECIDED)),
    "two1": lambda: (two_to_one_v1(TOY), ref_two_to_one_v1(TOY)),
    "two2": lambda: (two_to_one_v2(TOY, U2), ref_two_to_one_v2(TOY, U2)),
    "two1:short": lambda: (two_to_one_v1(SHORT), ref_two_to_one_v1(SHORT)),
    "two2:short": lambda: (two_to_one_v2(SHORT, U_SHORT),
                           ref_two_to_one_v2(SHORT, U_SHORT)),
    "refinv-simple": lambda: (reference_inverter_simple(TOY).g,
                              ref_reference_inverter_simple(TOY).g),
    "refinv-surj": lambda: (reference_inverter_surjection(TOY).g,
                            ref_reference_inverter_surjection(TOY).g),
}

SOURCES = {
    "random": lambda: random_source(7),
    "periodic": lambda: periodic("1101000"),
    "flip": lambda: flipped_at(periodic("10"), 33),
    "columns": lambda: column_source({0: finite("1011"), 3: ones(), 5: periodic("01")},
                                     zeros()),
    "interleave": lambda: interleaved(random_source(11), periodic("011")),
}


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def bit_by_bit(f, x, order, barrier=None, searching=False, reads_every=1):
    """Emit the bits of `order` on one tape (through `try_emit` when
    searching); after each, the bit or its error and the use, and the
    positions read after every `reads_every`-th bit and after the last."""
    tape = OracleTape(x, barrier=barrier)
    run = tape.try_emit if searching else tape.emit
    rows = []
    for idx, m in enumerate(order):
        row = (outcome(run, f, m), tape.use)
        if idx % reads_every == 0 or idx == len(order) - 1:
            row += (tape.positions_read(),)
        rows.append(row)
    return rows


# --------------------------------------------------------------------- tests

def test_names_and_inverter_kinds_match():
    for label, make in FAMILIES.items():
        new, old = make()
        assert new.name == old.name, label
    assert reference_inverter_simple(TOY).binary is False
    assert reference_inverter_surjection(TOY).binary is True


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bits_use_and_reads_match_per_bit(family, source):
    new, old = FAMILIES[family]()
    x = SOURCES[source]()
    # every bit of the first 256 with its reads, then every 64th to 2,048
    assert bit_by_bit(new, x, range(256)) == bit_by_bit(old, x, range(256))
    assert bit_by_bit(new, x, range(2048), reads_every=64) == \
        bit_by_bit(old, x, range(2048), reads_every=64)
    for n in (1, 2, 17, 256, 2048):
        assert outcome(lambda: tuple(evaluate(new, x, n))) == \
            outcome(lambda: tuple(evaluate(old, x, n))), n


def test_marker_maps_raise_the_same_horizon_error():
    for family, bit in (("two1:short", 24), ("two2:short", 18)):
        new, old = FAMILIES[family]()
        assert outcome(new.emit, OracleTape(zeros()), bit) == \
            outcome(old.emit, OracleTape(zeros()), bit)
        assert outcome(evaluate, new, random_source(5), 64)[0] is HorizonError
    two1, _ = FAMILIES["two1:short"]()
    assert outcome(evaluate, two1, zeros(), 64) == \
        (HorizonError, "output bit 24 needs marker stage 13 beyond horizon 12")
    two2, _ = FAMILIES["two2:short"]()
    assert outcome(evaluate, two2, zeros(), 64) == \
        (HorizonError, "output bit 18 needs marker stage 10 beyond horizon 9")


def test_partial_injection_diverges_the_same_way():
    w = StagedEnumeration.from_pairs([(0, 2), (3, 5)], horizon=100)
    d = DecidedSet({1, 2, 5}, horizon=40)
    new, old = partial_injection(w, d), ref_partial_injection(w, d)
    x = finite("0110001")
    assert bit_by_bit(new, x, range(64)) == bit_by_bit(old, x, range(64))
    assert outcome(evaluate, new, x, 64) == outcome(evaluate, old, x, 64) == \
        (DivergenceError, "no output bit at index 13: input bit 6 is set but undecided")


# the last entry sits at m = pair(1, 12) = pair(0, 13) - 1, the horizon bound
EDGE = StagedEnumeration.from_pairs([(5, 3), (12, 1)], horizon=12)
EDGE_FAMILIES = {
    "simple": lambda w: (simple_one_way(w), ref_simple_one_way(w)),
    "surj": lambda w: (one_way_surjection(w), ref_one_way_surjection(w)),
    "refinv-surj": lambda w: (reference_inverter_surjection(w).g,
                              ref_reference_inverter_surjection(w).g),
}


@pytest.mark.parametrize("w", [EDGE, SHORT, TOY], ids=["edge", "short", "toy"])
@pytest.mark.parametrize("family", sorted(EDGE_FAMILIES))
def test_the_horizon_bound_matches(family, w):
    """At m = bound-1 (stage h), m = bound (stage h+1: a HorizonError) and
    pair(h+5, 0) (past the bound at stage 0: no error), bit for bit."""
    new, old = EDGE_FAMILIES[family](w)
    bound = pair(0, w.horizon + 1)
    order = [bound - 1, bound, pair(w.horizon + 5, 0), pair(1, 12), pair(3, 5)]
    # sources that hold no per-position state: the toy's bound is about 5·10^9
    for x in (ones(), periodic("10"), periodic("0111")):
        assert bit_by_bit(new, x, order) == bit_by_bit(old, x, order)
        for m in order:
            assert outcome(OracleTape(x).emit, new, m) == \
                outcome(OracleTape(x).emit, old, m), m
    if family == "surj":
        p, q = surjection_injection(w), ref_surjection_injection(w)
        for m in order:
            assert outcome(p.fn, m) == outcome(q.fn, m), m
            for v in (2 * m, 2 * m + 1):
                assert outcome(p.inverse, v) == outcome(q.inverse, v), v


def test_the_bound_cases_raise_where_expected():
    new, _ = EDGE_FAMILIES["simple"](EDGE)
    bound = pair(0, 13)
    assert outcome(OracleTape(ones()).emit, new, bound - 1) == 1
    assert outcome(OracleTape(ones()).emit, new, bound) == \
        (HorizonError, "stage 13 beyond horizon 12")
    assert outcome(OracleTape(ones()).emit, new, pair(17, 0)) == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_representation_matches_for_every_word_to_depth_8(family):
    new, old = FAMILIES[family]()
    got, want = Representation(new, 8, 48), Representation(old, 8, 48)
    for length in range(9):
        for i in range(2 ** length):
            sigma = format(i, f"0{length}b") if length else ""
            assert image_with_reads(got, sigma) == image_with_reads(want, sigma), sigma


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_searching_on_a_barrier_matches(family):
    new, old = FAMILIES[family]()
    order = list(range(40)) + [7, 3, 80, 1]
    for barrier in (0, 5, 17):
        x = periodic("0110")
        assert bit_by_bit(new, x, order, barrier, searching=True) == \
            bit_by_bit(old, x, order, barrier, searching=True), barrier


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_fiber_counts_match(family):
    new, old = FAMILIES[family]()
    y = evaluate(old, finite("0110"), 8).output
    assert fiber_branch_count(new, y, 4) == fiber_branch_count(old, y, 4)


# ------------------------------------------------- property: prefix monotone

@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(sorted(FAMILIES)), st.text("01", max_size=40),
       st.integers(0, 300), st.integers(0, 80))
def test_longer_evaluation_extends_the_shorter(family, word, seed, n):
    """evaluate(f, x, n) is a prefix of evaluate(f, x, n+1), with no larger
    use; when the shorter run fails, the longer fails the same way."""
    f, _ = FAMILIES[family]()
    x = interleaved(finite(word), random_source(seed)) if seed % 2 else finite(word)
    short, long = outcome(evaluate, f, x, n), outcome(evaluate, f, x, n + 1)
    if isinstance(short, tuple):
        assert long == short
    elif not isinstance(long, tuple):
        assert long.output.startswith(short.output)
        assert len(long.output) == n + 1
        assert short.use <= long.use


# ------------------------------------------------ one pass against per bit

TOY16 = collatz_toy(16, 1000)  # 1 enters at stage 0: output bit ⟨1,0⟩ = 1 reads 2, not 3

# every map the library builds with `selection`, each built fresh per call
SELECTIONS = {
    "identity": identity_function,
    **{f"{kind}:{p.name}": (lambda kind=kind, p=p: make(p))
       for kind, make in (("bitselect", bit_select), ("witness", witness_function))
       for p in (identity_injection(), double_injection(), shift_injection())},
    "simple": lambda: simple_one_way(TOY),
    "surj": lambda: one_way_surjection(TOY),
    "simple:short": lambda: simple_one_way(SHORT),
    "surj:short": lambda: one_way_surjection(SHORT),
    "surj:16": lambda: one_way_surjection(TOY16),
    # no run inverts the surjection's map: it has a table, or over an empty
    # enumeration a bound, so its witness reads bit by bit
    "witness:surj-p:empty": lambda: witness_function(surjection_injection(
        StagedEnumeration({}, 12))),
    "refinv-simple": lambda: reference_inverter_simple(TOY).g,
    "refinv-surj": lambda: reference_inverter_surjection(TOY).g,
}


def failure(exc):
    """An exception as an outcome: its type, text and the bit it names."""
    return type(exc), str(exc), getattr(exc, "bit_index", None)


def per_bit(f, x, n, budget=10**6):
    """n `emit` calls on one fresh tape: the bits or the failure, then the
    use, `positions_read()` and the positions in first-read order."""
    tape = OracleTape(x, budget=budget)
    got = []
    try:
        for m in range(n):
            got.append(tape.emit(f, m))
    except Exception as exc:  # the error is the outcome
        got = failure(exc)
    return got, tape.use, tape.positions_read(), tuple(tape._reads)


def evaluated(f, x, n, budget=10**6):
    """`evaluate`'s output and use, or its failure."""
    try:
        return tuple(evaluate(f, x, n, budget))
    except Exception as exc:  # the error is the outcome
        return failure(exc)


def gathers(f, x, n, budget=10**6):
    """Whether `evaluate` takes f's bits by its gather rather than a loop."""
    return bool(f.gather and x.prefix and budget > 0 and n <= f.gather.bound)


def gathered(f, x, n):
    """The gather's bits and use, and the positions its data maps bits
    0..n-1 to as `per_bit` reports them: sorted, then in first-read order."""
    bits, use = f.gather.take(x.prefix, n)
    (o, os, i, step), table = f.gather.run or (n, 1, 0, 1), f.gather.table
    positions = [table[m] if m in table else i + (m - o) // os * step
                 for m in range(n) if m in table or (m >= o and (m - o) % os == 0)]
    return list(bits), use, tuple(sorted(set(positions))), tuple(dict.fromkeys(positions))


def as_evaluated(run):
    """A `per_bit` run as `evaluated` reports it."""
    got, use = run[:2]
    return got if isinstance(got, tuple) else ("".join(map(str, got)), use)


def drawn_source(draw):
    """A source of every kind the library builds, with drawn parameters."""
    word = draw(st.text("01", max_size=24))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random", "periodic", "finite", "interleave", "flips",
                                 "columns", "zeros", "ones", "zbuild1", "zbuild2",
                                 "interleaved flips", "flipped columns",
                                 "interleaved interleaves"]))
    flips = st.lists(st.integers(0, 300), max_size=4)
    if kind == "random":
        return random_source(seed)
    if kind == "periodic":
        return periodic(word or "1")
    if kind == "finite":
        return finite(word)
    if kind == "interleave":
        return interleaved(finite(word), random_source(seed))
    if kind == "flips":  # a flip of a flip stack merges into one set
        stack = flipped_at(random_source(seed), *draw(st.lists(st.integers(0, 300), max_size=4)))
        return flipped_at(stack, *draw(st.lists(st.integers(0, 300), max_size=4)))
    if kind == "columns":
        c = draw(st.integers(0, 5))
        return column_source({c: finite(word), c + 2: ones()}, periodic("011"))
    if kind == "interleaved flips":
        return interleaved(flipped_at(random_source(seed), *draw(flips)),
                           flipped_at(finite(word), *draw(flips)))
    if kind == "flipped columns":
        c = draw(st.integers(0, 5))
        columns = column_source({c: finite(word), c + 1: random_source(seed)}, periodic("011"))
        return flipped_at(columns, *draw(flips))
    if kind == "interleaved interleaves":
        return interleaved(interleaved(periodic(word or "1"), random_source(seed)),
                           interleaved(ones(), flipped_at(finite(word), *draw(flips))))
    if kind == "zbuild1":
        return z_builder_v1(draw(st.integers(0, 8)), word)
    if kind == "zbuild2":
        return z_builder_v2(U2, draw(st.integers(0, 8)))
    return zeros() if kind == "zeros" else ones()


def test_the_gather_asks_its_kernel_once_and_reads_nothing_raw():
    """Where `evaluate` gathers, it asks the source's kernel once, for P =
    use, and makes no raw read; where it does not (a selection without a
    gather, budget 0, n past the table bound), it asks no kernel."""
    raw_reads, asked = [], []

    def counted(source):
        raw, kernel = source._bit, source.prefix
        return dataclasses.replace(source, _bit=lambda i: raw_reads.append(i) or raw(i),
                                   prefix=lambda P: asked.append(P) or kernel(P))

    for make in SELECTIONS.values():
        f = make()
        for x in (random_source(3), interleaved(finite("1101"), ones())):
            for n, budget in ((0, 1), (1, 1), (2, 1), (300, 1), (300, 0), (700, 1)):
                raw_reads.clear(), asked.clear()
                got = evaluated(f, counted(x), n, budget)
                assert got == evaluated(f, x, n, budget) == as_evaluated(per_bit(f, x, n, budget))
                if gathers(f, x, n, budget):
                    assert (raw_reads, asked) == ([], [got[1]]), (f.name, n)
                else:
                    assert asked == [] and len(set(raw_reads)) == len(per_bit(f, x, n, budget)[3])


@pytest.mark.parametrize("make", [zeros, lambda: periodic("0111")])
def test_far_positions_are_read_bit_by_bit(make):
    """A selection without a gather reads far positions raw, one at a time:
    the bits and use are those of n `emit` calls, and no prefix is built."""
    f, n = selection("far", lambda m: 10**9 + m), 512

    def source():  # refuses to build a far prefix rather than take a gigabyte
        kernel = make().prefix
        return dataclasses.replace(make(), prefix=lambda P: kernel(P) if P <= 2 * n + 3 else
                                   pytest.fail(f"a {P}-bit prefix"))

    tracemalloc.start()
    try:
        got = evaluated(f, source(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == as_evaluated(per_bit(f, source(), n))
    assert got[1] == 10**9 + n and peak < 10**6


def test_every_selection_carries_its_map():
    """The built-in selections, and not the reference inverters or the
    surjection map's witness, carry their map as data; no other map does."""
    for label, make in SELECTIONS.items():
        assert (make().gather is None) == label.startswith(("refinv", "witness:surj")), label
    assert witness_function(surjection_injection(TOY)).gather is None
    for label in ("inj", "two1", "two2"):
        assert FAMILIES[label]()[0].gather is None, label


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(sorted(SELECTIONS)), st.data(), st.integers(0, 700))
def test_one_pass_matches_emit_per_bit(family, data, n):
    """The gather where `evaluate` takes it, and `evaluate`, give n `emit`
    calls' bits or error, use, positions read and first-read order."""
    f, x = SELECTIONS[family](), drawn_source(data.draw)
    want = per_bit(f, x, n)
    if gathers(f, x, n):
        assert gathered(f, x, n) == want
    assert evaluated(f, x, n) == as_evaluated(want)


# (selection, source, bits, budget): each at an edge of where the gather runs
GATHER_EDGES = {
    "a table entry replaces the last run position": ("surj:16", ones, 2, 1),
    "no bit": ("surj", lambda: random_source(2), 0, 1),
    "one bit": ("witness:shift", lambda: random_source(2), 1, 1),
    "simple's first entry only": ("simple:short", ones, pair(1, 2) + 1, 1),
    "the last bit within the bound": ("surj:short", ones, pair(0, 13), 1),
    "past the table bound": ("surj:short", ones, pair(0, 13) + 1, 1),
    "budget 0": ("bitselect:double", ones, 9, 0),
    "budget 0 reading nothing": ("simple:short", ones, 8, 0),
    "no kernel": ("bitselect:shift", lambda: z_builder_v1(2, "0110"), 300, 1),
    "an output source": ("witness:double",
                         lambda: output_source(bit_select(shift_injection()), ones()), 300, 1),
}


@pytest.mark.parametrize("case", sorted(GATHER_EDGES))
def test_the_gather_edges_match_emit_per_bit(case):
    label, source, n, budget = GATHER_EDGES[case]
    f = SELECTIONS[label]()
    want = per_bit(f, source(), n, budget)
    assert gathers(f, source(), n, budget) == (case in (
        "a table entry replaces the last run position", "no bit", "one bit",
        "simple's first entry only", "the last bit within the bound"))
    if gathers(f, source(), n, budget):
        assert gathered(f, source(), n) == want
    assert evaluated(f, source(), n, budget) == as_evaluated(want)
    if case == "a table entry replaces the last run position":
        assert want == ([1, 1], 3, (1, 2), (1, 2))


# (selection, source, bits): each fails at a bit that names its cause
FAILURES = {
    # positions 0..7 of simple(SHORT) are None, pair(1, 2) = 8 is not
    "budget 0": (lambda: simple_one_way(SHORT), ones, 20),
    "negative position": (lambda: selection("down", lambda m: 5 - m), ones, 9),
    "source bit 2": (identity_function,
                     lambda: BitSource("two", lambda i: 2 if i == 7 else i & 1), 9),
    "source bit True": (lambda: bit_select(double_injection()),
                        lambda: BitSource("true", lambda i: True if i == 4 else 0), 9),
    "random bound": (lambda: selection("far", lambda m: None if m < 3 else RANDOM_POSITIONS),
                     lambda: random_source(1), 9),
    "simple horizon": (lambda: simple_one_way(SHORT), ones, pair(0, 13) + 2),
    "surj horizon": (lambda: one_way_surjection(SHORT), ones, pair(0, 13) + 2),
}
FAILED = {
    "budget 0": (DivergenceError, "no output bit at index 8: step budget exhausted", 8),
    "negative position": (ValueError, "tape position must be a natural, got -1", None),
    "source bit 2": (ValueError, "source two produced non-bit 2 at 7", None),
    "source bit True": (ValueError, "source true produced non-bit True at 4", None),
    "random bound": (DeskError, f"random source position {RANDOM_POSITIONS} past the "
                                f"{RANDOM_POSITIONS}-bit bound", None),
    "simple horizon": (HorizonError, "stage 13 beyond horizon 12", None),
    "surj horizon": (HorizonError, "stage 13 beyond horizon 12", None),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_one_pass_fails_as_emit_per_bit(case):
    """`evaluate` raises what n `emit` calls raise: the same type, text and
    bit index."""
    make, source, n = FAILURES[case]
    f, budget = make(), 0 if case == "budget 0" else 10**6
    assert per_bit(f, source(), n, budget)[0] == FAILED[case]
    assert evaluated(f, source(), n, budget) == FAILED[case]
