"""Flat source composition against the nested, checked-per-layer sources it
replaced.

Flips, interleaves and column sources once called each
child's checked `BitSource.bit`, so a read paid a frame and a check per
layer, and a stack of k flips paid k of them; `periodic` and `finite` parsed
a character on every read.  Now a composite source calls its children's raw
bit functions, one flip set stands for a whole flip stack, and `periodic`
and `finite` index tuples of ints.  The references below are the old
combinators, kept as test-only copies.  For drawn nested sources, the new
and the old source must give the same spec and the same prefix, and a spec
the CLI parses must give that source back.

Every source the library builds also carries a `prefix` kernel, from which
`evaluate` reads most of a long selection's positions; its first P bytes
must be the per-bit map's first P bits.  A source built elsewhere, and any
composite over one, carries none.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oneway.bitcore import check_word, pair, unpair
from oneway.cli import parse_source
from oneway.constructions import simple_one_way, z_builder_v1, z_builder_v2
from oneway.enumeration import StagedStringEnumeration, collatz_toy
from oneway.streams import (
    BitSource,
    column_source,
    columns_from_file,
    finite,
    flipped_at,
    identity_function,
    interleaved,
    ones,
    output_source,
    periodic,
    random_source,
    zeros,
)
from test_streams import prefix_of

PREFIX = 64


# ---------------------------------------------------------------- references

def ref_periodic(word):
    check_word(word)
    if not word:
        raise ValueError("periodic source needs a nonempty word")
    return BitSource(f"periodic:{word}", lambda i: int(word[i % len(word)]))


def ref_finite(word):
    check_word(word)
    return BitSource(f"finite:{word}", lambda i: int(word[i]) if i < len(word) else 0)


def ref_flipped_at(base, position):
    if position < 0:
        raise ValueError("flip position must be a natural")
    return BitSource(
        f"flip:{position}:{base.spec}",
        lambda i: base.bit(i) ^ 1 if i == position else base.bit(i),
    )


def ref_interleaved(even, odd):
    return BitSource(
        f"interleave({even.spec},{odd.spec})",
        lambda i: even.bit(i // 2) if i % 2 == 0 else odd.bit(i // 2),
    )


def ref_column_source(assignments, default):
    cols = dict(assignments)

    def bit(m):
        c, i = unpair(m)
        src = cols.get(c)
        return src.bit(i) if src is not None else default.bit(m)

    inner = ",".join(f"{c}:{s.spec}" for c, s in sorted(cols.items()))
    return BitSource(f"columns({inner};default={default.spec})", bit)


NEW = SimpleNamespace(periodic=periodic, finite=finite, flipped_at=flipped_at,
                      interleaved=interleaved, column_source=column_source)
REF = SimpleNamespace(periodic=ref_periodic, finite=ref_finite, flipped_at=ref_flipped_at,
                      interleaved=ref_interleaved, column_source=ref_column_source)


# ---------------------------------------------------------------- strategies
#
# A drawn source is a tree of tuples: ("zeros",), ("ones",), ("periodic", w),
# ("finite", w), ("random", seed), ("file", ((col, word), ...)) for a columns
# file, ("flip", positions, child) for a flip stack applied in list order,
# ("interleave", even, odd) and ("columns", ((col, child), ...), default).
# The last has no CLI spec.

words = st.text("01", max_size=6)
nonempty_words = st.text("01", min_size=1, max_size=6)


@st.composite
def flip_positions(draw):
    """A flip stack over small positions, often with a position repeated
    and sometimes undone in reverse order."""
    positions = draw(st.lists(st.integers(0, PREFIX // 2), min_size=1, max_size=6))
    if draw(st.booleans()):
        positions += positions[::-1]
    return tuple(positions)


def leaves(files: bool):
    options = [st.just(("zeros",)), st.just(("ones",)),
               nonempty_words.map(lambda w: ("periodic", w)),
               words.map(lambda w: ("finite", w)),
               st.integers(0, 10**6).map(lambda s: ("random", s))]
    if files:
        options.append(st.lists(st.tuples(st.integers(0, 12), nonempty_words), max_size=4,
                                unique_by=lambda e: e[0])
                       .map(lambda cols: ("file", tuple(cols))))
    return st.one_of(options)


@st.composite
def trees(draw, depth=3, files=True, columns=True):
    """A source tree at most `depth` combinators deep."""
    kinds = ["leaf"] if depth == 0 else ["leaf", "flip", "interleave"] + (
        ["columns"] if columns else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(leaves(files))
    inner = trees(depth - 1, files, columns)
    if kind == "flip":
        return ("flip", draw(flip_positions()), draw(inner))
    if kind == "interleave":
        return ("interleave", draw(inner), draw(inner))
    children = draw(st.lists(st.tuples(st.integers(0, 8), inner), max_size=3,
                             unique_by=lambda e: e[0]))
    return ("columns", tuple(children), draw(inner))


def cli_specs():
    """Specs the CLI parses back to the same spec: every source but columns
    files, whose spec lists their columns rather than their path."""
    return trees(files=False, columns=False).map(lambda t: render(t, None))


# ---------------------------------------------------------------- builders

_files = itertools.count()


def write_columns(cols, tmp) -> str:
    path = tmp / f"cols{next(_files)}.txt"
    path.write_text("# drawn columns\n" + "".join(f"{c} {w}\n" for c, w in cols))
    return str(path)


def build(tree, lib, tmp):
    """The source of `tree` built with the combinators of `lib`."""
    head = tree[0]
    if head == "zeros":
        return zeros()
    if head == "ones":
        return ones()
    if head in ("periodic", "finite"):
        return getattr(lib, head)(tree[1])
    if head == "random":
        return random_source(tree[1])
    if head == "file":
        if lib is NEW:
            return columns_from_file(write_columns(tree[1], tmp))
        return ref_column_source({c: ref_finite(w) for c, w in tree[1]}, zeros())
    if head == "flip":
        src = build(tree[2], lib, tmp)
        for p in tree[1]:
            src = lib.flipped_at(src, p)
        return src
    if head == "interleave":
        return lib.interleaved(build(tree[1], lib, tmp), build(tree[2], lib, tmp))
    return lib.column_source({c: build(t, lib, tmp) for c, t in tree[1]},
                             build(tree[2], lib, tmp))


def render(tree, tmp):
    """The CLI spec of `tree`, writing its columns files under `tmp`."""
    head = tree[0]
    if head in ("zeros", "ones"):
        return head
    if head in ("periodic", "finite", "random"):
        return f"{head}:{tree[1]}"
    if head == "file":
        return f"columns:{write_columns(tree[1], tmp)}"
    if head == "flip":
        spec = render(tree[2], tmp)
        for p in tree[1]:
            spec = f"flip:{p}:{spec}"
        return spec
    if head == "interleave":
        return f"interleave({render(tree[1], tmp)},{render(tree[2], tmp)})"
    raise ValueError(f"{head} sources have no CLI spec")


def parseable(tree) -> bool:
    head = tree[0]
    if head == "flip":
        return parseable(tree[2])
    if head == "interleave":
        return parseable(tree[1]) and parseable(tree[2])
    return head != "columns"


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("columns")


# ---------------------------------------------------------------- properties

@settings(derandomize=True, deadline=None, max_examples=400)
@given(trees())
def test_flat_sources_match_the_nested_reference(tmp, tree):
    new, ref = build(tree, NEW, tmp), build(tree, REF, tmp)
    assert new.spec == ref.spec
    assert prefix_of(new, PREFIX) == prefix_of(ref, PREFIX)
    if parseable(tree):
        parsed = parse_source(render(tree, tmp))
        assert parsed.spec == ref.spec
        assert prefix_of(parsed, PREFIX) == prefix_of(ref, PREFIX)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cli_specs())
def test_source_specs_round_trip(spec):
    assert parse_source(spec).spec == spec


def test_flip_stack_reads_its_base_once():
    """However deep, a flip stack reads its base once per position, and a
    stack of cancelling pairs reads like its base."""
    calls = []
    base = BitSource("counted", lambda i: calls.append(i) or i % 2)
    stacked = base
    for p in range(5000):
        stacked = flipped_at(stacked, p % 7)
    assert stacked.spec.count("flip:") == 5000
    # 5000 = 714·7 + 2: positions 0 and 1 are flipped an odd number of times
    assert prefix_of(stacked, 8) == "10" + prefix_of(base, 8)[2:]
    calls.clear()
    stacked.bit(3)
    assert calls == [3]
    cancelled = flipped_at(flipped_at(base, 4), 4)
    assert cancelled.spec == "flip:4:flip:4:counted"
    assert prefix_of(cancelled, 8) == prefix_of(base, 8)


def kernel_prefix(source, length):
    """The first `length` bytes of `source`'s prefix kernel, as a word."""
    return bytes(source.prefix(length)[:length]).translate(bytes.maketrans(b"\0\1", b"01")).decode()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(trees(depth=4), st.integers(0, 400))
def test_prefix_kernels_match_the_per_bit_map(tmp, tree, length):
    """Random, periodic, finite, zeros, ones, flip stacks, interleaves,
    columns files and column sources, nested up to 4 deep, built directly
    and parsed from their spec: each prefix of the kernel reads as `bit`."""
    sources = [build(tree, NEW, tmp)]
    if parseable(tree):
        sources.append(parse_source(render(tree, tmp)))
    for source in sources:
        for n in (0, 1, length):
            assert kernel_prefix(source, n) == prefix_of(source, n), (source.spec, n)


def test_sources_built_elsewhere_carry_no_prefix():
    u = StagedStringEnumeration.from_pairs([(3, "01")], horizon=100)
    outside = [z_builder_v1(2, "01"), z_builder_v2(u, 2), BitSource("hand", lambda i: i & 1),
               output_source(identity_function(), zeros()),
               output_source(simple_one_way(collatz_toy(8, 100)), ones())]
    composites = [lambda s: flipped_at(s, 3), lambda s: flipped_at(s),
                  lambda s: interleaved(zeros(), s), lambda s: interleaved(s, ones()),
                  lambda s: column_source({1: s}, zeros()),
                  lambda s: column_source({1: ones()}, s),
                  lambda s: flipped_at(interleaved(periodic("01"), flipped_at(s, 1)), 0)]
    for source in outside:
        assert source.prefix is None, source.spec
        for wrap in composites:
            assert wrap(source).prefix is None, wrap(source).spec
    assert all(wrap(random_source(1)).prefix is not None for wrap in composites)
