"""Traced runs: spans and counts recorded from outside the library.

Nothing in ``src/oneway`` knows about tracing.  ``Tracer.install`` wraps the
public functions and methods of each layer and ``uninstall`` puts the
original objects back:

* ``OracleTape.read``, ``OracleTape.__init__``, ``BitSource.bit``,
  ``Representation.map_word``, the ``StagedEnumeration`` queries and
  ``PartialAssignment.__post_init__`` are wrapped on their classes.
* A module-level function is rebound in every ``oneway`` namespace that
  binds it (``pair`` lives in bitcore, streams, constructions, inversion and
  the package).
* Construction and reference-inverter factories are rebound the same way;
  the wrapper hands back the same function with a timed ``emit``.

Every wrapper that times records a span (name, start, end, parent span,
operation id).  The hot leaves ``pair``, ``unpair``, ``read``, ``bit`` and
``PartialAssignment`` constructions get counts only; their time stays in the
nearest timed ancestor.  Self time is a span's duration minus the part its
children cover, accumulated as spans close.  Spans stay in memory in packed
arrays and are written out once, after the run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
import weakref
from array import array
from typing import Callable

import oneway.bitcore as B
import oneway.cli as CLI
import oneway.constructions as C
import oneway.enumeration as E
import oneway.errors as ERR
import oneway.inversion as INV
import oneway.streams as S

MODULES = ("bitcore", "streams", "enumeration", "constructions", "inversion", "cli")
FAMILIES = ("two1", "two2", "simple", "surj", "inj", "bitselect", "witness")
MARKER_FAMILIES = ("two1", "two2")
SOURCE_KINDS = ("random", "periodic", "finite", "interleave", "flip", "column",
                "fork", "output", "other")
_MARK = "_perfbench_wrapper"

# head of a BitSource spec -> kind; the fork-on-read engines name their
# sources "dovetail-candidate" and "fiber-probe"
_SPEC_HEADS = (
    ("random:", "random"), ("periodic:", "periodic"), ("finite:", "finite"),
    ("interleave(", "interleave"), ("flip:", "flip"), ("columns(", "column"),
    ("column:", "column"), ("tape-column:", "column"),
    ("dovetail-candidate", "fork"), ("fiber-probe", "fork"),
)

_FACTORIES = {  # factory name in constructions -> family of its emits
    "bit_select": "bitselect", "witness_function": "witness",
    "simple_one_way": "simple", "one_way_surjection": "surj",
    "partial_injection": "inj", "two_to_one_v1": "two1", "two_to_one_v2": "two2",
}
_REFINV = ("reference_inverter_simple", "reference_inverter_surjection",
           "reference_inverter_two_to_one")
_COUNTED = {"pair": "pair", "unpair": "unpair", "__post_init__": "assignment"}
_SPANS = {  # entry points that only need a span: name -> (home module, span)
    "new_element_at": (None, "enumeration.new_element_at"),
    "entry_stage": (None, "enumeration.entry_stage"),
    "column_hit": (E, "enumeration.column_hit"),
    "collatz_toy": (E, "enumeration.build"),
    "enumeration_from_file": (E, "enumeration.build"),
    "string_enum_from_file": (E, "enumeration.build"),
    "decided_set_from_file": (E, "enumeration.build"),
    "evaluate": (S, "streams.evaluate"),
    "evaluate_bit": (S, "streams.evaluate"),
    "use_soundness_check": (S, "streams.use_soundness"),
    "marker_run_v1": (C, "constructions.marker_run"),
    "marker_run_v2": (C, "constructions.marker_run"),
    "extract_simple": (INV, "inversion.extract.simple"),
    "extract_two_to_one": (INV, "inversion.extract.two1"),
    "parse_construction": (CLI, "cli.parse"),
    "parse_source": (CLI, "cli.parse"),
}


def _spec_kind(spec: str) -> str:
    for head, kind in _SPEC_HEADS:
        if spec.startswith(head):
            return kind
    return "other"


def _namespaces() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "oneway" or n.startswith("oneway."))]


def _targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for everything a traced run replaces."""
    methods = [
        (S.OracleTape, "__init__"), (S.OracleTape, "read"), (S.BitSource, "bit"),
        (S.Representation, "map_word"), (B.PartialAssignment, "__post_init__"),
        (E.StagedEnumeration, "member_at_stage"), (E.StagedEnumeration, "new_element_at"),
        (E.StagedEnumeration, "entry_stage"),
    ]
    out = [(cls, attr, cls.__dict__[attr]) for cls, attr in methods
           if _present(cls, attr, cls.__dict__.get(attr))]
    functions = [
        (B, "pair"), (B, "unpair"), (S, "output_source"), (INV, "fiber_branch_count"),
        (INV, "unique_path_invert"), (INV, "extract_randomized"), (CLI, "main"),
    ] + [(C, name) for name in _FACTORIES] + [(INV, name) for name in _REFINV] \
      + [(home, name) for name, (home, _) in _SPANS.items() if home is not None]
    for home, name in functions:
        original = getattr(home, name, None)
        if not _present(home, name, original):
            continue
        for ns in _namespaces():
            for attr, value in vars(ns).items():
                if value is original:
                    out.append((ns, attr, original))
    return out


def _log2(n: int) -> float:
    return math.log2(n) if n > 0 else 0.0


def _owner_name(owner) -> str:
    return getattr(owner, "__name__", repr(owner))


def _present(owner, attr: str, value) -> bool:
    """A layer entry point that no longer exists is left untraced, loudly."""
    if value is None:
        print(f"perfbench: {_owner_name(owner)}.{attr} is gone; its metrics read 0",
              file=sys.stderr)
        return False
    return True


class Tracer:
    def __init__(self):
        self.snapshot = _targets()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.op_col = array("i")
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack: list[list[int]] = []  # [span index, name id, start, child ns]
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self.source_bits = [0] * len(SOURCE_KINDS)
        self.max_tape_use = 0
        self.max_random_position = 0
        self.emit_stack: list[str] = []
        self.in_fiber = self.in_rep = self.in_unique = 0
        self._seen_words: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._kinds: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.name_col)
        self.op_col.append(self.op_id)
        self.name_col.append(nid)
        self.parent_col.append(self.stack[-1][0] if self.stack else -1)
        t = time.perf_counter_ns()
        self.start_col.append(t)
        self.end_col.append(0)
        self.stack.append([idx, nid, t, 0])

    def leave(self) -> None:
        t = time.perf_counter_ns()
        idx, nid, start, child = self.stack.pop()
        self.end_col[idx] = t
        dur = t - start
        self.self_ns[nid] += dur - child
        self.calls[nid] += 1
        if self.stack:
            self.stack[-1][3] += dur

    def spanned(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # ------------------------------------------------------------- wrappers

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def _wrap(self, owner, attr: str, original) -> Callable:
        name = getattr(original, "__name__", attr)
        if name in _COUNTED:
            return self.counted(_COUNTED[name], original)
        if name in _SPANS:
            return self.spanned(_SPANS[name][1], original)
        if name in _FACTORIES:
            return self._w_factory(_FACTORIES[name], original)
        if name in _REFINV:
            return self._w_refinv(original)
        return getattr(self, f"_w_{name}")(original)

    def _w___init__(self, fn):
        tr = self

        def __init__(tape, *args, **kwargs):
            tr.count("tape.opened")
            if tr.in_fiber and not tr.in_rep:
                tr.count("fiber.probe_tapes")
            return fn(tape, *args, **kwargs)
        return __init__

    def _w_read(self, fn):
        tr, counts = self, self.counts
        barrier = getattr(ERR, "_ReadBeyondBarrier", ())
        budget = getattr(ERR, "_BudgetExhausted", ())

        def read(tape, i):
            counts["tape.reads"] = counts.get("tape.reads", 0) + 1
            try:
                b = fn(tape, i)
            except barrier:
                tr.count("tape.barrier_hits")
                raise
            except budget:
                tr.count("tape.budget_exhausted")
                raise
            if tape.use > tr.max_tape_use:
                tr.max_tape_use = tape.use
            return b
        return read

    def _w_bit(self, fn):
        tr, kinds, bits = self, self._kinds, self.source_bits
        random_kind = SOURCE_KINDS.index("random")

        def bit(src, i):
            k = kinds.get(src.spec)
            if k is None:
                k = kinds[src.spec] = SOURCE_KINDS.index(_spec_kind(src.spec))
            bits[k] += 1
            if k == random_kind and i > tr.max_random_position:
                tr.max_random_position = i
            return fn(src, i)
        return bit

    def _w_output_source(self, fn):
        kinds, output_kind = self._kinds, SOURCE_KINDS.index("output")

        def output_source(*args, **kwargs):
            src = fn(*args, **kwargs)
            kinds[src.spec] = output_kind
            return src
        return output_source

    def _w_map_word(self, fn):
        tr, nid = self, self.name_id("streams.representation")

        def map_word(rep, sigma):
            tr.count("representation.map_calls")
            if tr.in_fiber:
                tr.count("fiber.words_mapped")
            if tr.in_unique:
                tr.count("unique_path.words_mapped")
            seen = tr._seen_words.get(rep)
            if seen is None:
                seen = tr._seen_words[rep] = set()
            if sigma not in seen:
                seen.add(sigma)
                tr.count("representation.runs")
            tr.in_rep += 1
            tr.enter(nid)
            try:
                return fn(rep, sigma)
            finally:
                tr.leave()
                tr.in_rep -= 1
        return map_word

    def _w_member_at_stage(self, fn):
        tr, nid = self, self.name_id("enumeration.member_at_stage")

        def member_at_stage(w, n, s):
            if tr.emit_stack and tr.emit_stack[-1] in MARKER_FAMILIES:
                tr.count("marker.stages_in_emit")
            tr.enter(nid)
            try:
                return fn(w, n, s)
            finally:
                tr.leave()
        return member_at_stage

    def _w_main(self, fn):
        tr, timed = self, self.spanned("cli.main", fn)

        def main(argv=None):
            rc = timed(argv)
            if rc != 0:
                tr.count("cli.exit_nonzero")
            return rc
        return main

    def _w_fiber_branch_count(self, fn):
        tr, timed = self, self.spanned("inversion.fiber", fn)

        def fiber_branch_count(*args, **kwargs):
            tr.in_fiber += 1
            try:
                result = timed(*args, **kwargs)
            finally:
                tr.in_fiber -= 1
            tr.count("fiber.branches", result.branches)
            tr.count("fiber.survivors", result.surviving)
            return result
        return fiber_branch_count

    def _w_unique_path_invert(self, fn):
        tr, timed = self, self.spanned("inversion.unique_path", fn)

        def unique_path_invert(*args, **kwargs):
            tr.in_unique += 1
            try:
                return timed(*args, **kwargs)
            finally:
                tr.in_unique -= 1
        return unique_path_invert

    def _w_extract_randomized(self, fn):
        tr, timed = self, self.spanned("inversion.extract.randomized", fn)

        def extract_randomized(*args, **kwargs):
            verdict = timed(*args, **kwargs)
            record = verdict.evidence
            tr.count("dovetail.leaves", len(getattr(record, "leaves", ())))
            tr.count("dovetail.words_collected", getattr(record, "words_collected", 0))
            return verdict
        return extract_randomized

    def _timed_emit(self, family: str, emit: Callable) -> Callable:
        tr = self
        nid = self.name_id(f"constructions.emit.{family}" if family != "refinv"
                           else "inversion.refinv")
        inner = getattr(emit, "_perfbench_inner", emit)
        marker = family in MARKER_FAMILIES

        def timed(tape, m):
            if marker and m % 2 == 0:
                tr.count("marker.even_emits")
            tr.emit_stack.append(family)
            tr.enter(nid)
            try:
                return inner(tape, m)
            finally:
                tr.leave()
                tr.emit_stack.pop()

        timed._perfbench_inner = inner
        return timed

    def _w_factory(self, family: str, fn):
        # one_way_surjection builds on bit_select; unwrapping the inner emit
        # keeps a surjection's emits out of the bitselect family
        def factory(*args, **kwargs):
            rf = fn(*args, **kwargs)
            return dataclasses.replace(rf, emit=self._timed_emit(family, rf.emit))
        return factory

    def _w_refinv(self, fn):
        def factory(*args, **kwargs):
            inv = fn(*args, **kwargs)
            g = dataclasses.replace(inv.g, emit=self._timed_emit("refinv", inv.g.emit))
            return dataclasses.replace(inv, g=g)
        return factory

    # --------------------------------------------------------- installation

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for owner, attr, original in self.snapshot:
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(owner, attr, original)
                setattr(wrapper, _MARK, True)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def pristine_problems(self) -> list[str]:
        """Attributes that are not the original object right now."""
        problems = []
        for owner, attr, original in self.snapshot:
            current = vars(owner).get(attr)
            if current is not original or getattr(current, _MARK, False):
                problems.append(f"{_owner_name(owner)}.{attr}")
        return problems

    # -------------------------------------------------------------- results

    def _self_ms(self, *names: str) -> float:
        return sum(self.self_ns[self._ids[n]] for n in names if n in self._ids) / 1e6

    def _calls(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts.get
        m: dict[str, tuple[float, str]] = {
            "bitcore.pair.calls": (c("pair", 0), "count"),
            "bitcore.unpair.calls": (c("unpair", 0), "count"),
            "bitcore.assignment.calls": (c("assignment", 0), "count"),
            "streams.tape.opened": (c("tape.opened", 0), "count"),
            "streams.tape.reads": (c("tape.reads", 0), "count"),
            "streams.tape.max_use": (self.max_tape_use, "bits"),
            "streams.tape.barrier_hits": (c("tape.barrier_hits", 0), "count"),
            "streams.tape.budget_exhausted": (c("tape.budget_exhausted", 0), "count"),
        }
        for kind, n in zip(SOURCE_KINDS, self.source_bits):
            if kind != "output":
                m[f"streams.source.bits.{kind}"] = (n, "count")
        map_calls = c("representation.map_calls", 0)
        runs = c("representation.runs", 0)
        words = c("fiber.words_mapped", 0)
        even = c("marker.even_emits", 0)
        m.update({
            "streams.random.max_position": (self.max_random_position, "position"),
            "streams.evaluate.self_ms": (self._self_ms("streams.evaluate"), "ms"),
            "streams.representation.map_calls": (map_calls, "count"),
            "streams.representation.runs": (runs, "count"),
            "streams.representation.memo_hit_ratio":
                ((map_calls - runs) / map_calls if map_calls else 0.0, "ratio"),
            "streams.representation.self_ms": (self._self_ms("streams.representation"), "ms"),
            "streams.use_soundness.self_ms": (self._self_ms("streams.use_soundness"), "ms"),
            "streams.output_source.bits":
                (self.source_bits[SOURCE_KINDS.index("output")], "count"),
            "enumeration.member_at_stage.calls":
                (self._calls("enumeration.member_at_stage"), "count"),
            "enumeration.new_element_at.calls":
                (self._calls("enumeration.new_element_at"), "count"),
            "enumeration.column_hit.calls": (self._calls("enumeration.column_hit"), "count"),
        })
        for fam in FAMILIES:
            m[f"constructions.emit.calls.{fam}"] = \
                (self._calls(f"constructions.emit.{fam}"), "count")
            m[f"constructions.emit.self_ms.{fam}"] = \
                (self._self_ms(f"constructions.emit.{fam}"), "ms")
        m.update({
            "constructions.marker_run.calls": (self._calls("constructions.marker_run"), "count"),
            "constructions.marker_run.self_ms": (self._self_ms("constructions.marker_run"), "ms"),
            "constructions.marker.stages_per_emit":
                (c("marker.stages_in_emit", 0) / even if even else 0.0, "stages/emit"),
            "inversion.fiber.self_ms": (self._self_ms("inversion.fiber"), "ms"),
            "inversion.fiber.words_mapped": (words, "count"),
            "inversion.fiber.survivors": (c("fiber.survivors", 0), "count"),
            "inversion.fiber.yield":
                (c("fiber.branches", 0) / words if words else 0.0, "branches/word"),
            "inversion.fiber.probe_tapes": (c("fiber.probe_tapes", 0), "count"),
            "inversion.unique_path.self_ms": (self._self_ms("inversion.unique_path"), "ms"),
            "inversion.unique_path.words_mapped": (c("unique_path.words_mapped", 0), "count"),
        })
        for mode in ("simple", "randomized", "two1"):
            m[f"inversion.extract.self_ms.{mode}"] = \
                (self._self_ms(f"inversion.extract.{mode}"), "ms")
        m.update({
            "inversion.dovetail.leaves": (c("dovetail.leaves", 0), "count"),
            # word counts reach 2^(use), far past a JSON number: report log2
            "inversion.dovetail.words_collected":
                (_log2(c("dovetail.words_collected", 0)), "log2words"),
            "inversion.refinv.emits": (self._calls("inversion.refinv"), "count"),
            "cli.parse.self_ms": (self._self_ms("cli.parse"), "ms"),
            "cli.exit_nonzero": (c("cli.exit_nonzero", 0), "count"),
        })
        for module in MODULES:
            if module != "bitcore":  # bitcore is counted, never timed
                names = [n for n in self.names if n.startswith(module + ".")]
                m[f"{module}.self_ms"] = (self._self_ms(*names), "ms")
        return m

    def write(self, stem: str) -> None:
        """Spans as packed columns (<stem>.spans) with a JSON index (<stem>.json)."""
        columns = [("op", self.op_col), ("name", self.name_col),
                   ("parent", self.parent_col), ("start_ns", self.start_col),
                   ("end_ns", self.end_col)]
        with open(stem + ".spans", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {
            "spans": len(self.name_col),
            "columns": [{"name": n, "typecode": col.typecode, "itemsize": col.itemsize}
                        for n, col in columns],
            "byteorder": sys.byteorder,
            "names": self.names,
            "self_ms": {n: self.self_ns[i] / 1e6 for i, n in enumerate(self.names)},
            "calls": {n: self.calls[i] for i, n in enumerate(self.names)},
            "counts": {k: v if v < 2**63 else f"2^{_log2(v):.6f}"
                       for k, v in self.counts.items()},
        }
        with open(stem + ".json", "w") as fh:
            json.dump(index, fh, indent=1, sort_keys=True)

