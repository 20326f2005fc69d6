"""Operations, their pinned instance pools and the per-cycle mix of each workload.

An operation class has a label (for example ``eval two1 periodic 1024``), a
pool of instances and a count per cycle.  Instance ``i`` of a class draws
every random input from ``random.Random(f"{label}#{i}")``, so its expected
output can be pinned once in ``pins.json``.  The run seed then chooses, for
every slot of every cycle, which pooled instance runs and in what order.

Where a CLI verb exists the operation is that verb called in process through
``oneway.cli.main(argv)``; marker traces and use soundness have no verb and
call the public library functions.  Calls go through module attributes at
call time, so the tracer's rebinding sees them.

Every operation is checked three ways: its exit code, its fingerprint
against the pin, and an independent expectation where one exists (toy
membership for verdicts, the marker-trace rule for fiber counts, the known
preimage for unique-path inversion).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

import oneway.cli as cli
import oneway.constructions as C
import oneway.enumeration as E
import oneway.streams as S

Outcome = tuple[int, str, str]  # exit code, stdout, stderr
Check = Callable[[Outcome], Optional[str]]  # a problem, or None


@dataclass(frozen=True)
class Op:
    label: str
    index: int
    run: Callable[[], Outcome]
    check: Check

    @property
    def key(self) -> str:
        return f"{self.label}#{self.index}"


@dataclass(frozen=True)
class OpClass:
    label: str
    pool: int
    per_cycle: int
    build: Callable[[random.Random, "Fixtures"], tuple[Callable[[], Outcome], Check]]


class Fixtures:
    """Writes the fixture files an operation names on its command line."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._count = 0
        self._fiber_files: Optional[dict[str, str]] = None

    def write(self, stem: str, lines: list[str]) -> str:
        self._count += 1
        path = os.path.join(self.workdir, f"{self._count:03d}-{stem}.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def fiber_files(self) -> dict[str, str]:
        """The empty enumeration and the two string enumerations of criterion 07."""
        if self._fiber_files is None:
            self._fiber_files = {
                "w_empty": self.write("w-empty", ["horizon 1000000"]),
                "u_hit": self.write("u-hit", ["horizon 1000000", "0 1"]),
                "u_empty": self.write("u-empty", ["horizon 1000000"]),
            }
        return self._fiber_files


# ---------------------------------------------------------------- helpers

def call_cli(argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


_EVAL_LINE = re.compile(r"^([01]*) use=(\d+)$")


def fingerprint(outcome: Outcome) -> str:
    """Exit code plus stdout, digested where long; the `use` stays visible."""
    rc, out, err = outcome
    text = out.strip()
    m = _EVAL_LINE.match(text)
    if m:
        body = f"sha256:{_digest(m.group(1))} bits={len(m.group(1))} use={m.group(2)}"
    elif len(text) > 160 or "\n" in text:
        body = f"sha256:{_digest(text)} last={text.splitlines()[-1][:60] if text else ''}"
    else:
        body = text
    first_err = err.strip().splitlines()[0][:120] if err.strip() else ""
    return f"rc={rc} {body}" + (f" err={first_err}" if first_err else "")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def cantor_pair(n: int, s: int) -> int:
    """The pairing <n,s> = (n+s)(n+s+1)/2 + s, written out independently."""
    t = n + s
    return t * (t + 1) // 2 + s


def calibrated_len(trace, depth: int, word_lens=(0,)) -> tuple[int, list[int]]:
    """Target length that pins every marker selection below `depth`.

    Long enough to publish each selected bit and to cover the permissions
    consulted on the way, so only genuinely free positions double the branch
    count.  Returns (length, positions below depth never selected): the fiber
    holds two branches exactly when that list is nonempty.
    """
    qs = range((depth + 1) // 2)
    sel: dict[int, int] = {}
    for step in trace.steps:
        sel.setdefault(step.p, step.s)
    s_star = max((sel[q] for q in qs if q in sel), default=0)
    k_star = trace.steps[s_star].k if trace.steps else 0
    consult = max(cantor_pair(k_star, s_star), cantor_pair(s_star, max(word_lens)))
    missing = [q for q in qs if q not in sel]
    return 2 * consult + 4 + 2 * depth, missing


def seeded_pairs(rng: random.Random, elements: int, stages: int,
                 draws: int) -> list[tuple[int, int]]:
    """(stage, element) pairs, both injective, in the style of the acceptance suite."""
    pairs, seen_e, seen_s = [], set(), set()
    for _ in range(draws):
        e, s = rng.randrange(elements), rng.randrange(stages)
        if e not in seen_e and s not in seen_s:
            pairs.append((s, e))
            seen_e.add(e)
            seen_s.add(s)
    return pairs


def seeded_words(rng: random.Random, stages: int, draws: int,
                 length: int = 5) -> list[tuple[int, str]]:
    """(stage, word) pairs of equal-length distinct words, hence prefix-free."""
    words: dict[int, str] = {}
    for _ in range(draws):
        s = rng.randrange(1, stages)
        word = "".join(rng.choice("01") for _ in range(length))
        if s not in words and word not in words.values():
            words[s] = word
    return sorted(words.items())


def rand_word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))


def enum_file(fx: Fixtures, stem: str, pairs, horizon: int) -> str:
    return fx.write(stem, [f"horizon {horizon}"] + [f"{s} {n}" for s, n in pairs])


def expect_rc(rc_wanted: int = 0) -> Check:
    def check(outcome: Outcome) -> Optional[str]:
        if outcome[0] != rc_wanted:
            return f"exit code {outcome[0]}, expected {rc_wanted}"
        return None
    return check


def all_of(*checks: Check) -> Check:
    def check(outcome: Outcome) -> Optional[str]:
        for c in checks:
            problem = c(outcome)
            if problem:
                return problem
        return None
    return check


def eval_op(fn: str, source: str, bits: int):
    argv = ["eval", "--fn", fn, "--input", source, "--bits", str(bits)]

    def check(outcome: Outcome) -> Optional[str]:
        m = _EVAL_LINE.match(outcome[1].strip())
        if not m or len(m.group(1)) != bits:
            return f"expected {bits} output bits and a use"
        return None

    return (lambda: call_cli(argv)), all_of(expect_rc(0), check)


# ------------------------------------------------------------ forward-eval

TOY = "collatz:64:100000"


def _periodic_pair(rng: random.Random) -> str:
    return f"interleave(periodic:{rand_word(rng, 2, 5)},periodic:{rand_word(rng, 1, 4)})"


def two1_periodic(bits: int):
    def build(rng, fx):
        return eval_op(f"two1:{TOY}", _periodic_pair(rng), bits)
    return build


def two1_random(bits: int, interleave: bool):
    def build(rng, fx):
        if interleave:
            src = f"interleave(random:{rng.randrange(10**6)},random:{rng.randrange(10**6)})"
        else:
            src = f"random:{rng.randrange(10**6)}"
        return eval_op(f"two1:{TOY}", src, bits)
    return build


def two2_eval(bits: int, periodic: bool):
    def build(rng, fx):
        u = fx.write("u", ["horizon 100000"] + [f"{s} {w}" for s, w in
                                                  seeded_words(rng, 60, 3)])
        if periodic:
            src = _periodic_pair(rng)
        else:
            src = f"interleave(random:{rng.randrange(10**6)},random:{rng.randrange(10**6)})"
        return eval_op(f"two2:{TOY}:{u}", src, bits)
    return build


def _columns_file(rng: random.Random, fx: Fixtures) -> str:
    cols = rng.sample(range(200), 12)
    return fx.write("columns", [f"{c} {rand_word(rng, 8, 64)}" for c in cols])


def _flip_spec(inner: str, positions) -> str:
    spec = inner
    for p in positions:
        spec = f"flip:{p}:{spec}"
    return spec


def source_for(kind: str, rng: random.Random, fx: Fixtures) -> str:
    if kind == "random":
        return f"random:{rng.randrange(10**6)}"
    if kind == "interleave":
        return f"interleave(random:{rng.randrange(10**6)},periodic:{rand_word(rng, 1, 6)})"
    if kind == "flip":
        return _flip_spec(f"random:{rng.randrange(10**6)}", rng.sample(range(4096), 3))
    if kind == "columns":
        return f"columns:{_columns_file(rng, fx)}"
    raise ValueError(kind)


def wide_eval(fn_head: str, kind: str, bits: int):
    def build(rng, fx):
        fn = fn_head if ":" in fn_head else f"{fn_head}:{TOY}"
        return eval_op(fn, source_for(kind, rng, fx), bits)
    return build


def inj_eval(bits: int):
    """The partial injection on an input whose set bits all lie in the
    decided set, so no output bit diverges."""
    def build(rng, fx):
        toy_members = list(range(1, 64))  # collatz:64 enumerates every n in 1..63
        extra = rng.sample(range(64, bits), 24)
        decided = sorted(toy_members + extra)
        dfile = fx.write("decided", [f"horizon {bits}"] + [str(n) for n in decided])
        ones_at = rng.sample(decided, 6)
        return eval_op(f"inj:{TOY}:{dfile}", _flip_spec("zeros", ones_at), bits)
    return build


def marker_op(variant: int):
    """Seeded marker run over 256 stages with every trace invariant checked."""
    def build(rng, fx):
        w = E.StagedEnumeration.from_pairs(seeded_pairs(rng, 40, 200, 6), horizon=512)
        u = E.StagedStringEnumeration.from_pairs(seeded_words(rng, 200, 5), horizon=512)
        z_seed = rng.randrange(10**6)

        def run() -> Outcome:
            z = S.random_source(z_seed)
            if variant == 1:
                trace = C.marker_run_v1(w, z, 256)
            else:
                trace = C.marker_run_v2(w, u, z, 256)
            trace.assert_invariants()
            ps = ",".join(map(str, trace.p_values()))
            return 0, f"k={trace.k_final} d={trace.d_final} p=sha256:{_digest(ps)}\n", ""

        return run, expect_rc(0)
    return build


# Cost tiers are kept apart on purpose: the four 1024-bit two1 evaluations
# (~0.35 s each) are the slowest fifth of a cycle of 22, so the 90th
# percentile falls inside that block rather than on the edge between tiers.
FORWARD_EVAL = [
    OpClass("eval two1 periodic 1024", 4, 2, two1_periodic(1024)),
    OpClass("eval two1 random 1024", 4, 2, two1_random(1024, interleave=False)),
    OpClass("eval two1 periodic 512", 4, 1, two1_periodic(512)),
    OpClass("eval two1 interleave-random 512", 4, 1, two1_random(512, interleave=True)),
    OpClass("eval two1 periodic 256", 4, 1, two1_periodic(256)),
    OpClass("eval two2 periodic 256", 4, 1, two2_eval(256, periodic=True)),
    OpClass("eval two2 interleave-random 256", 4, 1, two2_eval(256, periodic=False)),
    OpClass("eval bitselect:double random 16384", 8, 1, wide_eval("bitselect:double", "random", 16384)),
    OpClass("eval bitselect:shift columns 16384", 8, 1, wide_eval("bitselect:shift", "columns", 16384)),
    OpClass("eval witness:shift interleave 16384", 8, 1, wide_eval("witness:shift", "interleave", 16384)),
    OpClass("eval witness:double flip 16384", 8, 1, wide_eval("witness:double", "flip", 16384)),
    OpClass("eval simple random 16384", 8, 1, wide_eval("simple", "random", 16384)),
    OpClass("eval simple columns 16384", 8, 1, wide_eval("simple", "columns", 16384)),
    OpClass("eval surj flip 16384", 8, 1, wide_eval("surj", "flip", 16384)),
    OpClass("eval surj interleave 16384", 8, 1, wide_eval("surj", "interleave", 16384)),
    OpClass("eval inj flip 1024", 8, 1, inj_eval(1024)),
    OpClass("marker v1 256", 16, 2, marker_op(1)),
    OpClass("marker v2 256", 16, 2, marker_op(2)),
]


# ---------------------------------------------------------- inverse-search

def fiber_check(want_branches: int) -> Check:
    def check(outcome: Outcome) -> Optional[str]:
        m = re.match(r"^branches=(\d+) surviving=(\d+)$", outcome[1].strip())
        if not m:
            return "no branches=/surviving= line"
        if int(m.group(1)) != want_branches:
            return f"branches={m.group(1)}, the marker trace predicts {want_branches}"
        return None
    return all_of(expect_rc(0), check)


def fiber_two1(z_kind: str, depth: int):
    """Criterion-07 fixture: empty enumeration, z all zeros (stuck marker) or
    all ones (climbing marker), random x; target calibrated on the trace."""
    def build(rng, fx):
        files = fx.fiber_files()
        w = E.StagedEnumeration.from_pairs([], horizon=10**6)
        z = S.zeros() if z_kind == "stuck" else S.ones()
        trace = C.marker_run_v1(w, z, 512)
        ylen, missing = calibrated_len(trace, depth)
        x = S.random_source(rng.randrange(10**6))
        y = S.evaluate(C.two_to_one_v1(w), S.interleaved(x, z), ylen).output
        argv = ["fiber", "--fn", f"two1:{files['w_empty']}", "--target", y,
                "--depth", str(depth)]
        return (lambda: call_cli(argv)), fiber_check(2 if missing else 1)
    return build


def fiber_two2(hit: bool, depth: int):
    def build(rng, fx):
        files = fx.fiber_files()
        w = E.StagedEnumeration.from_pairs([], horizon=10**6)
        u = E.StagedStringEnumeration.from_pairs([(0, "1")] if hit else [], horizon=10**6)
        z = S.ones() if hit else S.zeros()
        trace = C.marker_run_v2(w, u, z, 512)
        ylen, missing = calibrated_len(trace, depth, word_lens=(1,))
        x = S.random_source(rng.randrange(10**6))
        y = S.evaluate(C.two_to_one_v2(w, u), S.interleaved(x, z), ylen).output
        ufile = files['u_hit'] if hit else files['u_empty']
        argv = ["fiber", "--fn", f"two2:{files['w_empty']}:{ufile}", "--target", y,
                "--depth", str(depth)]
        return (lambda: call_cli(argv)), fiber_check(2 if missing else 1)
    return build


def fiber_bitselect_double(depth: int):
    """Odd positions are never read: each doubles the fiber at read resolution."""
    def build(rng, fx):
        x = S.random_source(rng.randrange(10**6))
        y = S.evaluate(C.bit_select(C.double_injection()), x, depth).output
        argv = ["fiber", "--fn", "bitselect:double", "--target", y, "--depth", str(depth)]
        return (lambda: call_cli(argv)), fiber_check(2 ** (depth // 2))
    return build


_INVERT_FNS = {
    "bitselect:identity": lambda: C.bit_select(C.identity_injection()),
    "witness:shift": lambda: C.witness_function(C.shift_injection()),
    "witness:double": lambda: C.witness_function(C.double_injection()),
}


def invert_tree(fn: str, depth: int = 40, bits: int = 32):
    """Unique-path inversion of an injective fixture; the answer is the
    generated preimage itself."""
    def build(rng, fx):
        x = "".join(rng.choice("01") for _ in range(2 * depth + 16))
        y = S.evaluate(_INVERT_FNS[fn](), S.finite(x), 2 * depth + 16).output
        argv = ["invert-tree", "--fn", fn, "--target", f"finite:{y}",
                "--bits", str(bits), "--depth", str(depth)]

        def check(outcome: Outcome) -> Optional[str]:
            if outcome[1].strip() != x[:bits]:
                return "recovered word differs from the generated preimage"
            return None

        return (lambda: call_cli(argv)), all_of(expect_rc(0), check)
    return build


def invert_tree_lossy(rng, fx):
    """bitselect:double drops odd bits, so no consensus exists: exit 2."""
    x = S.random_source(rng.randrange(10**6))
    y = S.evaluate(C.bit_select(C.double_injection()), x, 40).output
    argv = ["invert-tree", "--fn", "bitselect:double", "--target", f"finite:{y}",
            "--bits", "8", "--depth", "16"]

    def check(outcome: Outcome) -> Optional[str]:
        if "not provably singleton" not in outcome[2]:
            return "expected a NotSingletonError message"
        return None

    return (lambda: call_cli(argv)), all_of(expect_rc(2), check)


# As in forward-eval, tiers are kept apart: the depth-16 two1 fibers (two of
# each per cycle of 35) hold the 90th percentile, and the ten witness:double
# inversions, above eleven cheaper ones, hold the median.
INVERSE_SEARCH = [
    OpClass("fiber two2 hit d16", 4, 1, fiber_two2(True, 16)),
    OpClass("fiber two2 nohit d16", 4, 1, fiber_two2(False, 16)),
    OpClass("fiber two1 stuck d16", 4, 2, fiber_two1("stuck", 16)),
    OpClass("fiber two1 climb d16", 4, 2, fiber_two1("climb", 16)),
    OpClass("fiber two1 stuck d12", 4, 1, fiber_two1("stuck", 12)),
    OpClass("fiber two1 climb d12", 4, 1, fiber_two1("climb", 12)),
    OpClass("fiber two1 stuck d8", 4, 1, fiber_two1("stuck", 8)),
    OpClass("fiber two1 climb d8", 4, 1, fiber_two1("climb", 8)),
    OpClass("fiber bitselect:double d16", 4, 1, fiber_bitselect_double(16)),
    OpClass("fiber bitselect:double d18", 4, 1, fiber_bitselect_double(18)),
    OpClass("fiber bitselect:double d20", 4, 1, fiber_bitselect_double(20)),
    OpClass("invert-tree bitselect:identity d40", 8, 6, invert_tree("bitselect:identity")),
    OpClass("invert-tree witness:shift d40", 8, 5, invert_tree("witness:shift")),
    OpClass("invert-tree witness:double d40", 8, 10, invert_tree("witness:double")),
    OpClass("invert-tree bitselect:double lossy d16", 4, 1, invert_tree_lossy),
]


# --------------------------------------------------------- reduction-sweep

def verdict_check(n: int, member: bool) -> Check:
    """The verdict must equal membership in the generated enumeration."""
    def check(outcome: Outcome) -> Optional[str]:
        m = re.match(r"^n=(\d+) member=(true|false) use=\d+ stagebound=\S+$",
                     outcome[1].strip())
        if not m or int(m.group(1)) != n:
            return "no verdict line for n"
        if (m.group(2) == "true") != member:
            return f"verdict member={m.group(2)}, toy membership is {member}"
        return None
    return all_of(expect_rc(0), check)


def _pick_n(rng: random.Random, pairs, bound: int, low: int = 0) -> int:
    members = [n for _, n in pairs if low <= n < bound]
    if members and rng.random() < 0.5:
        return rng.choice(members)
    return rng.randrange(low, bound)


def extract_simple_op(rng, fx):
    pairs = seeded_pairs(rng, 64, 100, 10)
    fn = f"simple:{enum_file(fx, 'w-simple', pairs, 3 * 10**4)}"
    n = _pick_n(rng, pairs, 64)
    argv = ["extract", "--mode", "simple", "--fn", fn, "--n", str(n)]
    return (lambda: call_cli(argv)), verdict_check(n, n in {e for _, e in pairs})


def extract_randomized_op(rng, fx):
    pairs = seeded_pairs(rng, 32, 100, 8)
    fn = f"surj:{enum_file(fx, 'w-surj', pairs, 10**5)}"
    n = _pick_n(rng, pairs, 32)
    sigma = rand_word(rng, 0, 5)
    argv = ["extract", "--mode", "randomized", "--fn", fn, "--n", str(n), "--sigma", sigma]
    return (lambda: call_cli(argv)), verdict_check(n, n in {e for _, e in pairs})


def extract_two1_op(rng, fx):
    pairs = seeded_pairs(rng, 32, 100, 8)
    fn = f"two1:{enum_file(fx, 'w-two1', pairs, 10**5)}"
    zeta = rand_word(rng, 0, 4)
    upsilon = rand_word(rng, 0, 6)
    n = _pick_n(rng, pairs, 32, low=len(zeta) + 1)
    argv = ["extract", "--mode", "two1", "--fn", fn, "--n", str(n),
            "--upsilon", upsilon, "--zeta", zeta]
    return (lambda: call_cli(argv)), verdict_check(n, n in {e for _, e in pairs})


def demo_op(script: str):
    def build(rng, fx):
        def check(outcome: Outcome) -> Optional[str]:
            lines = outcome[1].strip().splitlines()
            if not lines or lines[-1] != "PASS" or any("MISMATCH" in ln for ln in lines):
                return "demo did not end in PASS"
            return None
        return (lambda: call_cli(["demo", script])), all_of(expect_rc(0), check)
    return build


def _tau(d: int) -> str:
    return "1" + format(d, "04b")


def use_soundness_op(family: str):
    """Criterion-10 style: 100 seeded mutations beyond the use must not move
    the output."""
    def build(rng, fx):
        seeds = [rng.randrange(10**6) for _ in range(2)]
        trial_seed = rng.randrange(1000)
        toy = E.collatz_toy(16, 1000)
        u = E.StagedStringEnumeration.from_pairs([(d + 1, _tau(d)) for d in range(9)],
                                                 horizon=64)
        decided = E.DecidedSet.from_enumeration(toy)

        def make():
            inj = {"identity": C.identity_injection, "double": C.double_injection,
                   "shift": C.shift_injection}
            head, _, name = family.partition(":")
            x = S.random_source(seeds[0])
            if head == "bitselect":
                return C.bit_select(inj[name]()), x, 16
            if head == "witness":
                return C.witness_function(inj[name]()), x, 16
            if head == "simple":
                return C.simple_one_way(toy), x, 16
            if head == "surj":
                return C.one_way_surjection(toy), x, 16
            if head == "inj":
                return C.partial_injection(toy, decided), S.zeros(), 16
            both = S.interleaved(x, S.random_source(seeds[1]))
            if head == "two1":
                return C.two_to_one_v1(toy), both, 8
            return C.two_to_one_v2(toy, u), both, 8

        def run() -> Outcome:
            f, x, bits = make()
            report = S.use_soundness_check(f, x, bits, trials=100, seed=trial_seed)
            return 0, (f"use={report.use} trials={report.trials} "
                       f"violations={len(report.violations)}\n"), ""

        def check(outcome: Outcome) -> Optional[str]:
            if not outcome[1].strip().endswith("violations=0"):
                return "output moved after a mutation beyond the use"
            return None

        return run, all_of(expect_rc(0), check)
    return build


REDUCTION_SWEEP = [
    OpClass("extract simple n<64", 16, 8, extract_simple_op),
    OpClass("extract randomized n<32", 16, 8, extract_randomized_op),
    OpClass("extract two1 n<32", 16, 8, extract_two1_op),
    OpClass("demo prop-simple", 1, 1, demo_op("prop-simple")),
    OpClass("demo thm-surjection", 1, 1, demo_op("thm-surjection")),
    OpClass("demo thm-two1", 1, 1, demo_op("thm-two1")),
] + [
    OpClass(f"use-soundness {fam}", 4, 1, use_soundness_op(fam))
    for fam in ("bitselect:identity", "bitselect:double", "bitselect:shift",
                "witness:identity", "witness:double", "witness:shift",
                "simple", "surj", "inj", "two1", "two2")
]


SELF_TEST = {  # a cheap class per workload for the corrupted-expectation check
    "forward-eval": "marker v1 256",
    "inverse-search": "invert-tree bitselect:identity d40",
    "reduction-sweep": "extract simple n<64",
}

WORKLOADS = {
    "forward-eval": FORWARD_EVAL,
    "inverse-search": INVERSE_SEARCH,
    "reduction-sweep": REDUCTION_SWEEP,
}


# ---------------------------------------------------------------- the runs

class Workload:
    """Every pooled instance of one workload, built once at set-up."""

    def __init__(self, name: str, workdir: str):
        self.name = name
        self.classes = WORKLOADS[name]
        fx = Fixtures(workdir)
        self.instances: dict[str, list[Op]] = {}
        for cls_ in self.classes:
            ops = []
            for i in range(cls_.pool):
                run, check = cls_.build(random.Random(f"{cls_.label}#{i}"), fx)
                ops.append(Op(cls_.label, i, run, check))
            self.instances[cls_.label] = ops

    def cycles(self, seed: int):
        """Endless cycles of the mix; the seed picks instances and order.

        Each class walks its pool round-robin from a seeded offset, so over a
        run every instance runs about equally often and the seed moves the
        cost of a run little.
        """
        rng = random.Random(f"{self.name}:{seed}")
        offsets = {c.label: rng.randrange(c.pool) for c in self.classes}
        turn = 0
        while True:
            cycle = [self.instances[c.label][(offsets[c.label] + turn * c.per_cycle + j) % c.pool]
                     for c in self.classes for j in range(c.per_cycle)]
            rng.shuffle(cycle)
            turn += 1
            yield cycle


def observe(op: Op) -> tuple[Optional[str], str]:
    """Run one operation; return (problem found by its own checks, fingerprint).

    Any exception escaping the operation is a failure, not a crash of the
    benchmark, so the run keeps counting.
    """
    try:
        outcome = op.run()
    except Exception as exc:  # noqa: BLE001 - an operation failure is data here
        return f"unexpected {type(exc).__name__}: {exc}", f"exception {type(exc).__name__}"
    return op.check(outcome), fingerprint(outcome)


def execute(op: Op, pins: dict[str, str]) -> tuple[Optional[str], str]:
    """observe(op), then hold its fingerprint to the pinned one."""
    problem, fp = observe(op)
    if problem is None and pins.get(op.key) != fp:
        problem = f"output {fp!r} differs from pinned {pins.get(op.key)!r}"
    return problem, fp
