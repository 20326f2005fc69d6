"""Command-line front end: evaluate, invert, extract, measure, count fibers.

Every run is reproducible from its argument list alone.  Exit codes: 0
success, 1 argument or spec-string parse errors, 2 domain errors
(divergence, horizon overruns, failed consistency checks).  Errors print as
one line on stderr.

Construction specs:  identity | bitselect:NAME | witness:NAME |
simple:ENUM | surj:ENUM | inj:ENUM:DFILE | two1:ENUM | two2:ENUM:UFILE
where NAME is identity, double, or shift, and ENUM is either
`collatz[:MAXELEMENT[:MAXSTAGE]]` or the path of an enumeration file.

Source specs:  zeros | ones | periodic:WORD | finite:WORD | random:SEED |
flip:POS:SRC | interleave(SRC,SRC) | columns:FILE
where flip and interleave nest at most 64 deep around any source.

Reductions, one row each of REDUCTIONS:  extract --mode simple | randomized |
two1 | two2;  demo prop-simple | thm-surjection | thm-two1 | thm-two2.

main(argv) may be called repeatedly in one process; the argument parser is
built once, at import.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .bitcore import Word, check_word, prefix_set_from_file
from .constructions import ConstructionHandle, bit_select, double_injection, \
    identity_injection, one_way_surjection, partial_injection, shift_injection, \
    simple_one_way, two_to_one_v1, two_to_one_v2, witness_function
from .enumeration import StagedEnumeration, StagedStringEnumeration, collatz_toy, \
    decided_set_from_file, enumeration_from_file, string_enum_from_file
from .errors import DeskError, SpecParseError
from .inversion import ExtractionVerdict, InverterUnderTest, extract_randomized, extract_simple, \
    extract_two_to_one, extract_two_to_one_v2, fiber_branch_count, reference_inverter_simple, \
    reference_inverter_surjection, reference_inverter_two_to_one, unique_path_invert
from .streams import BitSource, Representation, columns_from_file, evaluate, finite, \
    flipped_at, identity_function, interleaved, ones, periodic, random_source, zeros

_INJECTIONS = {
    "identity": identity_injection,
    "double": double_injection,
    "shift": shift_injection,
}


def _parse_word(text: str, where: str) -> Word:
    try:
        check_word(text)
    except ValueError as exc:
        raise SpecParseError(f"{where}: {exc}") from None
    return text


def _is_numeral(text: str) -> bool:
    """A natural's numeral: ASCII digits only (str.isdigit also takes
    superscripts and other scripts' digits, which int() rejects or reads)."""
    return text.isascii() and text.isdigit()


def _parse_nat(text: str, where: str) -> int:
    if not _is_numeral(text):
        raise SpecParseError(f"{where}: expected a natural, got {text!r}")
    return int(text)


def _split_enum(spec: str) -> tuple[StagedEnumeration, str, str]:
    """Consume the ENUM spec that follows the family head of `spec`.

    Returns (enumeration, its spec text, the unconsumed remainder after a
    separating colon).  collatz takes up to two numeric segments greedily.
    """
    head, _, rest = spec.partition(":")
    parts = rest.split(":")
    if not parts[0]:
        raise SpecParseError(f"{head} needs an enumeration: {spec!r}")
    if parts[0] == "collatz":
        numeric = []
        i = 1
        while i < len(parts) and i <= 2 and _is_numeral(parts[i]):
            numeric.append(int(parts[i]))
            i += 1
        max_element = numeric[0] if numeric else 64
        max_stage = numeric[1] if len(numeric) > 1 else 10**4
        spec = ":".join(parts[:i])
        return collatz_toy(max_element, max_stage), spec, ":".join(parts[i:])
    return enumeration_from_file(parts[0]), parts[0], ":".join(parts[1:])


def parse_construction(spec: str) -> ConstructionHandle:
    head, _, rest = spec.partition(":")
    if head == "identity":
        if rest:
            raise SpecParseError(f"identity takes no parameters: {spec!r}")
        return ConstructionHandle("identity", spec, identity_function())
    if head in ("bitselect", "witness"):
        maker = _INJECTIONS.get(rest)
        if maker is None:
            raise SpecParseError(
                f"unknown injection {rest!r}; expected one of {sorted(_INJECTIONS)}")
        fn = bit_select(maker()) if head == "bitselect" else witness_function(maker())
        return ConstructionHandle(head, spec, fn)
    if head in ("simple", "surj", "two1"):
        w, enum_spec, leftover = _split_enum(spec)
        if leftover:
            raise SpecParseError(f"trailing {leftover!r} after {head}:{enum_spec}")
        fn = {"simple": simple_one_way, "surj": one_way_surjection,
              "two1": two_to_one_v1}[head](w)
        return ConstructionHandle(head, f"{head}:{enum_spec}", fn, w=w)
    if head == "inj":
        w, enum_spec, leftover = _split_enum(spec)
        if not leftover:
            raise SpecParseError(f"inj needs a decided-set file: {spec!r}")
        return ConstructionHandle("inj", f"inj:{enum_spec}:{leftover}",
                                  partial_injection(w, decided_set_from_file(leftover)), w=w)
    if head == "two2":
        w, enum_spec, leftover = _split_enum(spec)
        if not leftover:
            raise SpecParseError(f"two2 needs a string-enumeration file: {spec!r}")
        u = string_enum_from_file(leftover)
        return ConstructionHandle(
            "two2", f"two2:{enum_spec}:{leftover}", two_to_one_v2(w, u), w=w, u=u)
    raise SpecParseError(f"unknown construction family {head!r}")


def _split_top_comma(text: str) -> tuple[str, str]:
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "," and depth == 0:
            return text[:i], text[i + 1:]
    raise SpecParseError(f"expected two comma-separated sources in {text!r}")


MAX_SOURCE_NESTING = 64  # flip/interleave layers around one source


def parse_source(spec: str) -> BitSource:
    return _parse_source(spec, 0)


def _parse_source(spec: str, depth: int) -> BitSource:
    """The source of `spec`, which sits inside `depth` flip/interleave layers."""
    if depth > MAX_SOURCE_NESTING:
        raise SpecParseError(
            f"source spec nests flip/interleave deeper than {MAX_SOURCE_NESTING} layers")
    if spec == "zeros":
        return zeros()
    if spec == "ones":
        return ones()
    if spec.startswith("interleave(") and spec.endswith(")"):
        left, right = _split_top_comma(spec[len("interleave("):-1])
        return interleaved(_parse_source(left, depth + 1), _parse_source(right, depth + 1))
    head, _, rest = spec.partition(":")
    if head == "periodic":
        return periodic(_parse_word(rest, "periodic"))
    if head == "finite":
        return finite(_parse_word(rest, "finite"))
    if head == "random":
        return random_source(_parse_nat(rest, "random seed"))
    if head == "columns":
        return columns_from_file(rest)
    if head == "flip":
        pos_text, _, inner = rest.partition(":")
        if not inner:
            raise SpecParseError(f"flip needs a position and a source: {spec!r}")
        return flipped_at(_parse_source(inner, depth + 1),
                          _parse_nat(pos_text, "flip position"))
    raise SpecParseError(f"unknown source {spec!r}")


@dataclass(frozen=True)
class Reduction:
    """One reduction: `extract --mode MODE` on FAMILY constructions, reading
    the word `options` of extract, `demo DEMO` on `elements` elements of the
    toy (W, U or None).  Its calls look library names up as they run, so a
    name rebound at run time (a tracer) applies."""

    mode: str
    family: str
    options: tuple[str, ...]
    inverter: Callable[..., InverterUnderTest]  # (w, u)
    extract: Callable[..., ExtractionVerdict]  # (g, w, u, n, extract's parsed arguments)
    demo: str
    toy: Callable[[], tuple[StagedEnumeration, Optional[StagedStringEnumeration]]]
    elements: int


REDUCTIONS = (
    # read-back positions reach pair(63,108)+1 = 14815, so a 10^4 horizon
    # cannot host the full n<64 sweep; rerun the same schedule under 2*10^4
    Reduction("simple", "simple", (), lambda w, u: reference_inverter_simple(w),
              lambda g, w, u, n, args: extract_simple(g, w, n), "prop-simple",
              lambda: (StagedEnumeration.from_pairs(collatz_toy(64, 10**4).pairs(),
                                                    2 * 10**4, "collatz:64(h=2e4)"), None), 64),
    Reduction("randomized", "surj", ("sigma",), lambda w, u: reference_inverter_surjection(w),
              lambda g, w, u, n, args: extract_randomized(
                  g, one_way_surjection(w), _parse_word(args.sigma, "--sigma"), w, n),
              "thm-surjection", lambda: (collatz_toy(32, 10**5), None), 32),
    Reduction("two1", "two1", ("upsilon", "zeta"), lambda w, u: reference_inverter_two_to_one(w),
              lambda g, w, u, n, args: extract_two_to_one(
                  g, w, n, _parse_word(args.upsilon, "--upsilon"),
                  _parse_word(args.zeta, "--zeta")),
              "thm-two1", lambda: (collatz_toy(32, 10**5), None), 32),
    Reduction("two2", "two2", (), lambda w, u: reference_inverter_two_to_one(w, u=u),
              lambda g, w, u, n, args: extract_two_to_one_v2(g, w, u, n), "thm-two2",
              lambda: (collatz_toy(32, 10**5), StagedStringEnumeration({0: "1"}, 10**5, "U1")), 32),
)
_NO_OPTIONS = argparse.Namespace(sigma="", upsilon="", zeta="")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        raise SpecParseError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="oneway", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="first N output bits of a construction")
    p.add_argument("--fn", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--bits", type=int, required=True)

    p = sub.add_parser("invert-tree", help="recover a preimage by unique path")
    p.add_argument("--fn", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("extract", help="decide membership through an inverter")
    p.add_argument("--mode", required=True, choices=[row.mode for row in REDUCTIONS])
    p.add_argument("--fn", required=True)
    p.add_argument("--inverter", default="reference")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", default="")
    p.add_argument("--upsilon", default="")
    p.add_argument("--zeta", default="")

    p = sub.add_parser("measure", help="exact measure of a prefix-free set")
    p.add_argument("--prefixset", required=True)
    p.add_argument("--sigma", default=None)

    p = sub.add_parser("fiber", help="count inputs consistent with a target")
    p.add_argument("--fn", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("demo", help="scripted end-to-end reductions")
    p.add_argument("script", choices=[row.demo for row in REDUCTIONS])
    return parser


# nothing in it depends on a call's arguments, so every main call reuses it
_PARSER = _build_parser()


def _cmd_extract(args: argparse.Namespace) -> int:
    if args.inverter != "reference":
        raise SpecParseError(
            f"only the built-in reference inverter ships; got {args.inverter!r}")
    handle = parse_construction(args.fn)
    row = next(row for row in REDUCTIONS if row.mode == args.mode)
    if handle.family != row.family:
        raise SpecParseError(f"mode {args.mode} inverts {row.family}:ENUM constructions, "
                             f"got {handle.family!r}")
    unread = [f"--{name}" for name in ("sigma", "upsilon", "zeta")
              if getattr(args, name) and name not in row.options]
    if unread:
        raise SpecParseError(f"mode {args.mode} reads no {' or '.join(unread)}")
    print(row.extract(row.inverter(handle.w, handle.u), handle.w, handle.u, args.n, args).line())
    return 0


def _run_demo(script: str, out: Callable[[str], None]) -> int:
    row = next(row for row in REDUCTIONS if row.demo == script)
    w, u = row.toy()
    g = row.inverter(w, u)
    verdicts = [(row.extract(g, w, u, n, _NO_OPTIONS), w.entry_stage(n) is not None)
                for n in range(row.elements)]
    for verdict, expected in verdicts:
        out(f"{verdict.line()} expected={str(expected).lower()}"
            f"{'' if verdict.member == expected else ' MISMATCH'}")
    ok = all(verdict.member == expected for verdict, expected in verdicts)
    out("PASS" if ok else "FAIL")
    return 0 if ok else 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb == "eval":
        result = evaluate(parse_construction(args.fn).fn,
                          parse_source(args.input), args.bits)
        print(f"{result.output} use={result.use}")
        return 0
    if args.verb == "invert-tree":
        rep = Representation(parse_construction(args.fn).fn, args.depth)
        print(unique_path_invert(rep, parse_source(args.target), args.bits))
        return 0
    if args.verb == "extract":
        return _cmd_extract(args)
    if args.verb == "measure":
        prefix_set = prefix_set_from_file(args.prefixset)
        if args.sigma is None:
            m = prefix_set.measure()
        else:
            m = prefix_set.intersect_measure(_parse_word(args.sigma, "--sigma"))
        print(f"{m.numerator}/{m.denominator}")
        return 0
    if args.verb == "fiber":
        handle = parse_construction(args.fn)
        count = fiber_branch_count(handle.fn,
                                   _parse_word(args.target, "--target"),
                                   args.depth)
        print(f"branches={count.branches} surviving={count.surviving}")
        return 0
    return _run_demo(args.script, print)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _dispatch(args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DeskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
