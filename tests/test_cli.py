"""End-to-end checks of the command line front end.

Everything goes through main(argv) in process; stdout/stderr are captured
and compared against frozen lines, so these double as format regressions.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

import oneway.cli as cli
from oneway.cli import MAX_SOURCE_NESTING, main, parse_construction, parse_source
from oneway.streams import MAX_DEPTH


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def err_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert out == ""
    return code, err.strip()


class TestParseConstruction:
    @pytest.mark.parametrize(
        "spec,family",
        [
            ("identity", "identity"),
            ("bitselect:double", "bitselect"),
            ("witness:shift", "witness"),
            ("simple:collatz:16:1000", "simple"),
            ("surj:collatz", "surj"),
            ("two1:collatz:32", "two1"),
        ],
    )
    def test_round_trip(self, spec, family):
        handle = parse_construction(spec)
        assert handle.family == family
        assert handle.descriptor == spec
        again = parse_construction(handle.descriptor)
        assert again.descriptor == spec

    @pytest.fixture(scope="class")
    def spec_files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("specs")
        files = {"w.enum": "# two entries\nhorizon 50\n1 2\n4 0\n",
                 "d.set": "horizon 70\n" + "".join(f"{n}\n" for n in range(70)),
                 "u.words": "horizon 50\n1 01\n3 110\n"}
        for name, text in files.items():
            (d / name).write_text(text)
        return {name: str(d / name) for name in files}

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_descriptor_round_trip_for_every_family(self, spec_files, data):
        nat = st.integers(1, 64).map(str)
        enum = data.draw(st.one_of(
            st.just("collatz"),
            nat.map(lambda a: f"collatz:{a}"),
            st.tuples(nat, st.integers(0, 3000)).map(lambda ab: f"collatz:{ab[0]}:{ab[1]}"),
            st.just(spec_files["w.enum"])))
        spec = data.draw(st.sampled_from(
            ["identity"]
            + [f"{head}:{inj}" for head in ("bitselect", "witness")
               for inj in ("identity", "double", "shift")]
            + [f"{head}:{enum}" for head in ("simple", "surj", "two1")]
            + [f"inj:{enum}:{spec_files['d.set']}", f"two2:{enum}:{spec_files['u.words']}"]))
        handle = parse_construction(spec)
        again = parse_construction(handle.descriptor)
        assert (handle.family, handle.descriptor) == (again.family, again.descriptor)
        assert handle.descriptor == spec and handle.family == spec.partition(":")[0]
        assert again.fn.name == handle.fn.name

    def test_collatz_defaults(self):
        handle = parse_construction("simple:collatz")
        assert handle.w is not None
        assert handle.w.horizon == 10**4
        assert handle.w.member_at_stage(2, 10**4)

    def test_collatz_bounds_are_positional(self):
        # first numeric segment caps the elements, second the stages
        handle = parse_construction("simple:collatz:16:1000")
        assert handle.w.horizon == 1000
        assert not handle.w.member_at_stage(16, 1000)


class TestParseSource:
    def test_periodic(self):
        src = parse_source("periodic:10")
        assert [src.bit(i) for i in range(4)] == [1, 0, 1, 0]

    def test_finite_pads_with_zeros(self):
        src = parse_source("finite:10")
        assert [src.bit(i) for i in range(4)] == [1, 0, 0, 0]

    def test_nested_interleave(self):
        src = parse_source("interleave(interleave(ones,zeros),zeros)")
        assert [src.bit(i) for i in range(4)] == [1, 0, 0, 0]


class TestEval:
    @pytest.mark.parametrize(
        "fn,source,bits,line",
        [
            ("identity", "zeros", "4", "0000 use=4"),
            ("bitselect:double", "periodic:10", "3", "111 use=5"),
            ("witness:shift", "random:7", "6", "001001 use=5"),
            ("identity", "interleave(periodic:10,zeros)", "6", "100010 use=6"),
            ("identity", "flip:0:zeros", "3", "100 use=3"),
        ],
    )
    def test_frozen_lines(self, capsys, fn, source, bits, line):
        code, out, err = run_cli(
            capsys, ["eval", "--fn", fn, "--input", source, "--bits", bits]
        )
        assert (code, err) == (0, "")
        assert out == line + "\n"


class TestInvertTree:
    def test_identity_recovers_target(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["invert-tree", "--fn", "identity", "--target", "periodic:10",
             "--bits", "4", "--depth", "8"],
        )
        assert (code, out) == (0, "1010\n")

    def test_shift_witness(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["invert-tree", "--fn", "witness:shift", "--target", "zeros",
             "--bits", "4", "--depth", "12"],
        )
        assert (code, out) == (0, "0000\n")

    def test_non_injective_is_a_domain_error(self, capsys):
        code, err = err_line(
            capsys,
            ["invert-tree", "--fn", "bitselect:double", "--target", "ones",
             "--bits", "8", "--depth", "16"],
        )
        assert code == 2
        assert err == ("error: no 8-bit consensus by depth 16; "
                       "fiber not provably singleton at desk scale")


class TestExtract:
    def test_simple_collatz(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["extract", "--mode", "simple", "--fn", "simple:collatz:16:1000",
             "--inverter", "reference", "--n", "7"],
        )
        assert (code, out) == (0, "n=7 member=true use=293 stagebound=293\n")

    def test_simple_file_enumeration(self, capsys, tmp_path):
        path = tmp_path / "w.enum"
        path.write_text("# element 2 enters at stage 1\nhorizon 100\n1 2\n")
        code, out, _ = run_cli(
            capsys,
            ["extract", "--mode", "simple", "--fn", f"simple:{path}",
             "--inverter", "reference", "--n", "2"],
        )
        assert (code, out) == (0, "n=2 member=true use=8 stagebound=8\n")

    @pytest.mark.parametrize("extra", [[], ["--sigma", "1"]])
    def test_randomized_collatz(self, capsys, extra):
        code, out, _ = run_cli(
            capsys,
            ["extract", "--mode", "randomized", "--fn", "surj:collatz:16:1000",
             "--inverter", "reference", "--n", "2"] + extra,
        )
        assert (code, out) == (0, "n=2 member=true use=15 stagebound=15\n")

    @pytest.mark.parametrize(
        "extra",
        [[], ["--upsilon", "101", "--zeta", "01"]],
        ids=["plain", "relativized"],
    )
    def test_two_to_one_collatz(self, capsys, extra):
        # the verdict is oblivious to the oracle pair, as it should be
        code, out, _ = run_cli(
            capsys,
            ["extract", "--mode", "two1", "--fn", "two1:collatz:16:100000",
             "--inverter", "reference", "--n", "5"] + extra,
        )
        assert (code, out) == (0, "n=5 member=true use=50 stagebound=50\n")

    def test_two_to_one_rejects_small_n(self, capsys):
        code, err = err_line(
            capsys,
            ["extract", "--mode", "two1", "--fn", "two1:collatz:16:100000",
             "--inverter", "reference", "--n", "1", "--zeta", "01"],
        )
        assert (code, err) == (2, "error: need n > |zeta| = 2, got n = 1")

    def test_horizon_overflow(self, capsys):
        code, err = err_line(
            capsys,
            ["extract", "--mode", "simple", "--fn", "simple:collatz:16:25",
             "--inverter", "reference", "--n", "15"],
        )
        assert (code, err) == (2, "error: stage 580 beyond horizon 25")

    def test_only_reference_inverter(self, capsys):
        code, err = err_line(
            capsys,
            ["extract", "--mode", "simple", "--fn", "simple:collatz:16:1000",
             "--inverter", "mine", "--n", "1"],
        )
        assert code == 1
        assert err == "error: only the built-in reference inverter ships; got 'mine'"

    def test_mode_family_mismatch(self, capsys):
        code, err = err_line(
            capsys,
            ["extract", "--mode", "simple", "--fn", "two1:collatz:16:1000",
             "--inverter", "reference", "--n", "1"],
        )
        assert code == 1
        assert err == "error: mode simple inverts simple:ENUM constructions, got 'two1'"


class TestMeasure:
    def test_prefix_set_measure(self, capsys, tmp_path):
        path = tmp_path / "set.words"
        path.write_text("0\n10\n")
        code, out, _ = run_cli(capsys, ["measure", "--prefixset", str(path)])
        assert (code, out) == (0, "3/4\n")

    def test_measure_inside_cylinder(self, capsys, tmp_path):
        path = tmp_path / "set.words"
        path.write_text("0\n10\n")
        code, out, _ = run_cli(
            capsys, ["measure", "--prefixset", str(path), "--sigma", "1"]
        )
        assert (code, out) == (0, "1/4\n")

    def test_overlapping_words_rejected(self, capsys, tmp_path):
        path = tmp_path / "set.words"
        path.write_text("0\n01\n")
        code, err = err_line(capsys, ["measure", "--prefixset", str(path)])
        assert code == 1
        assert "not prefix-free" in err

    def test_missing_file(self, capsys):
        code, err = err_line(
            capsys, ["measure", "--prefixset", "/nowhere/missing.words"]
        )
        assert code == 1
        assert err.startswith("error: cannot read prefix set /nowhere/missing.words")


class TestFiber:
    @pytest.mark.parametrize(
        "fn,target,line",
        [
            ("bitselect:double", "11", "branches=4 surviving=4"),
            ("identity", "1011", "branches=1 surviving=1"),
        ],
    )
    def test_frozen_counts(self, capsys, fn, target, line):
        code, out, err = run_cli(
            capsys, ["fiber", "--fn", fn, "--target", target, "--depth", "4"]
        )
        assert (code, err) == (0, "")
        assert out == line + "\n"


class TestSpecErrors:
    @pytest.mark.parametrize(
        "fn,message",
        [
            ("nope", "unknown construction family 'nope'"),
            ("identity:extra", "identity takes no parameters: 'identity:extra'"),
            ("witness:sideways",
             "unknown injection 'sideways'; expected one of "
             "['double', 'identity', 'shift']"),
            ("simple:collatz:16:1000:9", "trailing '9' after simple:collatz:16:1000"),
            ("simple", "simple needs an enumeration: 'simple'"),
            ("inj", "inj needs an enumeration: 'inj'"),
            ("two2", "two2 needs an enumeration: 'two2'"),
        ],
    )
    def test_construction_grammar(self, capsys, fn, message):
        code, err = err_line(
            capsys, ["eval", "--fn", fn, "--input", "zeros", "--bits", "2"]
        )
        assert (code, err) == (1, f"error: {message}")

    @pytest.mark.parametrize(
        "source,message",
        [
            ("sideways", "unknown source 'sideways'"),
            ("interleave(periodic:10", "unknown source 'interleave(periodic:10'"),
            ("flip:zeros", "flip needs a position and a source: 'flip:zeros'"),
        ],
    )
    def test_source_grammar(self, capsys, source, message):
        code, err = err_line(
            capsys, ["eval", "--fn", "identity", "--input", source, "--bits", "2"]
        )
        assert (code, err) == (1, f"error: {message}")

    def test_missing_enumeration_file(self, capsys, tmp_path):
        code, err = err_line(
            capsys,
            ["extract", "--mode", "simple", "--fn", f"simple:{tmp_path}/gone.enum",
             "--inverter", "reference", "--n", "1"],
        )
        assert code == 1
        assert err.startswith(f"error: cannot read {tmp_path}/gone.enum")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eval", "--fn", "identity", "--input", "zeros", "--bits", "-3"],
             "bit count must be a natural, got -3"),
            (["invert-tree", "--fn", "identity", "--target", "zeros", "--bits", "-1",
              "--depth", "4"], "bit count must be a natural, got -1"),
            (["extract", "--mode", "simple", "--fn", "simple:collatz", "--n", "-1"],
             "output bit must be a natural, got -1"),
        ],
    )
    def test_negative_counts_are_domain_errors(self, capsys, argv, message):
        assert err_line(capsys, argv) == (2, f"error: {message}")

    @pytest.mark.parametrize("depth", [-1, MAX_DEPTH + 1, 100000])
    @pytest.mark.parametrize("argv", [
        ["fiber", "--fn", "bitselect:double", "--target", "01"],
        ["invert-tree", "--fn", "identity", "--target", "zeros", "--bits", "1"],
    ])
    def test_depth_bounds_end_at_once(self, capsys, argv, depth):
        # checked once, by Representation, before any search or pairing runs
        assert err_line(capsys, [*argv, "--depth", str(depth)]) == \
            (2, f"error: depth must be a natural at most {MAX_DEPTH}, got {depth}")

    def test_deepest_fiber_count_prints(self, capsys):
        # 2^4096 has 1,234 digits, inside the int-string limit
        code, out, _ = run_cli(capsys, ["fiber", "--fn", "bitselect:double", "--target", "",
                                        "--depth", str(MAX_DEPTH)])
        assert code == 0
        assert str(2 ** MAX_DEPTH) in out

    def test_unknown_verb(self, capsys):
        code, err = err_line(capsys, ["nonsense-verb"])
        assert code == 1
        assert "invalid choice: 'nonsense-verb'" in err

    def test_no_arguments(self, capsys):
        code, err = err_line(capsys, [])
        assert code == 1
        assert "the following arguments are required: verb" in err


def nested_flips(layers):
    return "flip:1:" * layers + "zeros"


def nested_interleaves(layers):
    spec = "zeros"
    for _ in range(layers):
        spec = f"interleave({spec},ones)"
    return spec


class TestSourceNesting:
    @pytest.mark.parametrize("nest", [nested_flips, nested_interleaves])
    def test_the_cap_parses(self, capsys, nest):
        # the flips of bit 1 cancel in pairs; each interleave(·,ones) keeps bit 0
        # from the zeros at its core and takes its odd bits from ones
        line = "0000 use=4\n" if nest is nested_flips else "0111 use=4\n"
        code, out, err = run_cli(
            capsys, ["eval", "--fn", "identity", "--input", nest(MAX_SOURCE_NESTING),
                     "--bits", "4"])
        assert (code, out, err) == (0, line, "")

    @pytest.mark.parametrize("layers", [MAX_SOURCE_NESTING + 1, 495])
    @pytest.mark.parametrize("nest", [nested_flips, nested_interleaves])
    def test_past_the_cap_is_a_parse_error(self, capsys, nest, layers):
        code, out, err = run_cli(
            capsys, ["eval", "--fn", "identity", "--input", nest(layers), "--bits", "4"])
        assert (code, out) == (1, "")
        assert err == ("error: source spec nests flip/interleave deeper than "
                       f"{MAX_SOURCE_NESTING} layers\n")

    def test_the_cap_is_64(self):
        assert MAX_SOURCE_NESTING == 64
        assert f"at most {MAX_SOURCE_NESTING} deep" in cli.__doc__


class TestParserReuse:
    """main() parses every call with one parser built at import; no call may
    see what an earlier one parsed."""

    def fresh(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_PARSER", cli._build_parser())
            return run_cli(capsys, argv)

    @pytest.mark.parametrize("first,second", [
        (["extract", "--mode", "two1", "--fn", "two1:collatz:16:100000", "--n", "1",
          "--upsilon", "101", "--zeta", "01"],
         ["extract", "--mode", "two1", "--fn", "two1:collatz:16:100000", "--n", "1"]),
        (["extract", "--mode", "randomized", "--fn", "surj:collatz:16:1000", "--n", "2",
          "--sigma", "1"],
         ["extract", "--mode", "randomized", "--fn", "surj:collatz:16:1000", "--n", "2"]),
    ], ids=["upsilon-zeta", "sigma"])
    def test_options_do_not_carry_over(self, capsys, monkeypatch, first, second):
        run_cli(capsys, first)
        again = run_cli(capsys, second)
        assert again == self.fresh(capsys, monkeypatch, second)
        # two1 at n=1: with --zeta 01 it is a domain error, without it a verdict
        assert again[0] == 0 and again[2] == ""

    def test_a_bad_option_leaves_the_next_call_alone(self, capsys, monkeypatch):
        good = ["eval", "--fn", "bitselect:double", "--input", "periodic:10", "--bits", "3"]
        code, err = err_line(capsys, ["eval", "--fn", "identity", "--input", "ones",
                                       "--bits", "2", "--bogus", "1"])
        assert code == 1 and err.startswith("error: unrecognized arguments")
        assert run_cli(capsys, good) == (0, "111 use=5\n", "")
        assert run_cli(capsys, good) == self.fresh(capsys, monkeypatch, good)

    def test_help_still_exits_zero(self, capsys):
        for argv in (["--help"], ["eval", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith("usage: oneway")
        assert run_cli(capsys, ["eval", "--fn", "identity", "--input", "ones",
                                "--bits", "2"]) == (0, "11 use=2\n", "")


# sha256 of each demo's whole stdout: every verdict's use and stage bound
DEMO_DIGESTS = {
    "prop-simple": "98b390b48ec9bcddc60622813512c9f07ac3249c6078f0be4ac853688dd4631c",
    "thm-surjection": "e1619f0077e201618ee520be08d659d1550adb55a0fb9bad49d00bda9a5c3a1c",
    "thm-two1": "441a543205b34707f237fd91265abd833005fc2e5e3202a179bfafbb4ab36607",
}


class TestDemo:
    @pytest.mark.parametrize(
        "script,rows",
        [
            ("prop-simple", 64),
            ("thm-surjection", 32),
            ("thm-two1", 32),
        ],
    )
    def test_scripts_pass(self, capsys, script, rows):
        code, out, err = run_cli(capsys, ["demo", script])
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert len(lines) == rows + 1
        assert lines[-1] == "PASS"
        assert all(" MISMATCH" not in line for line in lines)
        assert hashlib.sha256(out.encode()).hexdigest() == DEMO_DIGESTS[script]

    def test_prop_simple_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["demo", "prop-simple"])
        _, second, _ = run_cli(capsys, ["demo", "prop-simple"])
        assert first == second
        assert first.splitlines()[0] == "n=0 member=false use=0 stagebound=0 expected=false"
        assert first.splitlines()[8] == "n=8 member=true use=70 stagebound=70 expected=true"
