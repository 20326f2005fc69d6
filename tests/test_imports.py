"""Every name a library module imports is used in that module, every
import is of the standard library or of oneway itself (the package declares
no dependencies) and sits at module level, each module imports only the
layers below its own, every library name the benchmark's layer tracer
wraps still exists, every public name and every defaulted parameter is
reached or named as kept, and the marker-bit contract is kept by one
function."""

import ast
import importlib.util
import sys
from pathlib import Path
from typing import Optional

import pytest

import oneway.constructions as C
import oneway.enumeration as E
import oneway.inversion as INV

ROOT = Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "oneway").glob("*.py"))
SOURCES = [p for p in MODULES if p.name != "__init__.py"]  # __init__ imports to re-export


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def foreign_imports(tree: ast.Module) -> list[str]:
    """Imported modules, with their lines, whose top-level package is neither
    in the standard library nor oneway; relative imports are oneway's own."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append((node.module, node.lineno))
    return [f"{name} (line {line})" for name, line in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"oneway"}]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_oneway(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_foreign_import_detected():
    tree = ast.parse("import os.path\nfrom . import streams\nfrom numpy.linalg import norm\n"
                     "import oneway.bitcore, hypothesis\n")
    assert foreign_imports(tree) == ["numpy.linalg (line 3)", "hypothesis (line 4)"]


def function_imports(tree: ast.Module) -> list[str]:
    """Import statements, with their lines, inside function bodies."""
    return [f"{func.name} (line {node.lineno})"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    assert function_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_function_import_detected():
    tree = ast.parse("import os\n\ndef f():\n    from . import streams\n    return streams\n")
    assert function_imports(tree) == ["f (line 4)"]


# errors < bitcore < {streams, enumeration} < constructions < inversion < cli;
# a module imports only modules on lower layers
LAYERS = {"errors": 0, "bitcore": 1, "streams": 2, "enumeration": 2,
          "constructions": 3, "inversion": 4, "cli": 5}


def layer_violations(module: str, tree: ast.Module) -> list[str]:
    """oneway modules, with their lines, that `module` imports from its own
    layer or above."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # relative imports are oneway's own; `from oneway import x` imports x
            base = ".".join(filter(None, ["oneway", node.module])) if node.level else node.module
            if base == "oneway":
                names += [(f"oneway.{alias.name}", node.lineno) for alias in node.names]
            else:
                names.append((base, node.lineno))
    return [f"{name[7:]} (line {line})" for name, line in names
            if name.startswith("oneway.") and LAYERS[name[7:]] >= LAYERS[module]]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SOURCES) == sorted(LAYERS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_lower_layers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert layer_violations(path.stem, tree) == []


def test_layer_violation_detected():
    tree = ast.parse("import os\nfrom .streams import BitSource\nfrom .bitcore import pair\n"
                     "import oneway.inversion\nfrom . import cli, errors\n"
                     "from oneway.enumeration import column_hit\n")
    assert layer_violations("enumeration", tree) == [
        "streams (line 2)", "inversion (line 4)", "cli (line 5)", "enumeration (line 6)"]


def test_traced_entry_points_exist(capsys):
    """A library name the tracer wraps by name and no longer finds reads 0
    in every per-layer metric it feeds; a rename must carry the tracer along."""
    spec = importlib.util.spec_from_file_location(
        "layertrace_probe", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [name for name in layertrace._FACTORIES if not hasattr(C, name)]
    missing += [name for name in layertrace._REFINV if not hasattr(INV, name)]
    missing += [name for name, (home, _) in layertrace._SPANS.items()
                if not hasattr(home or E.StagedEnumeration, name)]
    assert missing == []
    layertrace._targets()
    assert "is gone" not in capsys.readouterr().err


# Public names that no library code, CLI verb or benchmark operation reaches:
# qualified name -> (why it stays, the test that checks it).
KEPT_UNREACHED = {
    "preimage_tree": ("lists the preimage words of the read classes, for a printed "
                      "inversion certificate",
                      "test_preimage_differential.py::test_fixture_levels_match_word_for_word"),
    "DovetailRecord.materialize": ("expands a randomized extraction's record into the "
                                   "collected words, for a printed certificate",
                                   "test_inversion.py::test_materialize_cap"),
    "MarkerTrace.stuck_report": ("the terminal marker state a printed two1 certificate shows",
                                 "test_constructions.py::test_never_permitted"),
    "Injection.check_injective": ("checks the claim that a shipped injection is injective",
                                  "test_properties.py::test_injections_are_injective"),
    "UseSoundnessReport.passed": ("the verdict of a use-soundness check",
                                  "test_acceptance.py::test_criterion_10"),
    "preimage_witness": ("the canonical preimage of a bit selection, for the d-keyed "
                         "reduction", "test_constructions.py::test_select_inverts_witness"),
    "replace_column": ("builds the d-keyed adversarial z",
                       "test_constructions.py::test_replace_column"),
    "stage_where_counter_reaches": ("the stage bound of the d-keyed reduction",
                                    "test_acceptance.py::test_criterion_09"),
    "inverts_at_finite_stage": ("refutes an inverter on a named input; the extractors "
                                "audit through the same loop at their own positions",
                                "test_inversion.py::test_refuted"),
}


def used_names(trees) -> set[str]:
    """Every identifier the trees use as an AST Name or Attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def unreached(library, users) -> list[str]:
    """The public functions, classes and methods of the `library` trees, by
    qualified name, whose name no tree of `users` uses.  The scan goes by
    name, so it misses a name that other code also uses for something else,
    such as `members` or `words`: only a name nothing uses at all is caught."""
    used = used_names(users)
    found = []
    for tree in library:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name not in used:
                found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{sub.name}" for sub in node.body
                          if isinstance(sub, ast.FunctionDef)
                          and sub.name[0] != "_" and sub.name not in used]
    return sorted(found)


def test_every_public_name_is_reached_or_kept():
    """Reached means used in src/oneway outside __init__ (which only
    re-exports) or in perfbench; a kept name that is reached again or gone
    leaves the list too."""
    library = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    users = [ast.parse(p.read_text(encoding="utf-8"))
             for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreached(library, users) == sorted(KEPT_UNREACHED)


def named_test(ref: str) -> list[ast.AST]:
    """The definitions `file.py::[Class::]test` names, found by name."""
    path, *names = ref.split("::")
    found = [ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8"))]
    for name in names:
        found = [node for scope in found for node in ast.walk(scope)
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
    return found


@pytest.mark.parametrize("name", sorted(KEPT_UNREACHED))
def test_kept_names_are_tested(name):
    body = named_test(KEPT_UNREACHED[name][1])
    assert len(body) == 1 and name.split(".")[-1] in used_names(body)


def test_unreached_name_detected():
    lib = ast.parse("def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "class K:\n    def m(self):\n        return self.n\n\n"
                    "    def n(self):\n        pass\n\n    def _p(self):\n        pass\n")
    assert unreached([lib], [lib]) == ["K", "K.m", "f"]


# Defaulted parameters of public functions and methods that no call in
# src/oneway or perfbench passes: "qualified name(parameter)" -> (why it
# stays, a test that passes it).
KEPT_KNOBS = {
    "DovetailRecord.materialize(cap)": ("bounds the words a printed certificate expands",
                                        "test_inversion.py::test_materialize_cap"),
    "Representation.__init__(budget)": ("the per-bit step budget of every search over the "
                                        "representation",
                                        "test_streams.py::test_budget_truncates"),
    "evaluate(budget)": ("a small step budget shows a divergence after a few reads",
                         "test_streams.py::test_divergence_budget"),
    "evaluate_bit(budget)": ("shows that a bit's step budget pays only for work new to its tape",
                             "test_constructions.py::test_even_bit_budget_pays_only_new_stages"),
    "extract_randomized(node_budget)": ("bounds the dovetail fork tree of an inverter whose "
                                        "reads do not settle",
                                        "test_inversion.py::test_fork_tree_budget"),
    "extract_randomized(run_budget)": ("the step budget of every inverter run, audit included",
                                       "test_inversion.py::TestExtractRandomized::"
                                       "test_validation_divergence"),
    "extract_randomized(validate)": ("skips the audit, to reach the measure argument with an "
                                     "inverter that fails it",
                                     "test_inversion.py::test_measure_never_crosses"),
    "extract_simple(validate)": ("skips the audit, to show the verdict a broken inverter gives",
                                 "test_inversion.py::test_zero_inversion_validation"),
    "extract_two_to_one(validate)": ("skips the audit, to show the verdict a broken inverter "
                                     "gives", "test_inversion.py::"
                                     "test_validation_catches_non_inverter"),
    "fiber_branch_count(budget)": ("bounds the probe emitter runs, so a test can hold the "
                                   "probe to a few runs per target bit",
                                   "test_fork_differential.py::"
                                   "test_two2_hit_probe_runs_stay_linear_in_the_target"),
    "fiber_branch_count(probe_len)": ("moves the probe barrier off its default",
                                      "test_inversion.py::test_budget_exhaustion_is_a_desk_error"),
    "inverts_at_finite_stage(budget)": ("a small step budget shows a diverging inverter after "
                                        "a few reads", "test_inversion.py::test_diverged"),
    "reference_inverter_two_to_one(search_stages)": (
        "how many marker stages the inverter scans for the stage that selected a position",
        "test_inversion.py::test_two_to_one_failed_bit_drops_its_marker_stages"),
    "unique_path_invert(survivor_cap)": ("stops a lossy inversion before its levels outgrow "
                                         "desk scale", "test_inversion.py::test_survivor_cap"),
}


def defaulted_parameters(library) -> list[tuple[str, str, str, Optional[int]]]:
    """(qualified name, the name a call uses, parameter, its index among a
    call's positional arguments or None) for every defaulted parameter of a
    public function, or of a public method or `__init__` of a public class,
    which a call names by the class."""
    found = []

    def add(qualified, called, fn, skip):
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found.extend((qualified, called, arg.arg, i - skip)
                     for i, arg in enumerate(positional[first:], first))
        found.extend((qualified, called, arg.arg, None)
                     for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if default is not None)

    for tree in library:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                add(node.name, node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                        add(f"{node.name}.__init__", node.name, sub, 1)
                    elif isinstance(sub, ast.FunctionDef) and sub.name[0] != "_":
                        static = "staticmethod" in used_names(sub.decorator_list)
                        add(f"{node.name}.{sub.name}", sub.name, sub, 0 if static else 1)
    return found


def calls_by_name(trees) -> dict[str, list[tuple[int, set[str]]]]:
    """Called name (a function's, or an attribute's) -> the positional count
    and keyword names of each call; `cls(...)` inside a classmethod is a call
    of its class."""
    calls: dict[str, list[tuple[int, set[str]]]] = {}
    for tree in trees:
        aliases = {}  # id of a classmethod's `cls` Name -> its class
        for owner in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for sub in owner.body:
                if isinstance(sub, ast.FunctionDef) \
                        and "classmethod" in used_names(sub.decorator_list):
                    cls_arg = sub.args.args[0].arg
                    aliases.update({id(node): owner.name for node in ast.walk(sub)
                                    if isinstance(node, ast.Name) and node.id == cls_arg})
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(aliases.get(id(node.func), name), []).append(
                    (len(node.args), {keyword.arg for keyword in node.keywords}))
    return calls


def unpassed(library, users) -> list[str]:
    """The defaulted parameters of the `library` trees, as `qualified
    name(parameter)`, that no call in the `users` trees passes by keyword or
    by position.  Calls match by name, as in `unreached`."""
    calls = calls_by_name(users)
    return sorted(f"{qualified}({param})"
                  for qualified, called, param, index in defaulted_parameters(library)
                  if not any(param in keywords or index is not None and count > index
                             for count, keywords in calls.get(called, ())))


def test_every_defaulted_parameter_is_passed_or_kept():
    """Passed means by a call in src/oneway or perfbench; a kept parameter
    that is passed again or gone leaves the list too."""
    library = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    users = [ast.parse(p.read_text(encoding="utf-8"))
             for p in SOURCES + sorted((ROOT / "perfbench").glob("*.py"))]
    assert unpassed(library, users) == sorted(KEPT_KNOBS)


@pytest.mark.parametrize("knob", sorted(KEPT_KNOBS))
def test_kept_knobs_are_tested(knob):
    library = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    body = named_test(KEPT_KNOBS[knob][1])
    assert len(body) == 1 and knob not in unpassed(library, body)


def test_unpassed_parameter_detected():
    lib = ast.parse("def f(a, b=1, *, c=2):\n    pass\n\n"
                    "def _g(d=0):\n    pass\n\n"
                    "class K:\n    def __init__(self, e=0, h=1):\n        pass\n\n"
                    "    @classmethod\n    def make(cls):\n        return cls(e=1)\n\n"
                    "    @staticmethod\n    def s(n=0):\n        pass\n\n"
                    "    def m(self, k=0, j=0):\n        pass\n")
    users = ast.parse("f(0, 1)\nK.make()\nK.s(1)\nx.m(3)\nK(0)\n")
    assert unpassed([lib], [lib, users]) == ["K.__init__(h)", "K.m(j)", "f(c)"]


def marker_contract_sites(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(what, innermost function as `module:line name`) for every `.undo()`
    call and every assignment to `.kept` outside the methods of `Marker`."""
    sites = []

    def visit(node, func):
        if isinstance(node, ast.ClassDef) and node.name == "Marker":
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = f"{module}:{node.lineno} {node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "undo":
            sites.append(("undo", func))
        if isinstance(node, ast.Attribute) and node.attr == "kept" \
                and isinstance(node.ctx, ast.Store):
            sites.append(("kept", func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_one_function_keeps_the_marker_contract():
    """A bit that succeeds keeps its marker stages, one that fails drops
    them: a second copy of that rule is one that can drift."""
    sites = [site for p in SOURCES
             for site in marker_contract_sites(p.stem, ast.parse(p.read_text(encoding="utf-8")))]
    undo = {func for what, func in sites if what == "undo"}
    kept = {func for what, func in sites if what == "kept"}
    assert len(undo) == 1 and undo == kept, sites


def test_marker_contract_site_detected():
    tree = ast.parse("class Marker:\n    def undo(self):\n        self.kept = 0\n\n"
                     "def emit(marker):\n    marker.undo()\n\n"
                     "def other(marker):\n    def inner():\n        marker.kept += 1\n"
                     "    return inner\n")
    assert marker_contract_sites("m", tree) == [("undo", "m:5 emit"), ("kept", "m:9 inner")]
