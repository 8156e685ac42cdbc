"""The public surface: every function that `gframemod` exports is reached by
the program (named in `src/` outside its own def), called by an acceptance
criterion, traced by the benchmark, or states a paper result that a named
test checks.  A function in none of these groups is dead weight and goes."""

import ast
import inspect
from pathlib import Path

import gframemod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gframemod"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SPANS = ROOT / "perfbench" / "spans.py"

# exported functions that nothing else reaches, each with the test that
# checks the result it states
STATED_RESULTS = {
    "adjoint": "tests/test_algebra.py::test_adjoint_antihomomorphism",
    "inner_product": "tests/test_hilbert.py::test_inner_product_algebra_linearity",
    "operator_adjoint": "tests/test_hilbert.py::test_adjoint_pairing",
    "compose": "tests/test_hilbert.py::test_compose_defining_identity",
    "submodule_from_generators":
        "tests/test_hilbert.py::test_submodule_fixes_generators_and_algebra_orbit",
    "solve_adjoint_shift_extension":
        "tests/test_represent.py::test_orbit_family_satisfies_shift_identity",
    "verify_shift_reconstruction_identity":
        "tests/test_represent.py::test_orbit_family_satisfies_shift_identity",
}


def _loaded_names(node) -> set:
    """Every name and attribute that the code under `node` reads or calls;
    imports and docstrings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _source_references(src: Path) -> set:
    """(name, top-level def or class that holds the reference) over the
    library's modules, leaving out the package's re-exports."""
    refs = set()
    for path in src.glob("*.py"):
        if path.name != "__init__.py":
            for top in ast.parse(path.read_text()).body:
                refs.update((name, getattr(top, "name", None)) for name in _loaded_names(top))
    return refs


def _traced(spans: Path) -> set:
    """(module, attribute) of every span and counter the benchmark installs."""
    tree = ast.parse(spans.read_text())
    return {pair for node in tree.body if isinstance(node, ast.Assign)
            and {t.id for t in node.targets} & {"SPANNED", "COUNTED"}
            for pair in ast.literal_eval(node.value)}


def unreached() -> list:
    """The exported functions in none of the first three groups."""
    in_source = {name for name, owner in _source_references(SRC) if name != owner}
    accepted = _loaded_names(ast.parse(ACCEPTANCE.read_text()))
    traced = _traced(SPANS)
    found = []
    for name in gframemod.__all__:
        obj = getattr(gframemod, name)
        if inspect.isfunction(obj):
            module = obj.__module__.rpartition(".")[2]
            if not (name in in_source or name in accepted or (module, name) in traced):
                found.append(name)
    return sorted(found)


def test_every_export_is_reached_or_states_a_checked_result():
    assert unreached() == sorted(STATED_RESULTS)


def test_each_stated_result_names_a_test_that_calls_it():
    for name, test_id in STATED_RESULTS.items():
        path, _, test = test_id.partition("::")
        tree = ast.parse((ROOT / path).read_text())
        bodies = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == test]
        assert bodies, test_id
        assert name in _loaded_names(bodies[0]), (name, test_id)


def test_the_lint_sees_calls_and_skips_its_own_def(tmp_path):
    (tmp_path / "a.py").write_text('"""compose in a docstring"""\n'
                                   "from .b import apply\n"
                                   "def compose(s, t):\n"
                                   "    return compose(s, t)  # recursion is no caller\n"
                                   "def user(x):\n"
                                   "    return x.inner_product\n")
    refs = {name for name, owner in _source_references(tmp_path) if name != owner}
    assert "inner_product" in refs
    assert not {"compose", "apply"} & refs
