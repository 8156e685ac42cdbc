"""The public surface: every function that `gframemod` exports is reached by
the program (named in `src/` outside its own def), called by an acceptance
criterion, traced by the benchmark, or states a paper result that a named
test checks.  A function in none of these groups is dead weight and goes.
So does a public method of an exported class that neither `src/` nor a
criterion names and the benchmark does not trace, and a defaulted
parameter that no call in `src/` or in a criterion sets.  No public
function or method keeps a parameter that its body never reads.  One
function, the document loader in `serialize`, sets the cyclic garbage
collector's process-wide state.  The packages that the library imports from outside
the standard library are exactly its declared dependencies."""

import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path

import gframemod
from test_numerics import _public_callables

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gframemod"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SPANS = ROOT / "perfbench" / "spans.py"
PYPROJECT = ROOT / "pyproject.toml"

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
    "apply": "tests/test_hilbert.py::test_apply_matches_blockwise_oracle",
}

# defaulted parameters that no call in src/ or in a criterion sets, each
# with the reason it stays
UNSET_KNOBS = {
    "psd_leq(tol)": "criterion 2 passes the default positionally, and the criteria "
                    "are not edited",
    "main(argv)": "the entry point: the console script calls it with no argument",
}


# parameters that a public callable accepts and never reads, each with the
# reason it stays
UNREAD_PARAMETERS = {
    "verify_perturbed_frame(seed)": "criterion 8 passes seed=k, and the criteria are not "
                                    "edited; the check is exact and draws nothing",
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


def _attributes(paths) -> set:
    """Every attribute that the code in the files names."""
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def _methods(cls):
    """The public instance methods of a class and of its gframemod bases."""
    return sorted({attr for klass in cls.__mro__ if klass.__module__.startswith("gframemod")
                   for attr, member in vars(klass).items()
                   if not attr.startswith("_") and inspect.isfunction(member)})


def unused_methods() -> list:
    """Class.method for each public method of an exported class that no
    module of `src/` and no criterion names as an attribute, and that the
    benchmark does not trace."""
    named = _attributes([*SRC.glob("*.py"), ACCEPTANCE])
    traced = _traced(SPANS)
    found = []
    for name in gframemod.__all__:
        cls = getattr(gframemod, name)
        if inspect.isclass(cls):
            module = cls.__module__.rpartition(".")[2]
            found += [f"{name}.{attr}" for attr in _methods(cls)
                      if attr not in named and (module, f"{name}.{attr}") not in traced]
    return sorted(found)


def _calls(paths) -> dict:
    """(call, dotted name of the defs and classes that hold it) of every
    call in the files, by the name or attribute that it calls."""
    calls = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                calls.setdefault(name, []).append((child, owner))
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
            else:
                visit(child, owner)

    for path in paths:
        visit(ast.parse(path.read_text()), "")
    return calls


def _is_literal(node, value) -> bool:
    try:
        return ast.literal_eval(node) == value
    except (TypeError, ValueError):
        return False


def _sets(call: ast.Call, index, param: inspect.Parameter, unset=()) -> bool:
    """Whether the call passes the parameter, at position `index` (None for
    keyword-only) or by keyword, as anything but a literal equal to its
    default or a name in `unset`, the unset parameters of the calling def.
    Unpacked arguments pass nothing: their length is not known, so the
    positions after one are not known either."""
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if position == index:
            return not (_is_literal(arg, param.default)
                        or isinstance(arg, ast.Name) and arg.id in unset)
    for keyword in call.keywords:
        if keyword.arg == param.name:
            return not (_is_literal(keyword.value, param.default)
                        or isinstance(keyword.value, ast.Name) and keyword.value.id in unset)
    return False


POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _defaulted(obj):
    """(position or None, parameter) of each defaulted parameter, counting
    positions as a call through an instance does."""
    params = list(inspect.signature(obj).parameters.values())
    if params and params[0].name == "self":
        params = params[1:]
    return [(index if param.kind in POSITIONAL else None, param)
            for index, param in enumerate(params) if param.default is not param.empty]


def unset_knobs() -> list:
    """name(parameter) for each defaulted parameter of a public function or
    method that no call in `src/` or in a criterion sets.  A value that a
    def only forwards from one of its own unset parameters sets nothing,
    unless that parameter is in UNSET_KNOBS."""
    calls = _calls([*SRC.glob("*.py"), ACCEPTANCE])
    knobs = [(name, index, param) for name, obj in _public_callables()
             for index, param in _defaulted(obj)]
    found = set()
    while True:
        unset = {}
        for name, param in found:
            if f"{name}({param})" not in UNSET_KNOBS:
                unset.setdefault(name, set()).add(param)
        now = {(name, param.name) for name, index, param in knobs
               if not any(_sets(call, index, param, unset.get(owner, ()))
                          for call, owner in calls.get(name.rpartition(".")[2], ()))}
        if now == found:
            return sorted(f"{name}({param})" for name, param in found)
        found = now


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


def test_every_public_method_is_named_by_the_program_or_a_criterion():
    assert unused_methods() == []


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset_knobs() == sorted(UNSET_KNOBS)


def test_the_knob_lint_counts_set_values_only(tmp_path):
    (tmp_path / "a.py").write_text("f(x, 1e-9)\n"
                                   "f(x, tol=1e-9)\n"
                                   "f(*args, 2.0, **options)\n"
                                   "g(x, 2.0)\n"
                                   "class C:\n"
                                   "    def h(self, x, tol=1e-9):\n"
                                   "        return f(x, tol=tol)\n")
    calls = _calls([tmp_path / "a.py"])
    tol = inspect.Parameter("tol", inspect.Parameter.POSITIONAL_OR_KEYWORD, default=1e-9)
    # the default, by position and by keyword, and values at unknown positions
    assert not any(_sets(call, 1, tol) for call, _ in calls["f"][:3])
    assert _sets(calls["g"][0][0], 1, tol)  # another value
    call, owner = calls["f"][3]
    assert owner == "C.h"
    assert _sets(call, 1, tol)  # a name
    assert not _sets(call, 1, tol, {"tol"})  # forwarded from an unset parameter


def _unread(fn: ast.FunctionDef) -> list:
    """The parameters of a def that no name in its body reads, nested defs
    and lambdas included; defaults and annotations are not the body."""
    args = fn.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                              args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
    return [param for param in params if param not in read]


def unread_parameters() -> list:
    """name(parameter) for each parameter of a public function or method
    that its body never reads."""
    found = []
    for name, obj in _public_callables():
        source = textwrap.dedent(inspect.getsource(getattr(obj, "__func__", obj)))
        found += [f"{name}({param})" for param in _unread(ast.parse(source).body[0])]
    return sorted(found)


def test_no_public_callable_keeps_a_parameter_it_never_reads():
    assert set(unread_parameters()) <= set(UNREAD_PARAMETERS)
    callables = dict(_public_callables())
    for entry in UNREAD_PARAMETERS:  # each entry names a parameter that exists
        name, _, param = entry.rstrip(")").partition("(")
        assert param in inspect.signature(callables[name]).parameters, entry


def test_the_unread_lint_sees_bodies_only():
    tree = ast.parse("def f(self, a, b=1, *rest, c, d=x, **options):\n"
                     "    \"\"\"a b c d in a docstring\"\"\"\n"
                     "    g = lambda: a + self.b\n"
                     "    def h(c=d):\n"
                     "        return rest\n"
                     "    return g, h\n")
    assert _unread(tree.body[0]) == ["b", "c", "options"]  # d: a nested default


# the gc functions that set the cyclic collector's process-wide state
GC_SETTERS = {"disable", "enable", "set_threshold", "freeze", "unfreeze"}


def gc_setters(src: Path) -> list:
    """(module, top-level def) of every use of a `GC_SETTERS` function, and of
    every import that names one or renames `gc`, in the modules under `src`."""
    found = []
    for path in sorted(src.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in GC_SETTERS
                        and isinstance(node.value, ast.Name) and node.value.id == "gc"
                        or isinstance(node, ast.ImportFrom) and node.module == "gc"
                        and {alias.name for alias in node.names} & (GC_SETTERS | {"*"})
                        or isinstance(node, ast.Import) and any(
                            alias.name == "gc" and alias.asname for alias in node.names)):
                    found.append((path.stem, getattr(top, "name", None)))
    return found


def test_only_the_document_loader_sets_the_collector():
    # one pause, one resume: process-wide state changes in one function
    assert gc_setters(SRC) == [("serialize", "_load")] * 2


def test_the_collector_lint_sees_every_spelling(tmp_path):
    (tmp_path / "a.py").write_text("import gc\n"
                                   "from gc import enable\n"
                                   "import gc as collector\n"
                                   "def f():\n"
                                   "    gc.set_threshold(0)\n"
                                   "    return gc.isenabled(), gc.get_count()\n"
                                   "class C:\n"
                                   "    pause = gc.disable\n")
    assert gc_setters(tmp_path) == [("a", None), ("a", None), ("a", "f"), ("a", "C")]


def _imported_packages(src: Path) -> set:
    """The top-level name of every absolute import in the library's modules,
    at module level or inside a def."""
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def _declared_dependencies(pyproject: Path) -> set:
    """The distribution names in `[project] dependencies`, without their
    version specifiers."""
    found = re.search(r"^dependencies = (\[.*?\])", pyproject.read_text(), re.M | re.S)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in ast.literal_eval(found.group(1))}


def test_third_party_imports_are_declared():
    third_party = _imported_packages(SRC) - set(sys.stdlib_module_names) - {"gframemod"}
    assert third_party == _declared_dependencies(PYPROJECT)
