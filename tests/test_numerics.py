"""Tolerance policy: `numerics` is the only home of tolerance literals, no
verdict takes a tolerance argument, and no verdict changes when a whole
family is multiplied by c > 0."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest

import gframemod
from gframemod.cli import main
from gframemod.exceptions import HypothesisViolation, MembershipViolation
from gframemod.families import (
    KINDS,
    dilation_frame,
    random_family_frame,
    random_frame,
    random_unitary,
    unitary_orbit_frame,
)
from gframemod.frames import (
    GFusionFrame,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    synthesis,
)
from gframemod.hilbert import ModuleOperator, ModuleVector, Submodule, null_combinations, right_shift
from gframemod.numerics import FACTOR_TOL, rank, spectral_norms
from gframemod.perturb import PerturbationParams, check_perturbation_inequality
from gframemod.represent import (
    kernel_invariance,
    solve_adjoint_shift_extension,
    solve_representation,
    tightness_contradiction_certificate,
    verify_hypotheses,
    verify_shift_reconstruction_identity,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gframemod"
CORPUS = ROOT / "corpus"
SCALES = (1e-30, 1e-12, 1e-6, 1.0, 1e6, 1e30)


# ---------------------------------------------------------------------------
# the lint: tolerance literals live in numerics.py only


def tolerance_literals(path: Path) -> list:
    """(line, text) of every number token between 1e-13 and 1e-7 in a
    source file; comments and docstrings are not number tokens."""
    with open(path, "rb") as handle:
        return [(tok.start[0], tok.string) for tok in tokenize.tokenize(handle.readline)
                if tok.type == tokenize.NUMBER
                and 1e-13 <= abs(ast.literal_eval(tok.string)) <= 1e-7]


def test_tolerance_literals_live_in_numerics_only():
    found = {path.name: tolerance_literals(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "numerics.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_lint_sees_code_and_skips_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""1e-10 in a docstring"""\n'
                    'x = 2.5e-9  # 1e-8 in a comment\n'
                    'y = 1e-300 + 1e-6 + 10_000 + 1j\n')
    assert tolerance_literals(path) == [(2, "2.5e-9")]


# ---------------------------------------------------------------------------
# the lint: no verdict takes a tolerance argument

# the tolerance parameters a caller may set; the rest of the API gates each
# verdict with its named constant.  `rank` and `psd_leq_stack` are the rules
# themselves, applied at several tolerances.
TOLERANCE_PARAMETERS = {"psd_leq", "synthesis", "rank", "psd_leq_stack"}


def _public_callables():
    """(qualified name, callable) of every name in gframemod.__all__ and of
    every public function each module defines, with the public methods of
    their classes and of those classes' gframemod bases."""
    objects = {name: getattr(gframemod, name) for name in gframemod.__all__}
    for info in pkgutil.iter_modules(gframemod.__path__):
        module = importlib.import_module(f"gframemod.{info.name}")
        objects.update((name, obj) for name, obj in vars(module).items()
                       if not name.startswith("_")
                       and getattr(obj, "__module__", None) == module.__name__)
    for name, obj in objects.items():
        if inspect.isclass(obj):
            attrs = {attr for klass in obj.__mro__ if klass.__module__.startswith("gframemod")
                     for attr in vars(klass) if not attr.startswith("_")}
            methods = ((attr, getattr(obj, attr)) for attr in sorted(attrs))
            yield from ((f"{name}.{attr}", member) for attr, member in methods
                        if inspect.isfunction(member) or inspect.ismethod(member))
        elif inspect.isfunction(obj):
            yield name, obj


def test_no_public_callable_takes_a_tolerance():
    callables = dict(_public_callables())
    for name in ("psd_leq", "Submodule.contains", "Submodule.from_basis_rows",
                 "RepresentationResult.is_representable", "kernel_invariance",
                 "null_combinations", "rank"):
        assert name in callables, name  # the walk reaches exports, methods and helpers
    found = sorted(f"{name}({param})" for name, obj in callables.items()
                   for param in inspect.signature(obj).parameters
                   if (param in ("tol", "slack") or param.endswith("_tol"))
                   and name not in TOLERANCE_PARAMETERS)
    assert found == []


@pytest.mark.parametrize("tiny", [1e-308, 2e-310, 5e-324])
def test_spectral_norms_of_subnormal_blocks_are_exact(tiny):
    # below the smallest normal number 2^-e overflows, so it is never formed:
    # the norm of tiny I and of a row holding tiny is tiny, with no warning
    blocks = tiny * np.stack([np.eye(2), np.diag([1.0, 0.5])]).astype(np.complex128)
    row = np.zeros((1, 1, 3), dtype=np.complex128)
    row[0, 0, 1] = 1j * tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_norms(blocks).tolist() == [tiny, tiny]
        assert spectral_norms(row).tolist() == [tiny]


def test_a_family_with_subnormal_members_is_analysed_without_warnings(tmp_path):
    # the dilation's members c^k Id fall below the smallest normal number
    # long before k = 1500; every command of its document exits 0 in a
    # process that turns warnings into errors
    doc = tmp_path / "dilation.json"
    env = {k: v for k, v in os.environ.items() if k != "GFRAMEMOD_SEED"}
    env.update(PYTHONPATH=str(Path(gframemod.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    for argv in (["gen", "--kind", "dilation", "--n", "1", "--d", "1", "--m", "1500", str(doc)],
                 ["analyze", str(doc)], ["independence", str(doc)]):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "gframemod.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_rank_counts_relative_to_the_largest_singular_value():
    assert rank(np.array([2.0, 1e-9, 1e-11])) == 2
    assert rank(np.array([2e-30, 1e-39, 1e-41])) == 2
    assert rank(np.zeros(3)) == 0
    assert rank(np.zeros(0)) == 0
    assert rank(np.array([[1.0, 1.0], [1.0, 0.0]])).tolist() == [2, 1]


# ---------------------------------------------------------------------------
# library verdicts that used to flip with the scale


def _swapped_dual(frame):
    dual = canonical_dual(frame)
    elements = list(dual.elements)
    elements[0], elements[1] = ((elements[0].submodule, elements[1].operator),
                                (elements[1].submodule, elements[0].operator))
    return dual, GFusionFrame(elements, dual.index_convention)


def test_perturbation_verdict_does_not_depend_on_the_scale():
    params = PerturbationParams(0.1, 0.0)
    verdicts = {check_perturbation_inequality(unitary_orbit_frame(2, 2, 4, seed=1).scaled(c),
                                              unitary_orbit_frame(2, 2, 4, seed=2).scaled(c),
                                              params).inequality_holds
                for c in (1e-12, 1e-9, 1.0, 1e6)}
    assert verdicts == {False}


@pytest.mark.parametrize("kind", ["unitary-orbit", "random"])
def test_factor_certificate_does_not_depend_on_the_scale(kind):
    # a pass pair Y (I + E), ||E|| = eta / 2, and a witness pair (1 + 2 eta) Y
    base = unitary_orbit_frame(2, 2, 4, seed=1) if kind == "unitary-orbit" \
        else random_frame(4, 4, 64, seed=1)
    nd = base.n * base.d
    rng = np.random.default_rng(3)
    e = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    right = np.eye(nd) + 0.05 * e / np.linalg.norm(e, 2)
    full = np.broadcast_to(np.eye(nd, dtype=np.complex128), base.operators.shape)
    params = PerturbationParams(0.1, 0.0)
    for hat, holds in ((base.operators @ right, True), (1.2 * base.operators, False)):
        verdicts = [check_perturbation_inequality(
            base.scaled(c), GFusionFrame.from_stacks(full.copy(), c * hat, base.n, base.d), params)
            for c in SCALES]
        unit = verdicts[SCALES.index(1.0)]
        for verdict in verdicts:
            assert verdict.inequality_holds == holds
            assert verdict.certificate.residual <= FACTOR_TOL
            assert verdict.certificate.member == unit.certificate.member
            assert verdict.certificate.norm == pytest.approx(unit.certificate.norm, rel=1e-12)
            ratio = verdict.witness.lhs / verdict.witness.rhs
            assert ratio == pytest.approx(unit.witness.lhs / unit.witness.rhs, rel=1e-12)


def test_kernel_invariance_does_not_depend_on_the_scale():
    base = GFusionFrame(dilation_frame(2, 2, 4, seed=1).elements, "linear")
    results = [kernel_invariance(base.scaled(c), "linear") for c in (1e-9, 1.0, 1e9)]
    assert [ok for _, _, ok, _ in results] == [False] * 3
    assert results[0][1] == pytest.approx(results[1][1], rel=1e-9)
    assert results[2][1] == pytest.approx(results[1][1], rel=1e-9)


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1.0, 1e6])
def test_range_outside_its_submodule_is_rejected_at_every_scale(c):
    line = Submodule(ModuleOperator(np.diag([1.0, 0.0]).astype(complex), 2, 1))
    off = ModuleOperator(c * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 2, 1)
    with pytest.raises(MembershipViolation):
        GFusionFrame([(line, off)])


def test_hypotheses_do_not_depend_on_the_scale():
    frame = random_family_frame(2, 2, 4, seed=1)
    assert {verify_hypotheses(frame.scaled(c)) for c in (1e-12, 1e-6, 1.0, 1e6)} == {False}


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1.0, 1e6])
def test_shift_identity_verdicts_do_not_depend_on_the_scale(c):
    frame = unitary_orbit_frame(2, 2, 4, seed=21).scaled(c)
    dual, swapped = _swapped_dual(frame)
    extension = solve_adjoint_shift_extension(frame)
    assert verify_shift_reconstruction_identity(frame, dual, extension, j=0)
    assert not verify_shift_reconstruction_identity(frame, swapped, extension, j=0)
    with pytest.raises(HypothesisViolation):
        verify_shift_reconstruction_identity(frame, dual, ModuleOperator.identity(2, 2), j=0)


@pytest.mark.parametrize("c", [1e-9, 1.0, 1e9])
def test_certificate_window_does_not_depend_on_the_scale(c):
    frame = unitary_orbit_frame(2, 2, 4, seed=1).scaled(c)
    f = ModuleVector(np.hstack([np.eye(2), np.zeros((2, 2))]), 2, 2)
    cert = tightness_contradiction_certificate(frame, solve_representation(frame), f)
    assert not cert.degenerate and cert.window == 4
    assert cert.isometry_ok and cert.constant_norms_ok and cert.norm_bounds_ok


def _rotated_lines_frame(defect=0.0):
    """n=2, d=1: the whole space with Id, then two non-axis-aligned lines
    with their projections, the last pushed out of its line by `defect`
    times a unit rank-one map onto the orthogonal line."""
    u = random_unitary(np.random.default_rng(3), 2)
    line, other = u[:1], u[1:]
    full = Submodule.full(2, 1)
    sub = Submodule.from_basis_rows(line, 2, 1)
    push = ModuleOperator(defect * other.conj().T @ other, 2, 1)
    return GFusionFrame([(full, full.projection), (sub, sub.projection),
                         (sub, sub.projection + push)], "linear"), other


@pytest.mark.parametrize("c", SCALES)
def test_noise_level_terms_are_members_at_every_scale(c):
    # f is orthogonal to both lines, so terms 1 and 2 are rounding noise that
    # is not parallel to the line: judged against its own size it leaves it
    frame, other = _rotated_lines_frame()
    frame = frame.scaled(c)
    seq = analysis(frame, ModuleVector(c * other, 2, 1))
    assert synthesis(frame, seq).norm() == pytest.approx(c ** 3, rel=1e-9)
    shifted = right_shift(seq)
    assert [t.norm() for t in shifted.terms[1:]] == pytest.approx([0.0, 0.0], abs=1e-12 * c * c)


@pytest.mark.parametrize("c", SCALES)
def test_synthesis_accepts_the_analysis_of_every_accepted_frame(c):
    # a range-containment defect of 5e-9 ||Y_k|| is accepted by the frame, so
    # its analysis terms carry it and synthesis must take them
    frame, _ = _rotated_lines_frame(defect=5e-9)
    frame = frame.scaled(c)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = ModuleVector(c * (rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))), 2, 1)
        synthesis(frame, analysis(frame, f))
    with pytest.raises(MembershipViolation):
        synthesis(frame, analysis(frame, f), membership_tol=1e-10)


@pytest.mark.parametrize("c", SCALES)
def test_synthesis_accepts_the_analysis_of_a_frame_with_a_small_lower_bound(c):
    # n=2, d=1: (full, 1e-3 Id) and (a rotated line, its projection plus a
    # 9e-9 push off the line), so A = 1e-6.  For f off the line, term 1's
    # defect 9e-9 ||f|| exceeds 1e-8 ||seq|| = 1e-11 ||f||, and stays within
    # the default bound 1e-8 ||seq|| ||Y_1|| / sqrt(A)
    u = random_unitary(np.random.default_rng(3), 2)
    line, other = u[:1], u[1:]
    full = Submodule.full(2, 1)
    sub = Submodule.from_basis_rows(line, 2, 1)
    push = ModuleOperator(9e-9 * other.conj().T @ other, 2, 1)
    frame = GFusionFrame([(full, full.projection * 1e-3), (sub, sub.projection + push)],
                         "linear").scaled(c)
    assert frame_bounds(frame).lower == pytest.approx(1e-6 * c * c, rel=1e-6)
    f = ModuleVector(other, 2, 1)
    seq = analysis(frame, f)
    np.testing.assert_allclose(synthesis(frame, seq).flat,
                               f.flat @ frame_operator(frame).matrix, rtol=1e-9, atol=0)
    with pytest.raises(MembershipViolation):
        synthesis(frame, seq, membership_tol=1e-11)


def _equal_rows_frame(c, t):
    """n=2, d=2, loaded from stacks: (full, c Id), then (the first two
    coordinates, Y) with Y's four rows all c (sqrt(1 - t^2), 0, t, 0).  So
    ||Y|| = 2 c is twice its row norm c, and ||Y - Y P|| = 2 c t."""
    row = c * np.array([np.sqrt(1.0 - t * t), 0.0, t, 0.0])
    projections = np.stack([np.eye(4), np.diag([1.0, 1.0, 0.0, 0.0])]).astype(complex)
    operators = np.stack([c * np.eye(4), np.tile(row, (4, 1))]).astype(complex)
    return GFusionFrame.from_stacks(projections, operators, 2, 2)


@pytest.mark.parametrize("c", SCALES)
def test_containment_is_judged_against_the_operator_norm_at_every_scale(c):
    # a residual of 1.5e-8 ||row||, past the row-norm screen but within
    # CONTAINMENT_TOL ||Y|| = 2e-8 ||row||, loads, and its norms were taken
    frame = _equal_rows_frame(c, 0.75e-8)
    assert frame._norms is not None
    np.testing.assert_allclose(frame._operator_norms, [c, 2.0 * c], rtol=1e-12)
    # one of 2.5e-8 ||row|| fails with the message of the exact test
    with pytest.raises(MembershipViolation) as caught:
        _equal_rows_frame(c, 1.25e-8)
    assert str(caught.value) == "element 1: operator range is not contained in its submodule"
    # a contained family passes the screen and takes no norm at load
    assert _equal_rows_frame(c, 0.0)._norms is None


@pytest.mark.parametrize("small,fixes", [(5e-10, False), (5e-9, True)])
def test_hypothesis_rank_cutoff_is_1e_9_of_the_top_singular_value(small, fixes):
    # Y = B^H diag(1, small) B on a rank-2 submodule with rows B: self-adjoint,
    # range inside, and it fixes the submodule only if small counts as rank
    basis = random_unitary(np.random.default_rng(5), 4)[:2]
    plane = Submodule.from_basis_rows(basis, 2, 2)
    y = ModuleOperator(basis.conj().T @ np.diag([1.0, small]) @ basis, 2, 2)
    full = Submodule.full(2, 2)
    frame = GFusionFrame([(plane, y), (full, full.projection)])
    assert [verify_hypotheses(frame.scaled(c)) for c in SCALES] == [fixes] * len(SCALES)


def test_null_combinations_do_not_depend_on_the_scale():
    # a null space of two directions, whose SVD basis follows rounding
    for frame in (dilation_frame(2, 2, 4, seed=1), unitary_orbit_frame(2, 2, 4, seed=1)):
        first = null_combinations(frame.operators)[1]
        assert first.shape[0] > 1
        np.testing.assert_allclose(first @ first.conj().T, np.eye(len(first)), atol=1e-12)
        for c in SCALES:
            np.testing.assert_allclose(null_combinations(frame.scaled(c).operators)[1],
                                       first, atol=1e-9)


def test_last_null_combination_is_the_first_dependency():
    rng = np.random.default_rng(6)
    y0, y1 = rng.standard_normal((2, 4, 4))
    _, null = null_combinations(np.stack([y0, y1, y0 + y1, 2 * y0]))
    assert null.shape == (2, 4)
    expected = np.array([1.0, 1.0, -1.0, 0.0]) / 3 ** 0.5  # members 0 .. 2, not 0 .. 3
    np.testing.assert_allclose(null[-1] * np.sign(null[-1, 0]), expected, atol=1e-12)
    np.testing.assert_allclose(null[0, -1], abs(null[0, -1]))  # echelon entry is positive


# ---------------------------------------------------------------------------
# metamorphic: every command's verdicts at every scale

ETA = 0.1
INTEGER_FIELDS = {"window", "samples", "sequences", "vectors", "span_rank",
                  "invariant_span_dim", "alpha", "b", "sample_failures", "d", "n", "seed"}


def _documents():
    """(name, path or gen argv) of every document the metamorphic test scales."""
    corpus = [(path.stem, path) for path in sorted(CORPUS.glob("*.json"))
              if "elements" in json.loads(path.read_text())]
    generated = [(f"gen-{kind}", ["gen", "--kind", kind, "--n", "2", "--d", "2", "--m", "4",
                                  "--seed", "1"]) for kind in KINDS]
    return corpus + generated


def _matrix(rows):
    a = np.asarray(rows, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def _rows(matrix):
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _with_operators(doc, operators):
    elements = [dict(el, operator=_rows(y)) for el, y in zip(doc["elements"], operators)]
    return dict(doc, elements=elements)


def _signature(value, key=None):
    """The verdict content of a report: booleans, strings, None and integer
    fields as they are; every other number only as a number."""
    if isinstance(value, dict):
        return {k: _signature(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_signature(v, key) for v in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value if key in INTEGER_FIELDS else "number"
    return value


def _scaled_invocations(doc, c, work: Path):
    """Every command on the document scaled by c: the plain, theorem and
    certificate representations, and a perturbation pass pair
    (Yhat = Y (I + E), ||E|| = eta / 2) and witness pair (Yhat = (1 + 2 eta) Y)."""
    operators = [_matrix(el["operator"]) for el in doc["elements"]]
    nd = doc["n"] * doc["d"]
    rng = np.random.default_rng(7)
    e = rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd))
    right = np.eye(nd) + e * (ETA / 2.0) / np.linalg.norm(e, 2)
    paths = {}
    for name, ops in (("base", operators), ("pass", [y @ right for y in operators]),
                      ("witness", [(1.0 + 2.0 * ETA) * y for y in operators])):
        paths[name] = work / f"{name}-{c:g}.json"
        paths[name].write_text(json.dumps(_with_operators(doc, [c * y for y in ops])))
    vector = work / "vector.json"
    identity = np.eye(doc["d"])
    blocks = [identity] + [np.zeros_like(identity)] * (doc["n"] - 1)
    vector.write_text(json.dumps({"d": doc["d"], "n": doc["n"],
                                  "components": [_rows(b + 0j) for b in blocks]}))
    base = paths["base"]
    perturb = ["--eta", str(ETA), "--samples", "64"]
    return {
        "analyze": ["analyze", base],
        "independence": ["independence", base],
        "represent": ["represent", base],
        "theorem21": ["represent", base, "--check-theorem21"],
        "certificate": ["represent", base, "--tight-certificate", "--vector", vector],
        "perturb-pass": ["perturb", base, paths["pass"], *perturb],
        "perturb-witness": ["perturb", base, paths["witness"], *perturb],
    }


def _run(argv, out: Path):
    if out.exists():
        out.unlink()
    code = main([str(a) for a in argv] + ["--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("name,source", _documents(), ids=[name for name, _ in _documents()])
def test_verdicts_do_not_depend_on_the_scale(name, source, tmp_path):
    if isinstance(source, list):
        path = tmp_path / "generated.json"
        assert main(source + [str(path)]) == 0
        source = path
    doc = json.loads(Path(source).read_text())
    runs = {}
    for c in SCALES:
        for command, argv in _scaled_invocations(doc, c, tmp_path).items():
            runs[c, command] = _run(argv, tmp_path / "report.json")
    for command in ("analyze", "independence", "represent", "theorem21", "certificate",
                    "perturb-pass", "perturb-witness"):
        code, report = runs[1.0, command]
        reference = (code, report and (_signature(report["results"]), report["caveats"]))
        for c in SCALES:
            code, report = runs[c, command]
            assert (code, report and (_signature(report["results"]), report["caveats"])) \
                == reference, (command, c)
    code, report = runs[1.0, "analyze"]
    if report is not None:
        unit = report["results"]["bounds"]
        for c in SCALES:
            bounds = runs[c, "analyze"][1]["results"]["bounds"]
            for side in ("lower", "upper"):
                assert bounds[side] == pytest.approx(c * c * unit[side], rel=1e-9), (side, c)


def test_the_metamorphic_documents_reach_every_verdict(tmp_path):
    """The scaled documents are not all rejected: analyze meets a frame and
    a non-frame, theorem 2.1 passes and fails, independence finds both
    verdicts, and the perturbation pairs pass and fail."""
    outcomes = {}
    for name, source in _documents():
        if isinstance(source, list):
            path = tmp_path / f"{name}.json"
            assert main(source + [str(path)]) == 0
            source = path
        doc = json.loads(Path(source).read_text())
        for command, argv in _scaled_invocations(doc, 1.0, tmp_path).items():
            code, report = _run(argv, tmp_path / "report.json")
            verdict = report["results"].get("verdict") if report else None
            outcomes.setdefault(command, set()).add((code, verdict))
    assert {0, 2} <= {code for code, _ in outcomes["analyze"]}
    assert {0, 3} <= {code for code, _ in outcomes["theorem21"]}
    assert {"independent", "dependent"} <= {verdict for _, verdict in outcomes["independence"]}
    assert (0, None) in outcomes["certificate"] and (0, None) in outcomes["perturb-pass"]
    assert outcomes["perturb-witness"] == {(3, None)}


@pytest.mark.parametrize("c", [1e60, 1e77, 1e90])
def test_certificate_with_a_vector_near_the_magnitude_window(c, tmp_path):
    """The orbit's operators and the unit vector, both times c: B and ||f||^2
    are each near or past the largest float, and no Gram or ratio of the
    certificate may overflow on the way to the unit-scale window."""
    doc = json.loads((CORPUS / "unitary_orbit_m4.json").read_text())
    vector = json.loads((CORPUS / "unit_vector_n2_d2.json").read_text())
    outcomes = []
    for scale in (1.0, c):
        frame_path, vector_path = tmp_path / f"frame-{scale:g}.json", tmp_path / f"f-{scale:g}.json"
        frame_path.write_text(json.dumps(_with_operators(
            doc, [scale * _matrix(el["operator"]) for el in doc["elements"]])))
        vector_path.write_text(json.dumps(dict(vector, components=[
            _rows(scale * _matrix(block)) for block in vector["components"]])))
        code, report = _run(["represent", frame_path, "--tight-certificate", "--vector", vector_path],
                            tmp_path / "report.json")
        assert code == 0
        outcomes.append(_signature(report["results"]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1]["certificate"]["window"] == 4
