import ast
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gframemod import frames, represent
from gframemod.exceptions import (
    DegenerateSpan,
    DimensionMismatch,
    HypothesisViolation,
    LengthMismatch,
    MembershipViolation,
    NotInvertible,
    NotRepresentable,
    NotTight,
)
from gframemod.families import (
    KINDS,
    commuting_orbit_frame,
    dilation_frame,
    fusion_decomposition_frame,
    generate,
    random_family_frame,
    random_frame,
    random_unitary,
    random_vector,
    unitary_orbit_frame,
)
from gframemod.frames import GFusionFrame, analysis, frame_bounds, fusion_frame, synthesis
from gframemod.hilbert import (
    CONVENTIONS,
    ModuleOperator,
    ModuleVector,
    Submodule,
    right_shift,
    shift_pairs,
    submodule_from_generators,
)
from gframemod.numerics import HYPOTHESIS_TOL, MEMBERSHIP_TOL, TIE_TOL, _first_tied
from gframemod.represent import (
    KERNEL_CHUNK_BYTES,
    KERNEL_SAMPLES,
    _kernel_row_basis,
    check_representation_bounds,
    divergence_window,
    independence_analysis,
    kernel_invariance,
    sample_synthesis_kernel,
    solve_adjoint_shift_extension,
    solve_representation,
    span_invariance,
    tightness_contradiction_certificate,
    verify_hypotheses,
    verify_shift_reconstruction_identity,
)
from gframemod.frames import canonical_dual
from gframemod.serialize import load_frame

import oracles

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _full_frame(ops, n, d, convention="linear"):
    full = Submodule(ModuleOperator.identity(n, d))
    return GFusionFrame([(full, op) for op in ops], convention)


def _orthogonal_projection_frame():
    e1 = ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)
    e2 = ModuleVector(np.array([[0.0, 1.0 + 0j]]), 2, 1)
    return fusion_frame([submodule_from_generators([e1]),
                         submodule_from_generators([e2])], [1.0, 1.0])


# ---------------------------------------------------------------------------
# solving the representation


def test_dilation_family_recovers_scalar_operator():
    frame = dilation_frame(2, 1, 3, seed=0)
    ratio = frame.operators[1][0, 0].real  # Y_1 = c Id
    rep = solve_representation(frame, "linear")
    assert rep.residual <= 1e-10
    assert rep.norm_T == pytest.approx(ratio, abs=1e-10)
    np.testing.assert_allclose(rep.operator_T.matrix, ratio * np.eye(2), atol=1e-10)
    assert rep.is_representable()


def test_orthogonal_projections_are_not_representable():
    rep = solve_representation(_orthogonal_projection_frame(), "linear")
    # frozen from the exhaustive least-squares oracle: the best T zeroes the
    # constrained rows entirely, leaving a defect of operator norm exactly 1
    assert rep.residual == pytest.approx(1.0, abs=1e-9)
    assert not rep.is_representable()


def test_recovers_constructed_operator():
    rng = np.random.default_rng(7)
    nd = 4
    x = random_unitary(rng, nd) + 0.1 * (rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd)))
    mats = [np.eye(nd, dtype=complex)]
    for _ in range(3):
        mats.append(mats[-1] @ x)
    frame = _full_frame([ModuleOperator(m, 2, 2) for m in mats], 2, 2)
    rep = solve_representation(frame, "linear")
    assert rep.residual <= 1e-9 * rep.scale
    defect = np.linalg.norm(rep.operator_T.matrix - x, 2)
    assert defect <= 1e-8 * np.linalg.norm(x, 2)


def test_residual_monotone_under_constraint_removal():
    # the minimized objective (sum of squared defects) can only shrink when
    # the wrap-around constraint is dropped; the per-constraint max defect
    # carries no such guarantee for a least-squares solution
    for seed in range(5):
        frame = random_frame(2, 1, 4, seed=seed)
        lin = solve_representation(frame, "linear")
        cyc = solve_representation(frame, "cyclic")
        assert lin.residual_frobenius <= cyc.residual_frobenius + 1e-12


def test_solver_stays_on_span():
    frame = random_family_frame(2, 2, 3, seed=3)
    rep = solve_representation(frame)
    q = rep.span_projection.projection.matrix
    x = rep.operator_T.matrix
    assert np.linalg.norm(q @ x @ q - x, 2) <= 1e-10 * (1 + np.linalg.norm(x, 2))


def test_short_family_raises():
    frame = _full_frame([ModuleOperator.identity(2, 1)], 2, 1)
    with pytest.raises(DegenerateSpan):
        solve_representation(frame)


# ---------------------------------------------------------------------------
# hypotheses


def test_fusion_frame_passes_hypotheses():
    assert verify_hypotheses(_orthogonal_projection_frame())


def test_non_hermitian_member_fails_hypotheses():
    nil = ModuleOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 2, 1)
    frame = _full_frame([ModuleOperator.identity(2, 1), nil], 2, 1)
    assert not verify_hypotheses(frame)


def test_positive_definite_on_range_passes_hypotheses():
    # Y = (basis)^H D (basis) with positive D acts invertibly on its submodule
    rng = np.random.default_rng(4)
    basis = random_unitary(rng, 4).conj().T[:2]
    sub = Submodule.from_basis_rows(basis, 2, 2)
    d = np.diag(rng.uniform(0.5, 2.0, size=2))
    y = ModuleOperator(basis.conj().T @ d @ basis, 2, 2)
    frame = GFusionFrame([(sub, y), (sub, y)], "linear")
    assert verify_hypotheses(frame)


def test_rank_deficient_action_fails_hypotheses():
    # a projection onto a line inside a rank-2 submodule moves the submodule
    rng = np.random.default_rng(5)
    basis = random_unitary(rng, 4).conj().T[:2]
    sub = Submodule.from_basis_rows(basis, 2, 2)
    line = basis[:1]
    y = ModuleOperator(line.conj().T @ line, 2, 2)
    frame = GFusionFrame([(sub, y)], "linear")
    assert not verify_hypotheses(frame)


def test_hypotheses_scale_invariant():
    # c * P is a bijection of its submodule for every c > 0
    rng = np.random.default_rng(6)
    basis = random_unitary(rng, 4).conj().T[:2]
    sub = Submodule.from_basis_rows(basis, 2, 2)
    for c in (1e-20, 1.0, 1e12):
        op = ModuleOperator(c * basis.conj().T @ basis, 2, 2)
        assert verify_hypotheses(GFusionFrame([(sub, op)], "linear"))


def test_zero_action_on_nonzero_submodule_fails_hypotheses():
    rng = np.random.default_rng(7)
    basis = random_unitary(rng, 4).conj().T[:2]
    sub = Submodule.from_basis_rows(basis, 2, 2)
    frame = GFusionFrame([(sub, ModuleOperator.zero(2, 2))], "linear")
    assert not verify_hypotheses(frame)


def _per_element_hypotheses(frame):
    """verify_hypotheses one element at a time with SVD-based norms."""
    for element in frame.elements:
        b = element.operator.matrix
        if np.linalg.norm(b - b.conj().T, 2) > HYPOTHESIS_TOL * np.linalg.norm(b, 2):
            return False
        rows = element.submodule.basis_rows
        if rows.shape[0] == 0:
            continue
        s = np.linalg.svd(rows @ b, compute_uv=False)
        if int(np.sum(s > HYPOTHESIS_TOL * s[0])) != element.submodule.rank:
            return False
    return True


def _mixed_rank_frame(fixes_the_plane: bool):
    # a rank-1 and a rank-2 submodule; the rank-2 one is either fixed by its
    # projection or moved onto a line inside it
    rng = np.random.default_rng(8)
    basis = random_unitary(rng, 4).conj().T
    line = Submodule.from_basis_rows(basis[2:3], 2, 2)
    plane = Submodule.from_basis_rows(basis[:2], 2, 2)
    kept = basis[:2] if fixes_the_plane else basis[:1]
    return GFusionFrame([(line, line.projection), (plane, ModuleOperator(kept.conj().T @ kept, 2, 2)),
                         (line, line.projection)], "linear")


@pytest.mark.parametrize("frame", [
    *[pytest.param(generate(kind, n, d, m, seed=seed), id=f"{kind}-n{n}-d{d}-m{m}-s{seed}")
      for kind in KINDS for n, d, m in [(2, 2, 4), (4, 4, 16)] for seed in (1, 2)
      if kind != "fusion" or m <= n * d],
    pytest.param(_orthogonal_projection_frame(), id="orthogonal-projections"),
    pytest.param(_full_frame([ModuleOperator.identity(2, 1),
                              ModuleOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                                             2, 1)], 2, 1), id="not-self-adjoint"),
    pytest.param(_mixed_rank_frame(True), id="mixed-ranks"),
    pytest.param(_mixed_rank_frame(False), id="mixed-ranks-rank-deficient"),
])
def test_batched_hypotheses_match_the_per_element_loop(frame):
    assert verify_hypotheses(frame) == _per_element_hypotheses(frame)


# ---------------------------------------------------------------------------
# synthesis kernel sampling


def test_kernel_samples_are_in_kernel_and_submodules():
    frame = random_family_frame(2, 2, 4, seed=8)
    seqs = sample_synthesis_kernel(frame, 20, seed=1)
    assert seqs
    for seq in seqs:
        assert seq.norm() == pytest.approx(1.0, abs=1e-10)
        assert synthesis(frame, seq, membership_tol=None).norm() <= 1e-10
        for term, sub in zip(seq.terms, frame.submodules()):
            assert sub.contains(term)


def test_kernel_matches_independent_nullspace_oracle():
    frame = random_family_frame(2, 1, 3, seed=9)
    null_rows = oracles.synthesis_nullspace(frame)
    seqs = sample_synthesis_kernel(frame, 5, seed=2)
    assert (len(seqs) == 0) == (null_rows.shape[0] == 0)


def test_parseval_fusion_kernel_is_trivial():
    frame = fusion_decomposition_frame(2, 1, 2, seed=3)
    assert sample_synthesis_kernel(frame, 5, seed=0) == []
    assert kernel_invariance(frame, "cyclic") == (
        0, 0.0, True, ["synthesis kernel is trivial; the invariance check is vacuous"])


# ---------------------------------------------------------------------------
# norm bounds and kernel invariance


def test_unitary_orbit_passes_all_bound_checks():
    frame = unitary_orbit_frame(2, 2, 4, seed=11)
    rep = solve_representation(frame)
    report = check_representation_bounds(frame, rep, seed=0)
    assert report.lower_ok and report.upper_ok
    assert report.norm_T == pytest.approx(1.0, abs=1e-9)
    assert report.bound_upper == pytest.approx(1.0, abs=1e-9)
    assert report.kernel_ok and report.kernel_samples == KERNEL_SAMPLES == 100
    assert report.kernel_defect <= 1e-8


def test_constant_identity_family_passes_everything():
    # Y_xi = Id for every xi: Parseval up to the count, T = Id, norm one
    frame = _full_frame([ModuleOperator.identity(2, 1)] * 3, 2, 1, convention="cyclic")
    rep = solve_representation(frame)
    assert rep.residual <= 1e-12
    np.testing.assert_allclose(rep.operator_T.matrix, np.eye(2), atol=1e-12)
    report = check_representation_bounds(frame, rep, seed=0)
    assert report.norm_T == pytest.approx(1.0, abs=1e-10)
    assert report.lower_ok and report.upper_ok and report.kernel_ok


def test_commuting_orbit_satisfies_two_sided_bound():
    frame = commuting_orbit_frame(2, 2, 4, seed=12)
    rep = solve_representation(frame)
    report = check_representation_bounds(frame, rep, seed=0)
    lower, upper = frame_bounds(frame)
    assert report.bound_upper == pytest.approx(np.sqrt(upper / lower), rel=1e-12)
    assert report.bound_upper > 1.0 + 1e-6
    assert report.lower_ok and report.upper_ok and report.kernel_ok


def test_linear_dilation_fails_lower_bound_with_caveat():
    frame = dilation_frame(2, 1, 3, seed=0)
    rep = solve_representation(frame, "linear")
    report = check_representation_bounds(frame, rep, seed=0)
    # finite window: norm_T is the contraction c of Y_1 = c Id, below 1
    assert report.norm_T == pytest.approx(frame.operators[1][0, 0].real, abs=1e-10)
    assert not report.lower_ok
    assert report.upper_ok
    assert any("window" in c for c in report.caveats)


def test_bound_check_requires_hypotheses():
    rng = np.random.default_rng(13)
    ops = [ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 2, 1)
           for _ in range(2)]
    frame = _full_frame(ops, 2, 1)
    rep = solve_representation(frame)
    with pytest.raises(HypothesisViolation):
        check_representation_bounds(frame, rep)


def test_bound_check_requires_representability():
    frame = _orthogonal_projection_frame()
    rep = solve_representation(frame)
    with pytest.raises(NotRepresentable):
        check_representation_bounds(frame, rep)


# ---------------------------------------------------------------------------
# kernel invariance against the exact oracle and the reference sampler


def _graded_frame(convention):
    """Y_0 = A, Y_1 = P, Y_2 = P A^-1 P for a positive definite A and a
    rank-2 projection P: T = A^-1 P represents it exactly under the linear
    convention, and the ranks fall from 4 to 2.  Read cyclically, term 0 of
    a kernel element lies in N A^-1, so the wrap into N_2 = N leaves it."""
    rng = np.random.default_rng(31)
    sub = Submodule.from_basis_rows(rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)), 2, 2)
    p = sub.projection.matrix
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = b @ b.conj().T + np.eye(4)
    full = Submodule.full(2, 2)
    ops = [a, p, p @ np.linalg.inv(a) @ p]
    return GFusionFrame([(s, ModuleOperator((y + y.conj().T) / 2.0, 2, 2))
                         for s, y in zip([full, sub, sub], ops)], convention)


def _kernel_cases():
    cases = []
    for convention in ("linear", "cyclic"):
        for n, d, m in ((2, 1, 4), (2, 2, 4), (1, 2, 6)):
            for name, make in (("orbit", unitary_orbit_frame), ("dilation", dilation_frame)):
                base = make(n, d, m, seed=40 + m)
                cases.append((f"{name}-{n}-{d}-{m}-{convention}",
                              GFusionFrame(base.elements, convention)))
        cases.append((f"identity-{convention}",
                      _full_frame([ModuleOperator.identity(2, 1)] * 3, 2, 1, convention)))
        cases.append((f"graded-{convention}", _graded_frame(convention)))
    return cases


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _kernel_cases()])
def test_kernel_check_agrees_with_exact_oracle_and_reference_sampler(frame):
    membership, defect = oracles.exact_kernel_shift_defects(frame)
    if 1e-12 <= membership <= 1e-8 or 1e-10 <= defect <= 1e-6:
        pytest.skip(f"exact defects ({membership:.1e}, {defect:.1e}) too close to the cutoffs")
    exact_ok = membership < 1e-12 and defect < 1e-10
    drawn, kernel_defect, kernel_ok, _ = kernel_invariance(frame, frame.index_convention, seed=3)
    samples, ref_defect, ref_ok = oracles.reference_kernel_check(frame, 100, seed=3)
    assert kernel_ok == exact_ok == ref_ok
    assert drawn == samples == 100
    if membership >= 1e-12:
        assert kernel_defect == ref_defect == math.inf
    else:
        # a sampled defect never exceeds the supremum over the kernel
        assert kernel_defect <= defect * (1.0 + 1e-9) + 1e-15
        assert ref_defect <= defect * (1.0 + 1e-9) + 1e-15


def test_kernel_cases_cover_both_verdicts_and_the_membership_failure():
    verdicts = set()
    for _, frame in _kernel_cases():
        membership, defect = oracles.exact_kernel_shift_defects(frame)
        verdicts.add("leaves" if membership >= 1e-8 else "ok" if defect < 1e-10 else "fails")
    assert verdicts == {"ok", "fails", "leaves"}


@pytest.mark.parametrize("make", [unitary_orbit_frame, dilation_frame], ids=["orbit", "dilation"])
@pytest.mark.parametrize("convention", ["linear", "cyclic"])
def test_kernel_check_shifts_by_the_representation_convention(make, convention):
    """The kernel is shifted under the convention T was solved for, not the
    one the document carries (they differ under `represent --convention`)."""
    base = make(2, 2, 4, seed=3)
    own = GFusionFrame(base.elements, convention)
    membership, defect = oracles.exact_kernel_shift_defects(own)
    exact_ok = membership < 1e-12 and defect < 1e-10
    reports = []
    for document in ("linear", "cyclic"):
        frame = GFusionFrame(base.elements, document)
        rep = solve_representation(frame, convention)
        if not rep.is_representable():  # the dilation read cyclically
            with pytest.raises(NotRepresentable):
                check_representation_bounds(frame, rep)
            continue
        report = check_representation_bounds(frame, rep, seed=3)
        assert report.kernel_ok == exact_ok
        assert report.kernel_defect <= defect * (1.0 + 1e-9) + 1e-15
        reports.append(report)
    assert len({(r.kernel_defect, r.kernel_ok) for r in reports}) <= 1


def _line_frame(convention):
    """Y_0 = A positive definite on A^2 over M_2(C), and Y_1 = 2 P on a rank-1
    submodule: sum rank N_xi = n*d + 1 and M has rank n*d, so the kernel is
    one-dimensional and z z^H - (z Q)(z Q)^H cancels all but one direction
    of each row.  Read cyclically, term 0 moves into the line and leaves."""
    rng = np.random.default_rng(17)
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    line = Submodule.from_basis_rows(rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)),
                                     2, 2)
    return GFusionFrame([(Submodule.full(2, 2), ModuleOperator(b @ b.conj().T + np.eye(4), 2, 2)),
                         (line, ModuleOperator(2.0 * line.projection.matrix, 2, 2))], convention)


def _masked_frame(convention):
    """On C^4 (n = 4, d = 1): Y_0 = P_A on the full module, Y_1 = P_L on a
    line L in A and Y_2 = P_C on C, the complement of A.  No other member
    reaches C, so every kernel element has term 2 zero, and the linear
    shift keeps the kernel in the family although the leak block
    B_2 (I - P_1) is nonzero: only projected samples pass membership."""
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    plane, line, other = (Submodule.from_basis_rows(rows, 4, 1) for rows in (u[:2], u[:1], u[2:]))
    return GFusionFrame([(Submodule.full(4, 1), ModuleOperator(plane.projection.matrix, 4, 1)),
                         (line, ModuleOperator(line.projection.matrix, 4, 1)),
                         (other, ModuleOperator(other.projection.matrix, 4, 1))], convention)


def _reference_cases():
    """The kernel cases, the benchmark's wide and dense sizes, a family whose
    kernel is one-dimensional, and families on proper submodules: the
    graded frame's leak block B_2 (I - P_1) is nonzero at rounding level,
    the masked frame's is not but meets no kernel element, and a random
    family's shifted terms leave."""
    cases = list(_kernel_cases())
    for convention in ("linear", "cyclic"):
        for n, d, m in ((4, 4, 64), (16, 4, 4)):
            for name, make in (("orbit", unitary_orbit_frame), ("dilation", dilation_frame)):
                base = make(n, d, m, seed=7)
                cases.append((f"{name}-{n}-{d}-{m}-{convention}",
                              GFusionFrame(base.elements, convention)))
        base = random_family_frame(2, 2, 6, seed=1)
        cases.append((f"random-2-2-6-{convention}", GFusionFrame(base.elements, convention)))
        cases.append((f"line-2-2-{convention}", _line_frame(convention)))
        cases.append((f"masked-{convention}", _masked_frame(convention)))
    return cases


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _reference_cases()])
def test_kernel_check_matches_the_term_stack_reference(frame):
    drawn, defect, ok, _ = kernel_invariance(frame, frame.index_convention, seed=3)
    ref_drawn, ref_defect, ref_ok = oracles.term_stack_kernel_check(
        frame, frame.index_convention, seed=3)
    assert (drawn, ok) == (ref_drawn, ref_ok)
    if math.isinf(ref_defect):
        assert math.isinf(defect)
    else:
        # a passing defect is rounding left by cancellation, whose last bits
        # follow the summation order; hence the absolute floor
        assert defect == pytest.approx(ref_defect, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _reference_cases()])
def test_the_returned_kernel_samples_reproduce_the_check(frame):
    # one seeded stream: the samples that sample_synthesis_kernel returns,
    # shifted and synthesised, give the check's defect, or leave the family
    # where the check finds a shifted term outside its submodule
    drawn, defect, _, _ = kernel_invariance(frame, frame.index_convention, seed=3)
    seqs = sample_synthesis_kernel(frame, KERNEL_SAMPLES, seed=3)
    assert len(seqs) == drawn == KERNEL_SAMPLES
    if math.isinf(defect):
        # inf is the nesting verdict; the samples, being kernel elements,
        # leave the family exactly where some kernel element leaves
        if oracles.exact_kernel_shift_defects(frame)[0] > 1e-12:
            with pytest.raises(MembershipViolation):
                for seq in seqs:
                    right_shift(seq)
        else:
            for seq in seqs:
                right_shift(seq)
        return
    top = _kernel_row_basis(frame)[3]
    images = [synthesis(frame, right_shift(seq), membership_tol=None).norm() for seq in seqs]
    assert max(images) / top == pytest.approx(defect, rel=1e-12, abs=1e-14)


def test_reference_cases_cover_leaks_and_partial_chunks():
    names = dict(_reference_cases())
    leaving = names["random-2-2-6-cyclic"]
    assert kernel_invariance(leaving, "cyclic")[1] == math.inf
    graded = names["graded-linear"]
    rows = graded.submodules()[2].basis_rows
    leak = rows - rows @ graded.projections[1]
    assert leak.any() and math.isfinite(kernel_invariance(graded, "linear")[1])
    # (4, 4, 64) and (16, 4, 4) draw their samples in several chunks, the
    # last one partial
    for key in ("orbit-4-4-64-cyclic", "orbit-16-4-4-cyclic"):
        frame = names[key]
        total = sum(sub.basis_rows.shape[0] for sub in frame.submodules())
        chunk = KERNEL_CHUNK_BYTES // (16 * frame.d * total)
        assert 1 < chunk < KERNEL_SAMPLES and KERNEL_SAMPLES % chunk


def test_the_line_frame_has_a_one_dimensional_kernel():
    names = dict(_reference_cases())
    for convention in ("linear", "cyclic"):
        _, _, q, _ = _kernel_row_basis(names[f"line-2-2-{convention}"])
        assert q.shape == (5, 4)
    # the linear shift keeps the line's term in the full submodule, so the
    # defect is finite; the cyclic one moves term 0 out of the line
    assert 0.0 < kernel_invariance(names["line-2-2-linear"], "linear")[1] < math.inf
    assert kernel_invariance(names["line-2-2-cyclic"], "cyclic")[1] == math.inf


def test_the_masked_frame_leaks_only_outside_its_kernel():
    # member 2's submodule is not nested in member 1's line, yet no kernel
    # element leaves; outside the hypotheses the exact membership test
    # cannot see that and reports a leak, and Y_0 = P_A does not fix the
    # whole module, so the bound check, the one caller, refuses the frame
    frame = dict(_reference_cases())["masked-linear"]
    rows = frame.submodules()[2].basis_rows
    leak = rows - rows @ frame.projections[1]
    assert np.linalg.norm(leak, 2) > 0.5
    membership, defect = oracles.exact_kernel_shift_defects(frame)
    assert membership < 1e-12 and defect > 0.1
    drawn, defect, ok, caveats = kernel_invariance(frame, "linear", seed=3)
    assert (drawn, defect, ok) == (KERNEL_SAMPLES, math.inf, False)
    assert caveats == ["a shifted kernel element leaves the submodule family"]
    with pytest.raises(HypothesisViolation):
        check_representation_bounds(frame, solve_representation(frame))


def _theorem_cases():
    """The reference cases, and the corpus frames and every generator kind
    at small sizes, each under both conventions."""
    cases = list(_reference_cases())
    bases = [(path.stem, load_frame(path)) for path in sorted(CORPUS.glob("*.json"))
             if "elements" in json.loads(path.read_text())]
    bases += [(f"{kind}-{n}-{d}-{m}-{seed}", generate(kind, n, d, m, seed)) for kind in KINDS
              for n, d, m in ((2, 1, 2), (1, 2, 2), (2, 2, 3), (1, 3, 3), (2, 2, 4))
              for seed in range(3)]
    for name, base in bases:
        for convention in CONVENTIONS:
            cases.append((f"{name}-{convention}", GFusionFrame.from_stacks(
                base.projections, base.operators, base.n, base.d, convention)))
    return cases


def test_under_the_hypotheses_the_submodules_nest_and_nothing_leaves():
    # Y_t T = Y_b[t] with every Y self-adjoint with range N gives N_b[t]
    # inside N_t, which is what lets the kernel check decide membership from
    # the nesting blocks V_b[t] (I - P_t) alone
    blocks = {}
    for name, frame in _theorem_cases():
        if len(frame) < 2 or not (verify_hypotheses(frame)
                                  and solve_representation(frame).is_representable()):
            continue
        _, b = shift_pairs(len(frame), frame.index_convention)
        rows = [sub.basis_rows for sub in frame.submodules()]
        blocks[name] = max(np.linalg.norm(rows[xi] - rows[xi] @ frame.projections[t], 2)
                           for t, xi in enumerate(b))
        assert blocks[name] <= MEMBERSHIP_TOL, name
        assert oracles.exact_kernel_shift_defects(frame)[0] < 1e-12, name
    assert len(blocks) >= 60
    assert 0.0 < blocks["graded-linear"] < 1e-15


def calls_before(src: Path, callee: str) -> list:
    """(file, innermost def, names it calls earlier) of every call of
    `callee`, by name or as an attribute, in the source files."""
    found = []

    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    def visit(node, owner, name, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name, name, [])
                continue
            if isinstance(child, ast.Call):
                if called(child) == callee:
                    found.append((name, owner, list(calls)))
                calls.append(called(child))
            visit(child, owner, name, calls)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name, [])
    return found


def test_the_kernel_check_runs_only_behind_its_preconditions():
    # the exact membership verdict holds only for a representable family
    # that meets the hypotheses, so only the bound check may ask for it
    sites = calls_before(Path(represent.__file__).parent, "kernel_invariance")
    assert [site[:2] for site in sites] == [("represent.py", "check_representation_bounds")]
    assert {"verify_hypotheses", "_require_representable"} <= set(sites[0][2])


def test_the_caller_lint_sees_calls_in_order(tmp_path):
    (tmp_path / "sample.py").write_text(
        'def f(x):\n'
        '    if not g(x):\n'
        '        h(x)\n'
        '    return m.target(x, k(x))\n'
        'def n(x):\n'
        '    def inner():\n'
        '        return target(x)\n'
        '    return target(x)\n')
    assert calls_before(tmp_path, "target") == [("sample.py", "f", ["g", "h"]),
                                                ("sample.py", "inner", []),
                                                ("sample.py", "n", [])]


@pytest.mark.parametrize("frame", [pytest.param(frame, id=name) for name, frame in _reference_cases()
                                   if "-4-4-64-" in name or "-16-4-4-" in name])
def test_a_sampled_defect_never_exceeds_the_exact_one_at_the_benchmark_sizes(frame):
    membership, defect = oracles.exact_kernel_shift_defects(frame)
    drawn, kernel_defect, kernel_ok, _ = kernel_invariance(frame, frame.index_convention, seed=3)
    assert membership < 1e-12 and drawn == 100
    assert kernel_defect <= defect * (1.0 + 1e-9) + 1e-15
    assert kernel_ok == (defect < 1e-10)


def test_kernel_check_peak_stays_below_one_term_stack():
    """The check holds one chunk of row coordinates and M', never the
    (samples, m, d, n*d) term stack: 6.55 MB at n = d = 4, m = 64."""
    peaks = []
    for m in (64, 128):
        frame = unitary_orbit_frame(4, 4, m, seed=5)
        kernel_invariance(frame, "cyclic")
        tracemalloc.start()
        try:
            kernel_invariance(frame, "cyclic")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < KERNEL_SAMPLES * 64 * 4 * 16 * 16
    assert peaks[1] / peaks[0] < 1.6


def _rank_one_family(n, d, m, seed):
    """m random operators, each projected onto a random line: V has one row
    per member, so the (m, n*d, n*d) operator stack dwarfs it."""
    rng = np.random.default_rng(seed)
    nd = n * d
    lines = [random_unitary(rng, nd)[:1] for _ in range(m)]
    projections = np.stack([line.conj().T @ line for line in lines])
    gauss = rng.standard_normal((m, nd, nd)) + 1j * rng.standard_normal((m, nd, nd))
    return GFusionFrame.from_stacks(projections, gauss @ projections, n, d, "cyclic")


def test_the_kernel_basis_copies_no_operator_stack():
    # M = conj(conj(V) Y^T), conjugated in place: no conjugated copy of the
    # 4 MB (64, 64, 64) stack Y, whose copy set the peak at 4.06 MB
    frame = _rank_one_family(16, 4, 64, seed=1)
    vh, mask = frame.row_basis
    assert vh.shape == (64, 1, 64) and frame.operators.nbytes == 1 << 22
    tracemalloc.start()
    try:
        _, _, q, top = _kernel_row_basis(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # Q and ||M|| are those of the product with the conjugated copy, bit for bit
    u, s, _ = np.linalg.svd((vh @ frame.operators.conj().swapaxes(1, 2))[mask],
                            full_matrices=False)
    assert top == s[0] and q.shape == (64, 64) and q.tobytes() == u.tobytes()


def test_the_leak_test_holds_its_images_a_group_of_members_at_a_time():
    """Every member of a rank-one cyclic family leaks, so the nesting test
    on the packed row bases V returns inf before any sample is drawn.  It
    holds a few stacks the size of V, (m, r_max, n*d), and the SVD of M,
    which is as large when every rank is one: 4.1 V, 0.25 MiB."""
    frame = _rank_one_family(8, 4, 128, seed=1)
    vh = frame.row_basis[0]
    tracemalloc.start()
    try:
        result = kernel_invariance(frame, "cyclic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[:3] == (KERNEL_SAMPLES, math.inf, False)
    assert peak < 5 * vh.nbytes


def test_the_leak_test_pads_each_group_from_its_own_coordinates():
    """Member 0 on the whole module and 127 rank-one members, every one
    leaking: V is padded to the largest rank, (128, 32, 32), 2 MiB.  The
    nesting test returns inf before any sample is drawn, holding a few
    stacks the size of V at a time: 3.0 V, 6.08 MiB."""
    rank_one = _rank_one_family(8, 4, 128, seed=1)
    projections, operators = rank_one.projections.copy(), rank_one.operators.copy()
    projections[0] = np.eye(32)
    operators[0] = np.random.default_rng(2).standard_normal((32, 32))
    frame = GFusionFrame.from_stacks(projections, operators, 8, 4, "cyclic")
    vh, mask = frame.row_basis
    assert mask.sum() == 32 + 127
    tracemalloc.start()
    try:
        result = kernel_invariance(frame, "cyclic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[:3] == (KERNEL_SAMPLES, math.inf, False)
    assert peak < 4 * vh.nbytes


def test_kernel_check_memory_is_linear_in_m():
    peaks = []
    for m in (64, 128):
        frame = unitary_orbit_frame(4, 4, m, seed=5)  # n*d = 16
        rep = solve_representation(frame)
        tracemalloc.start()
        try:
            check_representation_bounds(frame, rep)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] < 2.5


def _line_events(files, run):
    """The number of line events in the source files `files` while `run()`
    executes."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


@pytest.mark.parametrize("convention", ["linear", "cyclic"])
@pytest.mark.parametrize("make", [unitary_orbit_frame, random_family_frame], ids=["orbit", "leaking"])
def test_the_shift_checks_run_no_python_line_per_member(make, convention):
    # the same lines run at m = 4 and m = 64: the packed row basis leaves no
    # Python loop over members in the solve, the hypotheses, the kernel
    # check or the kernel samples, on full submodules and on leaking ones
    files = {represent.__file__, frames.__file__}
    counts = []
    for m in (4, 64):
        frame = GFusionFrame(make(2, 2, m, seed=1).elements, convention)

        def run():
            solve_representation(frame)
            verify_hypotheses(frame)
            kernel_invariance(frame, convention)
            sample_synthesis_kernel(frame, 5, seed=1)
        counts.append(_line_events(files, run))
    assert counts[0] == counts[1] > 0


# ---------------------------------------------------------------------------
# tightness contradiction certificate


def test_certificate_on_unitary_orbit():
    frame = unitary_orbit_frame(2, 2, 4, seed=14)
    rep = solve_representation(frame)
    f = random_vector(np.random.default_rng(3), 2, 2)
    cert = tightness_contradiction_certificate(frame, rep, f)
    assert cert.isometry_ok and cert.norm_bounds_ok and cert.constant_norms_ok
    assert not cert.degenerate
    assert cert.window == 4  # upper bound m = 4, constant unit-ratio norms
    assert cert.ratio == pytest.approx(4.0, rel=1e-10)


def test_certificate_zero_vector_degenerate():
    frame = unitary_orbit_frame(2, 1, 4, seed=15)
    rep = solve_representation(frame)
    cert = tightness_contradiction_certificate(frame, rep, ModuleVector.zero(2, 1))
    assert cert.degenerate and cert.window is None


def test_certificate_rejects_non_tight_frames():
    frame = commuting_orbit_frame(2, 1, 4, seed=16)
    rep = solve_representation(frame)
    f = random_vector(np.random.default_rng(0), 2, 1)
    with pytest.raises(NotTight):
        tightness_contradiction_certificate(frame, rep, f)


def test_certificate_rejects_singular_representation():
    # (U, 0) is tight and representable only by the zero operator
    rng = np.random.default_rng(17)
    u = random_unitary(rng, 2)
    frame = _full_frame([ModuleOperator(u, 2, 1), ModuleOperator.zero(2, 1)], 2, 1)
    rep = solve_representation(frame, "linear")
    assert rep.is_representable()
    f = random_vector(rng, 2, 1)
    with pytest.raises(NotInvertible):
        tightness_contradiction_certificate(frame, rep, f)


def test_divergence_window_snaps_near_integers():
    assert divergence_window(4.0 + 4e-15, 1.0, 1.0) == 4
    assert divergence_window(4.0 - 4e-15, 1.0, 1.0) == 4
    assert divergence_window(4.3, 1.0, 1.0) == 5
    assert divergence_window(0.2, 1.0, 1.0) == 1


# ---------------------------------------------------------------------------
# independence


def test_orthogonal_projections_are_independent():
    report = independence_analysis(_orthogonal_projection_frame())
    assert report.verdict == "independent"
    assert report.invariant_span_dim == 2


def test_scaled_duplicate_is_dependent():
    rng = np.random.default_rng(18)
    y = ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 2, 1)
    frame = _full_frame([y, y * 2.0], 2, 1)
    report = independence_analysis(frame)
    assert report.verdict == "dependent"
    delta = report.coefficients
    assert np.max(np.abs(delta)) == pytest.approx(1.0, abs=1e-12)
    assert delta[0] / delta[1] == pytest.approx(-2.0, abs=1e-9)
    assert report.null_combination_norm <= 1e-10


def test_dilation_family_is_dependent_with_invariant_span():
    frame = dilation_frame(2, 1, 3, seed=0)
    rep = solve_representation(frame)
    report = independence_analysis(frame, rep=rep)
    assert report.verdict == "dependent"
    assert report.invariant_span_dim == 1
    inv = report.span_invariance
    assert inv is not None and inv.ok
    assert inv.max_defect <= 1e-8
    assert inv.max_defect_inverse is not None and inv.max_defect_inverse <= 1e-8


def test_orbit_family_invariance():
    frame = unitary_orbit_frame(2, 2, 4, seed=19)
    rep = solve_representation(frame)
    report = independence_analysis(frame, rep=rep)
    assert report.verdict == "dependent"  # members repeat with period two
    assert report.invariant_span_dim == 2
    assert report.span_invariance is not None and report.span_invariance.ok


def test_a_tied_dependency_pivots_on_its_first_tied_member():
    # Y_0 = Y_2: the dependency Y_0 - Y_2 has two entries of equal modulus,
    # and the pivot is the first of them, whichever of the two rounding
    # leaves larger
    for seed in range(8):
        rng = np.random.default_rng(seed)
        y0, y1 = (ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                                 2, 1) for _ in range(2))
        report = independence_analysis(_full_frame([y0, y1, y0], 2, 1))
        delta = report.coefficients
        assert delta[0] == 1.0
        assert abs(delta[1]) <= 1e-12 and abs(delta[2] + 1.0) <= 1e-12


def test_near_tied_moduli_pivot_on_the_first():
    assert _first_tied(np.array([1.0 - 1e-15, 1.0])) == 0
    assert _first_tied(np.array([0.5, 1.0 - 1e-15, 1.0])) == 1
    assert _first_tied(np.array([1.0 - 10 * TIE_TOL, 1.0])) == 1  # not a tie


def test_span_invariance_needs_a_representation():
    # T y = 2y and T (2y) = z cannot both hold for this z: the dependency
    # y - 2y/2 is reported, and no span is checked
    rng = np.random.default_rng(24)
    y, z = (ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 2, 1)
            for _ in range(2))
    frame = _full_frame([y, y * 2.0, z], 2, 1)
    rep = solve_representation(frame)
    assert not rep.is_representable()
    report = independence_analysis(frame, rep=rep)
    assert report.verdict == "dependent" and report.span_invariance is None
    assert span_invariance(frame, report.coefficients, rep) is None


def test_independence_agrees_with_gram_oracle():
    cases = []
    for seed in range(10):
        cases.append(random_family_frame(2, 1, 4, seed=seed))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        y = ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), 2, 1)
        cases.append(_full_frame([y, y * (0.5 + seed)], 2, 1))
    for frame in cases:
        verdict = independence_analysis(frame).verdict == "independent"
        oracle = oracles.gram_independent([e.operator.matrix for e in frame.elements])
        assert verdict == oracle


# ---------------------------------------------------------------------------
# shifted reconstruction identity


def test_identity_family_satisfies_shift_identity():
    frame = _full_frame([ModuleOperator.identity(2, 1)] * 3, 2, 1, convention="cyclic")
    dual = canonical_dual(frame)
    ext = ModuleOperator.identity(2, 1)
    assert verify_shift_reconstruction_identity(frame, dual, ext, j=0)


def test_orbit_family_satisfies_shift_identity():
    frame = unitary_orbit_frame(2, 2, 4, seed=20)
    dual = canonical_dual(frame)
    ext = solve_adjoint_shift_extension(frame)
    for j in range(4):
        assert verify_shift_reconstruction_identity(frame, dual, ext, j=j)


def test_shift_identity_rejects_j_outside_the_cyclic_range():
    frame = unitary_orbit_frame(2, 2, 4, seed=20)
    assert frame.index_convention == "cyclic"
    dual = canonical_dual(frame)
    ext = solve_adjoint_shift_extension(frame)
    for j in (-1, 4):
        with pytest.raises(ValueError, match=r"j must lie in \[0, 3\] for the cyclic convention"):
            verify_shift_reconstruction_identity(frame, dual, ext, j=j)


def test_a_one_member_linear_family_has_no_adjoint_shift_to_solve():
    # the linear shift of one member has no slot (k = 0), where the solve
    # returned the zero operator; read cyclically, the member shifts to itself
    with pytest.raises(DegenerateSpan, match="^the linear shift of one member has no slot$"):
        solve_adjoint_shift_extension(_full_frame([ModuleOperator.identity(2, 1)], 2, 1))
    cyclic = _full_frame([ModuleOperator.identity(2, 1)], 2, 1, "cyclic")
    assert np.allclose(solve_adjoint_shift_extension(cyclic).matrix, np.eye(2))


@pytest.mark.parametrize("j", [-1, 0])
def test_a_one_member_linear_family_has_no_shift_identity_to_check(j):
    frame = _full_frame([ModuleOperator.identity(2, 1)], 2, 1)
    with pytest.raises(DegenerateSpan, match="^the linear shift of one member has no slot$"):
        verify_shift_reconstruction_identity(frame, canonical_dual(frame),
                                             ModuleOperator.identity(2, 1), j=j)


def test_mismatched_dual_fails_shift_identity():
    frame = unitary_orbit_frame(2, 2, 4, seed=21)
    dual = canonical_dual(frame)
    elements = list(dual.elements)
    elements[0] = (elements[0].submodule, dual.elements[1].operator)
    elements[1] = (elements[1].submodule, dual.elements[0].operator)
    swapped = GFusionFrame(elements, dual.index_convention)
    ext = solve_adjoint_shift_extension(frame)
    assert not verify_shift_reconstruction_identity(frame, swapped, ext, j=0)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("make,representable", [
    (unitary_orbit_frame, lambda m: {"linear"} | ({"cyclic"} if m % 2 == 0 else set())),
    (dilation_frame, lambda m: {"linear"}),
], ids=["orbit", "dilation"])
def test_right_shift_of_an_analysis_is_its_product_with_t(make, representable, m):
    """T Y_xi = Y_{xi+1} read on the analysis of a vector f: under every
    convention that represents the family, slot i < k of the right shift
    of {f Y_xi} is f Y_i T, and the slots from k on are exactly 0.  The
    orbit of a self-adjoint unitary alternates, so only an even one wraps."""
    base = make(2, 2, m, seed=m)
    f = random_vector(np.random.default_rng(m), 2, 2)
    checked = set()
    for convention in CONVENTIONS:
        frame = GFusionFrame(base.elements, convention)
        rep = solve_representation(frame)
        if not rep.is_representable():
            continue
        k, _ = shift_pairs(m, convention)
        seq = analysis(frame, f)
        shifted = right_shift(seq).flats
        scale = 1e-12 * f.norm() * frame.max_operator_norm()
        np.testing.assert_allclose(shifted[:k], seq.flats[:k] @ rep.operator_T.matrix, rtol=0, atol=scale)
        assert not shifted[k:].any()
        checked.add(convention)
    assert checked == representable(m)


def test_shift_identity_refuses_a_dual_of_another_shape_as_a_shape_error():
    frame = unitary_orbit_frame(2, 2, 4, seed=21)
    extension = solve_adjoint_shift_extension(frame)
    with pytest.raises(LengthMismatch, match="families have different lengths"):
        verify_shift_reconstruction_identity(
            frame, canonical_dual(unitary_orbit_frame(2, 2, 3, seed=21)), extension, j=0)
    with pytest.raises(DimensionMismatch, match=r"families have different \(n, d\)"):
        verify_shift_reconstruction_identity(
            frame, canonical_dual(unitary_orbit_frame(4, 1, 4, seed=21)), extension, j=0)


def test_wrong_extension_raises():
    frame = unitary_orbit_frame(2, 2, 4, seed=22)
    dual = canonical_dual(frame)
    with pytest.raises(HypothesisViolation):
        verify_shift_reconstruction_identity(frame, dual, ModuleOperator.identity(2, 2), j=0)
