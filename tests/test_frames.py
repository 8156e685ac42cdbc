import json
from pathlib import Path

import numpy as np
import pytest

from gframemod import frames
from gframemod.exceptions import (
    LengthMismatch,
    MembershipViolation,
    NonpositiveWeight,
    NotAFrame,
)
from gframemod.algebra import psd_leq
from gframemod.families import (
    fusion_decomposition_frame,
    random_frame,
    random_vector,
    unitary_orbit_frame,
)
from gframemod.frames import (
    GFusionFrame,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    fusion_frame,
    is_tight,
    reconstruction_residual,
    synthesis,
    verify_dual,
)
from gframemod.hilbert import (
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    apply,
    inner_product,
    operator_adjoint,
    right_shift,
    row_bases,
    sequence_inner_product,
    submodule_from_generators,
)
from gframemod.cli import main
from gframemod.numerics import CONTAINMENT_TOL
from gframemod.serialize import dumps_canonical, frame_to_document, load_frame

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _identity_frame(n, d, ops):
    full = Submodule(ModuleOperator.identity(n, d))
    return GFusionFrame([(full, op) for op in ops], "linear")


def _orthogonal_pair():
    p0 = Submodule(ModuleOperator(np.diag([1.0, 0.0]).astype(complex), 2, 1))
    p1 = Submodule(ModuleOperator(np.diag([0.0, 1.0]).astype(complex), 2, 1))
    return p0, p1


# ---------------------------------------------------------------------------
# frame operator and bounds


def test_frame_operator_single_identity():
    frame = _identity_frame(2, 1, [ModuleOperator.identity(2, 1)])
    np.testing.assert_allclose(frame_operator(frame).matrix, np.eye(2), atol=1e-12)


def test_frame_operator_parseval_fusion():
    p0, p1 = _orthogonal_pair()
    frame = fusion_frame([p0, p1], [1.0, 1.0])
    np.testing.assert_allclose(frame_operator(frame).matrix, np.eye(2), atol=1e-12)


def test_frame_operator_termwise_sum(rng):
    frame = random_frame(2, 2, 3, seed=5)
    s = frame_operator(frame)
    for _ in range(20):
        f = random_vector(rng, 2, 2)
        lhs = inner_product(apply(s, f), f)
        rhs = sum(inner_product(apply(e.operator, f), apply(e.operator, f))
                  for e in frame.elements)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * (1 + np.linalg.norm(rhs, 2))


def test_frame_operator_self_adjoint_positive():
    frame = random_frame(3, 1, 4, seed=6)
    s = frame_operator(frame)
    assert np.linalg.norm(s.matrix - operator_adjoint(s).matrix, 2) <= 1e-11
    assert psd_leq(np.zeros_like(s.matrix), s.matrix, 1e-10)


def test_bounds_parseval():
    p0, p1 = _orthogonal_pair()
    lower, upper = frame_bounds(fusion_frame([p0, p1], [1.0, 1.0]))
    assert lower == pytest.approx(1.0, abs=1e-12)
    assert upper == pytest.approx(1.0, abs=1e-12)


def test_bounds_identity_and_half():
    frame = _identity_frame(2, 1, [ModuleOperator.identity(2, 1),
                                   ModuleOperator.identity(2, 1) * 0.5])
    lower, upper = frame_bounds(frame)
    assert lower == pytest.approx(1.25, abs=1e-12)
    assert upper == pytest.approx(1.25, abs=1e-12)


def test_bounds_sampled_psd_ordering(rng):
    frame = random_frame(2, 2, 3, seed=9)
    lower, upper = frame_bounds(frame)
    s = frame_operator(frame)
    for _ in range(200):
        f = random_vector(rng, 2, 2)
        gram = inner_product(f, f)
        sf = inner_product(apply(s, f), f)
        sf = (sf + sf.conj().T) / 2
        assert psd_leq(lower * gram, sf, 1e-9)
        assert psd_leq(sf, upper * gram, 1e-9)


def test_bounds_optimality_witnesses():
    frame = random_frame(2, 2, 3, seed=10)
    lower, upper = frame_bounds(frame)
    s_mat = frame_operator(frame).matrix
    eigvals, eigvecs = np.linalg.eigh(s_mat)
    nd = frame.n * frame.d
    for which, eps_bound in ((0, lower), (-1, upper)):
        flat = np.zeros((frame.d, nd), dtype=complex)
        flat[0] = eigvecs[:, which].conj()
        f = ModuleVector(flat, frame.n, frame.d)
        gram = inner_product(f, f)
        sf = inner_product(apply(frame_operator(frame), f), f)
        sf = (sf + sf.conj().T) / 2
        if which == 0:
            assert not psd_leq((lower + 1e-6 * lower) * gram, sf, 1e-9)
        else:
            assert not psd_leq(sf, (upper - 1e-6 * upper) * gram, 1e-9)


def test_single_proper_submodule_is_not_a_frame():
    sub = submodule_from_generators([ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)])
    with pytest.raises(NotAFrame):
        frame_bounds(fusion_frame([sub], [1.0]))


def test_fusion_frame_closed_form_bounds():
    e1 = ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)
    diag = ModuleVector(np.array([[1.0 + 0j, 1.0]]) / np.sqrt(2.0), 2, 1)
    frame = fusion_frame([submodule_from_generators([e1]),
                          submodule_from_generators([diag])], [1.0, 1.0])
    lower, upper = frame_bounds(frame)
    assert lower == pytest.approx(1 - 1 / np.sqrt(2), abs=1e-12)
    assert upper == pytest.approx(1 + 1 / np.sqrt(2), abs=1e-12)


def test_fusion_frame_rejects_nonpositive_weights():
    p0, p1 = _orthogonal_pair()
    with pytest.raises(NonpositiveWeight):
        fusion_frame([p0, p1], [1.0, 0.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_scalars_are_rejected_where_they_enter(value):
    # no containment check runs on a derived frame, so these would build
    # NaN frames silently
    p0, p1 = _orthogonal_pair()
    with pytest.raises(NonpositiveWeight, match="^weights must be positive and finite, got "):
        fusion_frame([p0, p1], [1.0, value])
    frame = fusion_frame([p0, p1], [1.0, 2.0])
    for scalar in (value, complex(1.0, value)):
        with pytest.raises(ValueError, match="^scale factor must be finite, got "):
            frame.scaled(scalar)


def test_frame_rejects_range_violation():
    p0, _ = _orthogonal_pair()
    off_range = ModuleOperator(np.diag([0.0, 1.0]).astype(complex), 2, 1)
    with pytest.raises(MembershipViolation):
        GFusionFrame([(p0, off_range)])


def test_violation_names_the_first_offending_element():
    p0, p1 = _orthogonal_pair()
    inside = ModuleOperator(np.diag([2.0, 0.0]).astype(complex), 2, 1)
    off_range = ModuleOperator(np.diag([0.0, 1.0]).astype(complex), 2, 1)
    with pytest.raises(MembershipViolation, match="element 1:"):
        GFusionFrame([(p0, inside), (p0, off_range), (p1, inside)])


def _magnifying_frame():
    """n=2, d=2: (full, Id), then (a rank-2 submodule N, Y) with Y = G P
    plus 1e-9 ||G P|| x w, w a unit row outside N and x a unit column that
    (G P)^H annihilates.  S^-1 x = x while S^-1 shrinks G P by its squared
    singular values, so the dual's member 1 carries a relative defect many
    times Y's."""
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0].T
    plane = Submodule.from_basis_rows(basis[:2], 2, 2)
    inside = 4.0 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    inside = inside @ plane.projection.matrix
    column = np.linalg.svd(inside)[0][:, -1:]  # (G P)^H x = 0
    y = inside + 1e-9 * np.linalg.norm(inside, 2) * column @ basis[3:]
    full = Submodule.full(2, 2)
    return GFusionFrame([(full, full.projection), (plane, ModuleOperator(y, 2, 2))])


def test_a_dual_inherits_the_containment_of_its_frame(tmp_path, capsys):
    frame = _magnifying_frame()
    dual = canonical_dual(frame)
    assert verify_dual(frame, dual)
    # the dual's member 1 is outside CONTAINMENT_TOL ||G_1|| by rounding, and
    # a second check of the dual would reject what the frame's accepted
    norms = np.linalg.norm(dual.operators, 2, axis=(1, 2))
    assert not frames.contained(dual.operators, dual.projections, CONTAINMENT_TOL * norms)[1]
    path = tmp_path / "magnified.json"
    path.write_text(dumps_canonical(frame_to_document(frame)))
    assert main(["analyze", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["dual"]["verified"] is True


def test_containment_is_checked_where_data_enters(monkeypatch):
    calls = []
    _counting(monkeypatch, frames, "contained", calls)
    frame = load_frame(CORPUS / "unitary_orbit_m4.json")  # from_stacks
    assert calls
    p0, p1 = _orthogonal_pair()
    calls.clear()
    GFusionFrame([(p0, p0.projection), (p1, p1.projection)])
    assert calls
    calls.clear()
    canonical_dual(frame)
    frame.scaled(2.0)
    fusion_frame([p0, p1], [1.0, 2.0])
    assert calls == []


def test_stacks_match_the_elements():
    frame = random_frame(2, 2, 5, seed=4)
    assert frame.operators.shape == frame.projections.shape == (5, 4, 4)
    for k, (sub, op) in enumerate(frame.elements):
        assert np.array_equal(frame.operators[k], op.matrix)
        assert np.array_equal(frame.projections[k], sub.projection.matrix)
    # the batched norms equal the per-element ones bit for bit
    assert frame.max_operator_norm() == max(np.linalg.norm(op.matrix, 2) for _, op in frame.elements)
    with pytest.raises(ValueError):
        frame.operators[0, 0, 0] = 1.0


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("document", ["unitary_orbit_m4.json", "fusion_parseval_m2.json"])
def test_bases_and_norms_are_factored_once_on_first_use(monkeypatch, document):
    calls = []
    _counting(monkeypatch, frames, "row_bases", calls)
    _counting(monkeypatch, np.linalg, "norm", calls)
    frame = load_frame(CORPUS / document)
    assert calls == [] and frame._row_basis == [None] and frame._norms is None
    # the lazy results are the eager formulas' bit for bit, and read-only
    pair = frame.row_basis
    vh, mask = pair
    eager_vh, eager_mask = row_bases(frame.projections)
    # V is cut to the largest rank: no row is zero in every member
    assert vh.shape == (len(frame), mask.sum(1).max(), frame.n * frame.d)
    assert mask.shape == vh.shape[:2]
    assert vh.tobytes() == eager_vh.tobytes() and np.array_equal(mask, eager_mask)
    assert not vh.flags.writeable and not mask.flags.writeable
    norms = frame._operator_norms
    assert norms.tobytes() == np.linalg.norm(frame.operators, 2, axis=(1, 2)).tobytes()
    assert not norms.flags.writeable
    assert calls == ["row_bases", "norm", "norm"]  # the last is the reference's
    # later reads reuse them
    calls.clear()
    assert frame.row_basis is pair and frame._operator_norms is norms
    assert frame.max_operator_norm() == float(norms.max())
    subs = frame.submodules()
    assert calls == []
    # the packed rows are the per-member bases stacked, bit for bit, and
    # each submodule reads its rows from the packed array, read-only
    one_by_one = [Submodule(ModuleOperator(q, frame.n, frame.d)).basis_rows for q in frame.projections]
    assert vh[mask].tobytes() == np.vstack(one_by_one).tobytes()
    assert mask.sum(1).tolist() == [rows.shape[0] for rows in one_by_one]
    assert not vh[~mask].any()
    for sub, rows in zip(subs, one_by_one):
        assert sub.basis_rows.tobytes() == rows.tobytes() and np.shares_memory(sub.basis_rows, vh)
        assert not sub.basis_rows.flags.writeable


def test_derived_frames_share_the_row_bases():
    calls = []
    frame = load_frame(CORPUS / "unitary_orbit_m4.json")
    with pytest.MonkeyPatch.context() as patch:
        _counting(patch, frames, "row_bases", calls)
        # derived before the parent reads them: one SVD serves every frame
        scaled, dual = frame.scaled(2.0), canonical_dual(frame)
        assert calls == []
        pair = dual.row_basis
        assert scaled.row_basis is pair and frame.row_basis is pair
        assert frame.scaled(3.0).row_basis is pair and canonical_dual(scaled).row_basis is pair
        assert calls == ["row_bases"]
    # the norms are each frame's own
    np.testing.assert_allclose(scaled._operator_norms, 2.0 * frame._operator_norms, rtol=1e-14)


# ---------------------------------------------------------------------------
# tightness


def test_parseval_is_tight():
    p0, p1 = _orthogonal_pair()
    assert is_tight(fusion_frame([p0, p1], [1.0, 1.0]))


def test_unbalanced_diagonal_pair_is_not_tight():
    frame = _identity_frame(2, 1, [
        ModuleOperator(np.diag([1.0, 0.0]).astype(complex), 2, 1),
        ModuleOperator(np.diag([0.0, 2.0]).astype(complex), 2, 1),
    ])
    lower, upper = frame_bounds(frame)
    assert (lower, upper) == (pytest.approx(1.0), pytest.approx(4.0))
    assert not is_tight(frame)


def test_tightness_invariant_under_scaling():
    frame = unitary_orbit_frame(2, 2, 4, seed=1)
    assert is_tight(frame)
    scaled = frame.scaled(3.7)
    assert is_tight(scaled)
    lower, upper = frame_bounds(frame)
    slower, supper = frame_bounds(scaled)
    assert slower == pytest.approx(3.7**2 * lower, rel=1e-12)
    assert supper == pytest.approx(3.7**2 * upper, rel=1e-12)


# ---------------------------------------------------------------------------
# synthesis / analysis


def test_synthesis_zero_sequence():
    frame = fusion_decomposition_frame(2, 1, 2, seed=0)
    seq = ModuleSequence([ModuleVector.zero(2, 1)] * 2, "linear")
    assert synthesis(frame, seq).norm() == 0.0


def test_synthesis_single_identity_element(rng):
    frame = _identity_frame(2, 2, [ModuleOperator.identity(2, 2)])
    f = random_vector(rng, 2, 2)
    seq = ModuleSequence([f], "linear")
    np.testing.assert_allclose(synthesis(frame, seq).flat, f.flat, atol=1e-12)


def test_synthesis_analysis_adjoint_pairing(rng):
    frame = random_frame(2, 2, 3, seed=12)
    for _ in range(10):
        g = random_vector(rng, 2, 2)
        seq = analysis(frame, random_vector(rng, 2, 2))
        lhs = inner_product(synthesis(frame, seq), g)
        rhs = sequence_inner_product(seq, analysis(frame, g))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * (1 + np.linalg.norm(rhs, 2))


def test_synthesis_after_analysis_is_frame_operator(rng):
    frame = random_frame(3, 1, 4, seed=13)
    s = frame_operator(frame)
    for _ in range(10):
        f = random_vector(rng, 3, 1)
        lhs = synthesis(frame, analysis(frame, f))
        rhs = apply(s, f)
        assert (lhs - rhs).norm() <= 1e-10 * (1 + rhs.norm())


def test_parseval_analysis_synthesis_is_identity(rng):
    frame = fusion_decomposition_frame(2, 2, 3, seed=4)
    for _ in range(10):
        f = random_vector(rng, 2, 2)
        rebuilt = synthesis(frame, analysis(frame, f))
        assert (rebuilt - f).norm() <= 1e-10 * (1 + f.norm())


def test_analysis_terms_live_in_submodules():
    frame = random_frame(2, 2, 3, seed=14)
    f = random_vector(np.random.default_rng(3), 2, 2)
    seq = analysis(frame, f)
    for term, sub in zip(seq.terms, frame.submodules()):
        assert sub.contains(term)


def test_stacked_sequences_match_the_per_term_loops(rng):
    # the per-term loops that the stacks replaced are the reference
    frame = random_frame(2, 2, 4, seed=15)
    f, g = random_vector(rng, 2, 2), random_vector(rng, 2, 2)
    seq, other = analysis(frame, f), analysis(frame, g)
    for term, (_, op) in zip(seq.terms, frame.elements):
        np.testing.assert_array_equal(term.flat, apply(op, f).flat)
    np.testing.assert_allclose(sequence_inner_product(seq, other),
                               sum(inner_product(a, b) for a, b in zip(seq.terms, other.terms)),
                               rtol=0, atol=1e-13 * seq.norm() * other.norm())
    free = ModuleSequence([random_vector(rng, 2, 2) for _ in range(4)], "cyclic", frame.submodules())
    with pytest.raises(MembershipViolation):
        right_shift(free)


def test_synthesis_length_and_membership_errors(rng):
    frame = fusion_decomposition_frame(2, 1, 2, seed=1)
    with pytest.raises(LengthMismatch):
        synthesis(frame, ModuleSequence([ModuleVector.zero(2, 1)], "linear"))
    outsider = random_vector(rng, 2, 1)
    seq = ModuleSequence([outsider, outsider], "linear")
    with pytest.raises(MembershipViolation):
        synthesis(frame, seq)


# ---------------------------------------------------------------------------
# canonical dual


def test_canonical_dual_of_parseval_is_itself():
    p0, p1 = _orthogonal_pair()
    frame = fusion_frame([p0, p1], [1.0, 1.0])
    dual = canonical_dual(frame)
    for e, de in zip(frame.elements, dual.elements):
        np.testing.assert_allclose(de.operator.matrix, e.operator.matrix, atol=1e-12)


def test_canonical_dual_identity_and_half():
    frame = _identity_frame(2, 1, [ModuleOperator.identity(2, 1),
                                   ModuleOperator.identity(2, 1) * 0.5])
    dual = canonical_dual(frame)
    np.testing.assert_allclose(dual.elements[0].operator.matrix, 0.8 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(dual.elements[1].operator.matrix, 0.4 * np.eye(2), atol=1e-12)


def test_canonical_dual_reconstruction(rng):
    frame = random_frame(2, 2, 3, seed=15)
    dual = canonical_dual(frame)
    assert reconstruction_residual(frame, dual) <= 1e-10
    for _ in range(50):
        f = random_vector(rng, 2, 2)
        rebuilt = synthesis(frame, analysis(dual, f), membership_tol=None)
        assert (rebuilt - f).norm() <= 1e-8 * f.norm()


def test_canonical_dual_refuses_singular_frame():
    sub = submodule_from_generators([ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)])
    with pytest.raises(NotAFrame):
        canonical_dual(fusion_frame([sub], [1.0]))


def test_verify_dual():
    frame = random_frame(2, 1, 3, seed=16)
    dual = canonical_dual(frame)
    assert verify_dual(frame, dual)
    assert not verify_dual(frame, frame)  # non-Parseval frame is not its own dual
    parseval = fusion_frame(list(_orthogonal_pair()), [1.0, 1.0])
    assert verify_dual(parseval, parseval)


def test_verify_dual_length_mismatch():
    frame = random_frame(2, 1, 3, seed=17)
    other = random_frame(2, 1, 2, seed=17)
    with pytest.raises(LengthMismatch):
        verify_dual(frame, other)
