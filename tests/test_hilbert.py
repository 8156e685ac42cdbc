import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gframemod.exceptions import DimensionMismatch, LengthMismatch, MembershipViolation
from gframemod.families import random_frame
from gframemod.frames import (
    GFusionFrame,
    analysis,
    reconstruction_residual,
    synthesis,
    verify_dual,
)
from gframemod.hilbert import (
    CONVENTIONS,
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    applied,
    apply,
    compose,
    contained,
    gram_sum,
    inner_product,
    null_combinations,
    operator_adjoint,
    orthonormal_rows,
    projection_fault,
    right_shift,
    row_bases,
    sequence_inner_product,
    shift_pairs,
    span_of_submodules,
    submodule_from_generators,
)
from gframemod.numerics import MEMBERSHIP_TOL, PROJECTION_TOL, spectral_norms
from gframemod.perturb import (
    PerturbationParams,
    check_perturbation_inequality,
    independence_transfer,
    verify_perturbed_frame,
)
from gframemod.represent import solve_adjoint_shift_extension, verify_shift_reconstruction_identity

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "gframemod"

def random_vector(rng, n, d):
    return ModuleVector(rng.standard_normal((d, n * d)) + 1j * rng.standard_normal((d, n * d)), n, d)


def random_operator(rng, n, d):
    nd = n * d
    return ModuleOperator(rng.standard_normal((nd, nd)) + 1j * rng.standard_normal((nd, nd)), n, d)


# ---------------------------------------------------------------------------
# inner product


def test_inner_product_basis_blocks():
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    f = ModuleVector.from_components([eye, zero])
    np.testing.assert_allclose(inner_product(f, f), eye)


def test_inner_product_disjoint_supports():
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    f = ModuleVector.from_components([eye, zero])
    g = ModuleVector.from_components([zero, eye])
    np.testing.assert_allclose(inner_product(f, g), zero)


def test_inner_product_conjugate_symmetry(rng):
    f, g = random_vector(rng, 3, 2), random_vector(rng, 3, 2)
    np.testing.assert_allclose(inner_product(f, g), inner_product(g, f).conj().T, atol=1e-12)


def test_inner_product_algebra_linearity(rng):
    f, v, w = (random_vector(rng, 2, 2) for _ in range(3))
    eta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lhs = inner_product(ModuleVector(eta @ f.flat, 2, 2) + v, w)  # eta . f + v
    rhs = eta @ inner_product(f, w) + inner_product(v, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_norm_matches_stacked_flatten_oracle(rng):
    for _ in range(25):
        f = random_vector(rng, 3, 2)
        assert f.norm() == pytest.approx(oracles.vector_norm(f), abs=1e-10)


def test_norm_zero_iff_zero(rng):
    assert ModuleVector.zero(2, 2).norm() == 0.0
    assert random_vector(rng, 2, 2).norm() > 0.0


def test_cauchy_schwarz_surrogate(rng):
    for _ in range(50):
        f, g = random_vector(rng, 2, 3), random_vector(rng, 2, 3)
        assert np.linalg.norm(inner_product(f, g), 2) <= f.norm() * g.norm() + 1e-10


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner_product(ModuleVector.zero(2, 2), ModuleVector.zero(3, 2))


# ---------------------------------------------------------------------------
# operators


def test_apply_identity_and_zero(rng):
    f = random_vector(rng, 2, 2)
    np.testing.assert_array_equal(apply(ModuleOperator.identity(2, 2), f).flat, f.flat)
    assert apply(ModuleOperator.zero(2, 2), f).norm() == 0.0


def test_apply_matches_blockwise_oracle(rng):
    op, f = random_operator(rng, 3, 2), random_vector(rng, 3, 2)
    result = apply(op, f)
    for j, block in enumerate(oracles.apply_blockwise(op, f)):
        np.testing.assert_allclose(result.component(j), block, atol=1e-12)


def test_apply_is_algebra_linear(rng):
    op, f = random_operator(rng, 2, 3), random_vector(rng, 2, 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lhs = apply(op, ModuleVector(a @ f.flat, 2, 3))
    rhs = ModuleVector(a @ apply(op, f).flat, 2, 3)
    assert (lhs - rhs).norm() <= 1e-11 * (1 + rhs.norm())


def test_compose_identities(rng):
    t = random_operator(rng, 2, 2)
    eye = ModuleOperator.identity(2, 2)
    np.testing.assert_array_equal(compose(eye, t).matrix, t.matrix)
    assert compose(t, ModuleOperator.zero(2, 2)).norm() == 0.0


def test_compose_defining_identity(rng):
    s, t, f = random_operator(rng, 2, 3), random_operator(rng, 2, 3), random_vector(rng, 2, 3)
    lhs = apply(compose(s, t), f)
    rhs = apply(s, apply(t, f))
    assert (lhs - rhs).norm() <= 1e-11 * (1 + rhs.norm())


def test_adjoint_of_projection_is_itself():
    q = np.diag([1.0, 0.0]).astype(complex)
    p = ModuleOperator(q, 2, 1)
    np.testing.assert_array_equal(operator_adjoint(p).matrix, p.matrix)


def test_adjoint_involution(rng):
    op = random_operator(rng, 3, 2)
    np.testing.assert_array_equal(operator_adjoint(operator_adjoint(op)).matrix, op.matrix)


def test_adjoint_pairing(rng):
    for _ in range(20):
        op = random_operator(rng, 2, 2)
        f, g = random_vector(rng, 2, 2), random_vector(rng, 2, 2)
        lhs = inner_product(apply(op, f), g)
        rhs = inner_product(f, apply(operator_adjoint(op), g))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-11 * (1 + np.linalg.norm(rhs, 2))


def test_adjoint_blocks_convention(rng):
    op = random_operator(rng, 2, 2)
    adj = operator_adjoint(op)
    for i in range(2):
        for j in range(2):
            np.testing.assert_array_equal(adj.matrix[2 * i:2 * i + 2, 2 * j:2 * j + 2],
                                          op.matrix[2 * j:2 * j + 2, 2 * i:2 * i + 2].conj().T)


def test_adjoint_reverses_composition(rng):
    s, t = random_operator(rng, 2, 2), random_operator(rng, 2, 2)
    lhs = operator_adjoint(compose(s, t))
    rhs = compose(operator_adjoint(t), operator_adjoint(s))
    assert (lhs - rhs).norm() <= 1e-11 * (1 + rhs.norm())


def test_operator_norm_trivials():
    assert ModuleOperator.identity(2, 3).norm() == pytest.approx(1.0)
    assert (ModuleOperator.identity(2, 3) * 3.0).norm() == pytest.approx(3.0)


def test_operator_norm_rayleigh_oracle(rng):
    op = random_operator(rng, 2, 2)
    norm = op.norm()
    assert oracles.rayleigh_norm(op, rng, trials=1000) <= norm + 1e-8
    # the bound is attained at a rank-one vector built from the top singular pair
    u, _, _ = np.linalg.svd(op.matrix)
    flat = np.zeros((2, 4), dtype=complex)
    flat[0] = u[:, 0].conj()
    f = ModuleVector(flat, 2, 2)
    assert apply(op, f).norm() / f.norm() == pytest.approx(norm, abs=1e-10)


# ---------------------------------------------------------------------------
# submodules


def test_submodule_from_single_generator():
    f = ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)
    sub = submodule_from_generators([f])
    np.testing.assert_allclose(sub.projection.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert sub.rank == 1


def test_submodule_spanning_everything(rng):
    gens = [random_vector(rng, 2, 2) for _ in range(4)]
    sub = submodule_from_generators(gens)
    np.testing.assert_allclose(sub.projection.matrix, np.eye(4), atol=1e-10)


def test_submodule_fixes_generators_and_algebra_orbit(rng):
    gens = [random_vector(rng, 3, 2) for _ in range(2)]
    sub = submodule_from_generators(gens)
    for g in gens:
        assert (apply(sub.projection, g) - g).norm() <= 1e-10 * (1 + g.norm())
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        orbit = ModuleVector(a @ g.flat, 3, 2)
        assert (apply(sub.projection, orbit) - orbit).norm() <= 1e-10 * (1 + orbit.norm())


def test_submodule_rejects_non_projection():
    with pytest.raises(ValueError):
        Submodule(ModuleOperator(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 2, 1))


def _projection_stack(rng, n, d, ranks):
    nd = n * d
    out = []
    for r in ranks:
        rows = orthonormal_rows(rng.standard_normal((r, nd)) + 1j * rng.standard_normal((r, nd)))
        out.append(rows.conj().T @ rows if r else np.zeros((nd, nd), dtype=complex))
    return np.stack(out)


def test_submodule_stack_matches_one_by_one(rng):
    stack = _projection_stack(rng, 2, 3, [1, 0, 6, 3, 2])
    batch = GFusionFrame.from_stacks(stack, stack.copy(), 2, 3).submodules()
    for q, sub in zip(stack, batch):
        single = Submodule(ModuleOperator(q, 2, 3))
        assert sub.rank == single.rank
        np.testing.assert_array_equal(sub.basis_rows, single.basis_rows)
        np.testing.assert_array_equal(sub.projection.matrix, q)
        assert not sub.basis_rows.flags.writeable
    assert [sub.rank for sub in batch] == [1, 0, 6, 3, 2]


@pytest.mark.parametrize("k,defect,problem", [
    (1, lambda q: q + np.triu(np.ones_like(q), 1) * 0.1, "self-adjoint"),
    (2, lambda q: 2.0 * q, "idempotent"),
])
def test_submodule_stack_names_the_first_failing_element(rng, k, defect, problem):
    stack = _projection_stack(rng, 2, 2, [1, 2, 3, 2])
    stack[k] = defect(stack[k])
    stack[3] = 3.0 * stack[3]  # a later failure is not the one named
    with pytest.raises(ValueError, match=f"^element {k}: projection is not {problem} within"):
        GFusionFrame.from_stacks(stack, np.zeros_like(stack), 2, 2)
    with pytest.raises(ValueError, match=f"^projection is not {problem} within"):
        Submodule(ModuleOperator(stack[k], 2, 2))
    assert projection_fault(stack)[0] == k
    vh, mask = row_bases(stack)  # one basis per element, failing or not
    assert vh.shape == (4, mask.sum(1).max(), 4) == mask.shape + (4,) and not vh[~mask].any()


def test_projection_check_takes_spectral_norms_past_the_screen():
    # a projection has no scale, so the bound is PROJECTION_TOL (1e-8)
    # itself; at 8e-9 the idempotency defect passes in spectral norm though
    # its Frobenius norm, 1.13e-8, fails the screen, and at 1.2e-8 it fails
    passing = np.diag([1.0, 1.0, 8e-9, 8e-9]).astype(complex)
    defect = passing @ passing - passing
    assert np.linalg.norm(defect, 2) < PROJECTION_TOL < np.linalg.norm(defect)
    assert projection_fault(passing[None]) is None
    failing = np.diag([1.0, 1.0, 1.2e-8, 1.2e-8]).astype(complex)
    assert projection_fault(failing[None]) == (
        0, "projection is not idempotent within tolerance")


def test_a_submodule_factors_its_projection_on_first_read(rng, monkeypatch):
    # construction checks the projection and takes no SVD; from_basis_rows
    # keeps the rows its own SVD found as the read-only row basis, and a
    # submodule built from a projection takes orthonormal_rows of it once,
    # on the first read of basis_rows or rank: the rows of the packed
    # row_bases pair of that projection, bit for bit
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *x, **k: svds.append(np.shape(a)) or svd(a, *x, **k))
    n, d = 2, 3
    for r, k in [(0, 2), (1, 3), (3, 5), (6, 6), (4, 9)]:
        rows = ((rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))
                @ (rng.standard_normal((r, n * d)) + 1j * rng.standard_normal((r, n * d))))
        svds.clear()
        sub = Submodule.from_basis_rows(rows, n, d)
        assert (sub.rank, svds) == (r, [rows.shape])
        basis = sub.basis_rows
        assert svds == [rows.shape]
        assert sub.basis_rows is basis and not basis.flags.writeable
        np.testing.assert_array_equal(basis, orthonormal_rows(rows))
        assert basis.shape == (r, n * d)
        np.testing.assert_allclose(basis.conj().T @ basis, sub.projection.matrix, atol=1e-15)
        svds.clear()
        again = Submodule(sub.projection)
        assert again.rank == r and svds == [(n * d, n * d)]
        vh, mask = row_bases(sub.projection.matrix[None])
        assert again.basis_rows.tobytes() == vh[mask].tobytes() and mask.sum() == r
        assert not again.basis_rows.flags.writeable
    svds.clear()
    full = Submodule.full(n, d)
    assert svds == []
    assert full.rank == n * d and svds == [(n * d, n * d)]


def test_orthogonal_complementation(rng):
    sub = submodule_from_generators([random_vector(rng, 3, 2)])
    for _ in range(10):
        f = random_vector(rng, 3, 2)
        pf = apply(sub.projection, f)
        assert np.linalg.norm(inner_product(pf, f - pf), 2) <= 1e-10 * (1 + f.norm() ** 2)


def test_span_of_single_submodule(rng):
    sub = submodule_from_generators([random_vector(rng, 2, 2)])
    joined = span_of_submodules([sub])
    np.testing.assert_allclose(joined.projection.matrix, sub.projection.matrix, atol=1e-10)


def test_span_of_complementary_projections():
    p0 = Submodule(ModuleOperator(np.diag([1.0, 0.0]).astype(complex), 2, 1))
    p1 = Submodule(ModuleOperator(np.diag([0.0, 1.0]).astype(complex), 2, 1))
    joined = span_of_submodules([p0, p1])
    np.testing.assert_allclose(joined.projection.matrix, np.eye(2), atol=1e-12)


def test_span_contains_each_range(rng):
    subs = [submodule_from_generators([random_vector(rng, 3, 1)]) for _ in range(2)]
    joined = span_of_submodules(subs)
    for s in subs:
        prod = s.projection.matrix @ joined.projection.matrix
        assert np.linalg.norm(prod - s.projection.matrix, 2) <= 1e-10


# ---------------------------------------------------------------------------
# sequences and the right shift


def _sequence_of(vectors, convention="linear", submodules=None):
    return ModuleSequence(vectors, convention, submodules)


def test_right_shift_zero_sequence():
    seq = _sequence_of([ModuleVector.zero(2, 1) for _ in range(3)], "cyclic")
    shifted = right_shift(seq)
    assert all(t.norm() == 0.0 for t in shifted.terms)


def test_right_shift_cyclic_rotation(rng):
    terms = [random_vector(rng, 2, 2) for _ in range(3)]
    seq = _sequence_of(terms, "cyclic")
    shifted = right_shift(seq)
    np.testing.assert_array_equal(shifted.terms[0].flat, terms[1].flat)
    np.testing.assert_array_equal(shifted.terms[1].flat, terms[2].flat)
    np.testing.assert_array_equal(shifted.terms[2].flat, terms[0].flat)


def test_right_shift_linear_drops_and_pads(rng):
    terms = [random_vector(rng, 2, 1) for _ in range(3)]
    seq = _sequence_of(terms, "linear")
    shifted = right_shift(seq)
    np.testing.assert_array_equal(shifted.terms[0].flat, terms[1].flat)
    np.testing.assert_array_equal(shifted.terms[1].flat, terms[2].flat)
    assert shifted.terms[2].norm() == 0.0


@pytest.mark.parametrize("m,convention,k,b", [
    (1, "cyclic", 1, [0]), (2, "cyclic", 2, [1, 0]), (3, "cyclic", 3, [1, 2, 0]),
    (1, "linear", 0, []), (2, "linear", 1, [1]), (3, "linear", 2, [1, 2]),
])
def test_shift_pairs_of_both_conventions(m, convention, k, b):
    found_k, found_b = shift_pairs(m, convention)
    assert (found_k, found_b.tolist()) == (k, b)


def test_shift_pairs_refuses_an_unknown_convention():
    with pytest.raises(ValueError, match="index convention must be one of"):
        shift_pairs(3, "periodic")


def convention_comparisons(src: Path) -> list:
    """(file, innermost def, line) of every comparison in the source files
    with the literal "linear" or "cyclic", alone or in a literal tuple, list
    or set, on either side."""
    found = []

    def names_a_convention(node):
        items = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(x, ast.Constant) and x.value in CONVENTIONS for x in items)

    def visit(node, owner, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Compare) and any(
                    map(names_a_convention, [child.left, *child.comparators])):
                found.append((name, owner, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            visit(child, inner, name)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    return found


def test_every_convention_comparison_lies_in_shift_pairs():
    # the right shift's index map is defined once; everything else reads it
    assert [site[:2] for site in convention_comparisons(SRC)] == [("hilbert.py", "shift_pairs")]


def test_the_convention_lint_sees_comparisons_and_skips_other_uses(tmp_path):
    (tmp_path / "sample.py").write_text(
        'def f(c):\n'
        '    g(c, "linear")\n'
        '    x = "cyclic" if c == "cyclic" else None\n'
        '    return c in ("linear", "other") or "linear" != c or c == CONVENTIONS[0]\n')
    assert convention_comparisons(tmp_path) == [("sample.py", "f", 3), ("sample.py", "f", 4),
                                                ("sample.py", "f", 4)]


def test_right_shift_membership_violation():
    e1 = ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)
    e2 = ModuleVector(np.array([[0.0, 1.0 + 0j]]), 2, 1)
    n0 = submodule_from_generators([e1])
    n1 = submodule_from_generators([e2])
    seq = _sequence_of([e1, e2], "linear", [n0, n1])
    with pytest.raises(MembershipViolation, match="^shifted term 0 leaves its target submodule$"):
        right_shift(seq)


@pytest.mark.parametrize("n,d", [(3, 1), (1, 2)])  # the second has the terms' n*d
def test_sequence_rejects_targets_of_another_shape(n, d):
    terms = [ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)] * 2
    with pytest.raises(DimensionMismatch, match="target submodules and terms of different shape"):
        ModuleSequence(terms, "linear", [Submodule.full(n, d)] * 2)


def test_sequence_refuses_one_target_too_few_as_a_length_error():
    terms = [ModuleVector(np.array([[1.0 + 0j, 0.0]]), 2, 1)] * 3
    with pytest.raises(LengthMismatch, match="one target submodule per term is required"):
        ModuleSequence(terms, "cyclic", [Submodule.full(2, 1)] * 2)


# ---------------------------------------------------------------------------
# operands of the two-family statements: one length and one (n, d)


def _analysis_of(frame):
    """The analysis sequence of an all-ones vector of the frame's shape."""
    return analysis(frame, ModuleVector(np.ones((frame.d, frame.n * frame.d)), frame.n, frame.d))


_PARAMS = PerturbationParams(0.1, 0.0)

TWO_FAMILY_ENTRY_POINTS = {
    "synthesis": lambda frame, other: synthesis(frame, _analysis_of(other)),
    "sequence_inner_product":
        lambda frame, other: sequence_inner_product(_analysis_of(frame), _analysis_of(other)),
    "reconstruction_residual": reconstruction_residual,
    "verify_dual": verify_dual,
    "verify_shift_reconstruction_identity": lambda frame, other: verify_shift_reconstruction_identity(
        frame, other, solve_adjoint_shift_extension(frame), 0),
    "check_perturbation_inequality":
        lambda frame, other: check_perturbation_inequality(frame, other, _PARAMS),
    "verify_perturbed_frame": lambda frame, other: verify_perturbed_frame(
        frame, other, _PARAMS, check_perturbation_inequality(frame, frame, _PARAMS)),
    "independence_transfer": lambda frame, other: independence_transfer(
        frame, other, check_perturbation_inequality(frame, frame, _PARAMS)),
}


@pytest.mark.parametrize("name", TWO_FAMILY_ENTRY_POINTS)
def test_two_family_operand_mismatches(name):
    """Every length mismatch raises LengthMismatch and every (n, d) mismatch
    DimensionMismatch, whether the operands are frames or sequences; the
    other (n, d) keeps n*d, so no array shape tells them apart."""
    call = TWO_FAMILY_ENTRY_POINTS[name]
    frame = random_frame(2, 1, 3, seed=7)
    with pytest.raises(LengthMismatch, match="^families have different lengths$"):
        call(frame, random_frame(2, 1, 2, seed=7))
    with pytest.raises(DimensionMismatch, match=r"^families have different \(n, d\)$"):
        call(frame, random_frame(1, 2, 3, seed=7))


@pytest.mark.parametrize("shape", [(4,), (2, 4), (3, 2, 4)], ids=["row", "block", "batch"])
def test_applied_is_the_product_of_the_rows_with_every_member(shape):
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = applied(rows, stack)
    assert got.shape == (5, *shape)
    for k, member in enumerate(stack):
        np.testing.assert_allclose(got[k], rows @ member, rtol=0, atol=1e-13 * np.abs(rows).sum())


def test_right_shift_keeps_synthesis_kernel_linear_window(rng):
    # identical members: the family is represented by the identity, and a
    # kernel element supported away from the window edge stays in the kernel
    from gframemod.frames import GFusionFrame, synthesis

    n, d = 2, 1
    full = Submodule(ModuleOperator.identity(n, d))
    y = ModuleOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), n, d)
    frame = GFusionFrame([(full, y)] * 3, "linear")
    h = random_vector(rng, n, d)
    seq = _sequence_of([ModuleVector.zero(n, d), h, -1 * h], "linear", frame.submodules())
    assert synthesis(frame, seq).norm() <= 1e-12
    shifted = right_shift(seq)
    assert synthesis(frame, shifted).norm() <= 1e-8


def test_spectral_norms_match_svd(rng):
    blocks = rng.standard_normal((5, 3, 2, 6)) + 1j * rng.standard_normal((5, 3, 2, 6))
    np.testing.assert_allclose(spectral_norms(blocks), np.linalg.norm(blocks, 2, axis=(-2, -1)),
                               rtol=1e-12)


def test_spectral_norms_of_one_row_blocks_are_euclidean(rng):
    rows = rng.standard_normal((5, 3, 1, 6)) + 1j * rng.standard_normal((5, 3, 1, 6))
    np.testing.assert_allclose(spectral_norms(rows), np.linalg.norm(rows, axis=-1)[..., 0],
                               rtol=1e-15)
    np.testing.assert_allclose(spectral_norms(rows.real), np.linalg.norm(rows.real, axis=-1)[..., 0],
                               rtol=1e-15)
    np.testing.assert_allclose(spectral_norms(rows), np.linalg.norm(rows, 2, axis=(-2, -1)),
                               rtol=1e-12)


def test_batched_membership_matches_contains(rng):
    subs = [submodule_from_generators([random_vector(rng, 2, 2)]) for _ in range(3)]
    inside = [apply(sub.projection, random_vector(rng, 2, 2)) for sub in subs]
    outside = [random_vector(rng, 2, 2) for _ in subs]
    flats = np.stack([[t.flat for t in inside], [t.flat for t in outside]])
    projections = np.stack([sub.projection.matrix for sub in subs])
    mask = contained(flats, projections, MEMBERSHIP_TOL * spectral_norms(flats))
    expected = [[sub.contains(t) for sub, t in zip(subs, row)] for row in (inside, outside)]
    assert mask.tolist() == expected == [[True] * 3, [False] * 3]


def test_sequence_norm(rng):
    f = random_vector(rng, 2, 2)
    seq = _sequence_of([f, f], "linear")
    gram = 2 * inner_product(f, f)
    assert seq.norm() == pytest.approx(np.sqrt(np.linalg.norm(gram, 2)), abs=1e-12)


def test_spectral_norms_scale_by_powers_of_two_exactly(rng):
    # each block is divided by a power of two before its Gram, so entries
    # whose squares leave the float range keep their norms, and results
    # move by exactly the factor
    for shape in ((4, 3, 5), (4, 1, 5)):
        blocks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        unit = spectral_norms(blocks)
        for k in (-900, -300, -1, 1, 300, 600, 900):
            assert np.array_equal(spectral_norms(np.ldexp(1.0, k) * blocks), np.ldexp(unit, k))
    np.testing.assert_allclose(spectral_norms(1e200 * blocks) / 1e200,
                               np.linalg.norm(blocks, 2, axis=(-2, -1)), rtol=1e-14)
    assert np.array_equal(spectral_norms(np.zeros((2, 3, 3), complex)), [0.0, 0.0])


# ---------------------------------------------------------------------------
# gram_sum against the einsum it replaced


def einsum_gram_sum(a, b):
    """sum_k A_k B_k^H as the einsum that gram_sum's GEMM replaced."""
    return np.einsum("kij,klj->il", a, b.conj())


def assert_gram_sum_matches(a, b):
    """Every entry within 1e-13 sum_k ||A_k|| ||B_k|| of the einsum, and
    nothing overflowed or underflowed on the way."""
    got, expected = gram_sum(a, b), einsum_gram_sum(a, b)
    assert got.shape == (a.shape[1], b.shape[1])
    assert np.isfinite(got).all()
    scale = np.sum(np.linalg.norm(a, 2, axis=(1, 2)) * np.linalg.norm(b, 2, axis=(1, 2)))
    assert np.abs(got - expected).max() <= 1e-13 * scale


def _stack(rng, shape, layout, scale):
    """A random complex stack of `shape` times `scale`, kept read-only, as a
    `.conj()` result or as a swapaxes view (not contiguous)."""
    stored = shape[:1] + shape[:0:-1] if layout == "swapaxes" else shape
    x = scale * (rng.standard_normal(stored) + 1j * rng.standard_normal(stored))
    x.setflags(write=False)
    return {"read-only": x, "conj": x.conj(), "swapaxes": x.swapaxes(1, 2)}[layout]


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 9), r=st.integers(1, 7),
       r_b=st.integers(1, 7), c=st.integers(1, 7),
       scales=st.tuples(*[st.sampled_from([1e-100, 1.0, 1e100])] * 2),
       layouts=st.tuples(*[st.sampled_from(["read-only", "conj", "swapaxes"])] * 2))
def test_gram_sum_matches_the_einsum(seed, m, r, r_b, c, scales, layouts):
    rng = np.random.default_rng(seed)
    a = _stack(rng, (m, r, c), layouts[0], scales[0])
    b = _stack(rng, (m, r_b, c), layouts[1], scales[1])
    assert_gram_sum_matches(a, b)


@pytest.mark.parametrize("m", [1, 4])
def test_gram_sum_of_a_frames_stacks_matches_the_einsum(m):
    from gframemod.families import unitary_orbit_frame

    frame = unitary_orbit_frame(2, 2, m, seed=5)
    ops = frame.operators
    assert not ops.flags.writeable
    rows = ops[:, 1:3]  # (m, d, nd) against (m, nd, nd), as synthesis passes them
    cases = [(ops, ops), (rows, ops), (ops, rows), (ops.conj(), ops),
             (ops.swapaxes(1, 2), ops), (ops[:, :, 1:], ops[:, ::2, 1:]),
             (ops[::-1], ops), (ops[:, ::-1], ops.swapaxes(1, 2))]
    for a, b in cases:
        assert_gram_sum_matches(a, b)
    zero = np.zeros_like(ops)
    assert np.array_equal(gram_sum(zero, ops), np.zeros((4, 4)))
    assert np.array_equal(gram_sum(zero, zero), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# null combinations against exact elimination


@pytest.mark.parametrize("nd", [2, 4])
def test_null_combinations_match_exact_elimination_on_dyadic_families(nd):
    """Gaussian dyadic families, many with more members than the (nd)^2
    operator dimensions: the rank, every row's pivot (the dependent members,
    8 from each end past 16) and the first dependency agree with exact
    Fraction elimination."""
    rng = np.random.default_rng(nd)
    dependent_families = 0
    for _ in range(40):
        stack = oracles.dyadic_family(nd, int(rng.integers(1, nd * nd + 21)), rng)
        exact_rank, exact_pivots, first = oracles.exact_dependencies(stack)
        r, rows = null_combinations(stack)
        assert r == exact_rank
        pivots = [int(np.flatnonzero(row)[-1]) for row in rows]
        kept = exact_pivots if len(exact_pivots) <= 16 else exact_pivots[:8] + exact_pivots[-8:]
        assert pivots == kept[::-1]
        np.testing.assert_allclose(rows @ rows.conj().T, np.eye(len(rows)), atol=1e-12)
        if first is not None:
            dependent_families += 1
            last = rows[-1]
            np.testing.assert_allclose(last[:len(first)] / last[len(first) - 1], first,
                                       rtol=0, atol=1e-12 * np.abs(first).max())
    assert dependent_families >= 25
