import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gframemod import perturb
from gframemod.algebra import psd_leq
from gframemod.exceptions import (
    BaseNotIndependent,
    DimensionMismatch,
    InequalityNotVerified,
    InvalidDimensions,
    LengthMismatch,
    NotAFrame,
)
from gframemod.families import (
    KINDS,
    generate,
    random_frame,
    random_unitary,
    random_vector,
    unitary_orbit_frame,
)
from gframemod.frames import FrameBounds, GFusionFrame, frame_bounds
from gframemod.hilbert import ModuleOperator, ModuleVector, Submodule, null_combinations
from gframemod.numerics import FACTOR_TOL, RANK_TOL
from gframemod.perturb import (
    HAT_HAT,
    HAT_ORIGINAL,
    SAMPLING_CAVEAT,
    PerturbationParams,
    PerturbationVerdict,
    check_perturbation_inequality,
    derived_bounds,
    independence_transfer,
    verify_perturbed_frame,
)

import oracles


def test_params_validation():
    PerturbationParams(0.0, 0.0)
    PerturbationParams(0.99, 0.5)
    for bad in ((1.0, 0.0), (0.0, 1.0), (-0.1, 0.0), (0.0, -0.1)):
        with pytest.raises(ValueError):
            PerturbationParams(*bad)


def test_identical_families_satisfy_zero_params():
    frame = random_frame(2, 1, 3, seed=0)
    verdict = check_perturbation_inequality(frame, frame, PerturbationParams(0.0, 0.0),
                                            seq_samples=64, vec_samples=16, seed=0)
    assert verdict.inequality_holds
    assert verdict.witness.lhs == pytest.approx(0.0, abs=1e-14)


def test_zero_params_fail_for_distinct_families():
    frame = random_frame(2, 1, 3, seed=1)
    verdict = check_perturbation_inequality(frame, frame.scaled(1.05),
                                            PerturbationParams(0.0, 0.0),
                                            seq_samples=32, vec_samples=8, seed=0)
    assert not verdict.inequality_holds


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_scalar_scaling_closed_form(eps):
    frame = random_frame(2, 2, 3, seed=2)
    scaled = frame.scaled(1.0 + eps)
    good = check_perturbation_inequality(frame, scaled, PerturbationParams(eps, 0.0),
                                         seq_samples=64, vec_samples=16, seed=3)
    assert good.inequality_holds
    bad = check_perturbation_inequality(frame, scaled, PerturbationParams(eps * 0.9, 0.0),
                                        seq_samples=64, vec_samples=16, seed=3)
    assert not bad.inequality_holds
    # the witness obeys the closed form: lhs = eps * ||sum a Y f|| exactly
    witness = bad.witness
    base_lhs, _ = oracles.inequality_sides(frame, frame, 0.0, 0.0,
                                           witness.coefficients, witness.vector)
    assert base_lhs == 0.0
    lhs, rhs = oracles.inequality_sides(frame, scaled, eps * 0.9, 0.0,
                                        witness.coefficients, witness.vector)
    assert lhs == pytest.approx(witness.lhs, rel=1e-12)
    assert lhs == pytest.approx(rhs / 0.9, rel=1e-10)  # ratio is exactly eps vs 0.9*eps


def test_large_displacement_violates_with_basis_witness():
    rng = np.random.default_rng(4)
    frame = random_frame(2, 1, 3, seed=5)
    scale = frame.max_operator_norm()
    shifted_elements = []
    for e in frame.elements:
        bump = (rng.standard_normal(e.operator.matrix.shape)
                + 1j * rng.standard_normal(e.operator.matrix.shape))
        bump = 3.0 * scale * bump @ e.submodule.projection.matrix
        shifted_elements.append((e.submodule, e.operator + ModuleOperator(bump, 2, 1)))
    perturbed = GFusionFrame(shifted_elements, frame.index_convention)
    verdict = check_perturbation_inequality(frame, perturbed, PerturbationParams(0.1, 0.1),
                                            seq_samples=0, vec_samples=8, seed=0)
    assert not verdict.inequality_holds  # basis sequences alone expose it


def _nudged_pair(seed: int, size: float = 1e-3):
    """A random (2, 2, 4) family and a copy with size * G_k P_k added to each
    member, G_k seeded complex Gaussians: the change keeps every member's
    rows in its submodule, and the pair has no factor form."""
    frame = generate("random", 2, 2, 4, seed=seed)
    rng = np.random.default_rng(seed)
    nudges = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    return frame, frame._with_operators(frame.operators + size * nudges @ frame.projections)


def test_the_row_maximizer_fails_a_pair_whose_samples_pass(monkeypatch):
    frame, nudged = _nudged_pair(3)
    params = PerturbationParams(0.05, 0.0)
    verdict = check_perturbation_inequality(frame, nudged, params, seq_samples=256,
                                            vec_samples=64, seed=3)
    assert verdict.certificate is None and not verdict.inequality_holds
    # the witness is genuine: its sides, recomputed from its sequence and vector
    a, f = verdict.witness.coefficients, verdict.witness.vector.flat
    lhs = np.linalg.norm(f @ np.einsum("k,kij->ij", a, frame.operators - nudged.operators), 2)
    rhs = 0.05 * np.linalg.norm(f @ np.einsum("k,kij->ij", a, frame.operators), 2)
    assert (verdict.witness.lhs, verdict.witness.rhs) == pytest.approx((lhs, rhs), rel=1e-12)
    assert lhs - rhs > 1e-4 * frame.max_operator_norm()
    # every sampled pair passes: the verdict is the maximizer's (stubbed by
    # e_0, a sampled sequence, which cannot beat the worst sample)
    monkeypatch.setattr(perturb, "_worst_coefficients", lambda terms, *rest: np.eye(len(terms))[0])
    sampled = check_perturbation_inequality(frame, nudged, params, seq_samples=256,
                                            vec_samples=64, seed=3)
    assert sampled.inequality_holds and sampled.witness.margin < 0


def _row_terms(seed: int, m: int, nd: int):
    """Seeded applied rows Z of m members at one probe row, and
    Zhat = 1.05 Z + 0.01 N for a seeded complex N."""
    rng = np.random.default_rng(seed)
    z = _complex(rng, m, nd)
    return z, 1.05 * z + 0.01 * _complex(rng, m, nd)


def _form(a, z, z_hat, params):
    """||a D||^2 - eta^2 ||a Z||^2 - beta^2 ||a Zhat||^2, D = Z - Zhat."""
    return (np.linalg.norm(a @ (z - z_hat)) ** 2 - params.eta ** 2 * np.linalg.norm(a @ z) ** 2
            - params.beta ** 2 * np.linalg.norm(a @ z_hat) ** 2)


# m below and above 3 n*d, the column count of [D | Z | Zhat]
@pytest.mark.parametrize("m,nd", [(4, 4), (6, 16), (64, 4), (200, 2)])
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_the_row_maximizer_attains_the_top_eigenvalue(m, nd, beta):
    params = PerturbationParams(0.02, beta)
    z, z_hat = _row_terms(m + nd, m, nd)
    d = z - z_hat
    dense = (d @ d.conj().T - params.eta ** 2 * z @ z.conj().T
             - params.beta ** 2 * z_hat @ z_hat.conj().T)
    top = np.linalg.eigvalsh(dense)[-1]
    a = perturb._worst_coefficients(z, z_hat, params)
    assert a.shape == (m,) and np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
    assert top > 0.0 and _form(a, z, z_hat, params) == pytest.approx(top, rel=1e-12)
    if beta == 0.0:  # a positive top eigenvalue is a failing sequence
        lhs, rhs = perturb._batch_margins(a[None], z[:, None], z_hat[:, None], params)
        assert lhs[0] > rhs[0]


@pytest.mark.parametrize("m,nd", [(4, 4), (64, 4)])
def test_no_sequence_fails_a_row_whose_top_eigenvalue_is_not_positive(m, nd):
    params = PerturbationParams(0.1, 0.0)
    rng = np.random.default_rng(m)
    z, c = _complex(rng, m, nd), _complex(rng, nd, nd)
    z_hat = z - z @ (0.09 * c / np.linalg.norm(c, 2))  # ||a D|| = ||a Z C|| <= 0.09 ||a Z||
    d = z - z_hat
    dense = d @ d.conj().T - params.eta ** 2 * z @ z.conj().T
    scale = np.linalg.norm(z, 2) ** 2
    assert np.linalg.eigvalsh(dense)[-1] <= 1e-12 * scale
    a = perturb._worst_coefficients(z, z_hat, params)
    assert _form(a, z, z_hat, params) <= 1e-12 * scale
    alphas = _complex(np.random.default_rng(7), 10 ** 4, m)
    alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
    lhs, rhs = perturb._batch_margins(np.vstack((alphas, a)), z[:, None], z_hat[:, None], params)
    assert np.all(lhs <= rhs + 1e-12 * np.sqrt(scale))


def test_the_row_maximizer_forms_no_square_array():
    # m = 1024: one complex (m, m) array is 16 MB
    z, z_hat = _row_terms(1, 1024, 16)
    params = PerturbationParams(0.02, 0.05)
    perturb._worst_coefficients(z, z_hat, params)
    tracemalloc.start()
    try:
        perturb._worst_coefficients(z, z_hat, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 16


def _tied_rotations(monkeypatch, seed: int):
    """np.linalg.svd with its left singular vectors of top singular values
    tied within 1e-9 turned by a seeded Haar unitary (and the right ones by
    its inverse, so that the factors still multiply to the matrix)."""
    real, rng = np.linalg.svd, np.random.default_rng(seed)

    def rotated(a, *args, **kwargs):
        u, s, vh = real(a, *args, **kwargs)
        k = int(np.count_nonzero(s >= (1.0 - 1e-9) * s[0]))
        turn = random_unitary(rng, k)
        u, vh = u.copy(), vh.copy()
        u[:, :k], vh[:k] = u[:, :k] @ turn, turn.conj().T @ vh[:k]
        return u, s, vh

    monkeypatch.setattr(np.linalg, "svd", rotated)


# Yhat = 1.2 Y, so C = -0.2 I on R and every top singular vector of C ties
@pytest.mark.parametrize("kind,n,d,m,seed", [("unitary-orbit", 2, 2, 4, 1),
                                             ("random", 4, 4, 64, 2)])
def test_a_turned_tied_singular_basis_keeps_the_certified_witness(monkeypatch, kind, n, d, m,
                                                                  seed):
    frame = generate(kind, n, d, m, seed=seed)
    params = PerturbationParams(0.1, 0.0)
    plain = check_perturbation_inequality(frame, frame.scaled(1.2), params)
    assert plain.certificate is not None and not plain.inequality_holds
    for turn in range(3):
        with monkeypatch.context() as patch:
            _tied_rotations(patch, turn)
            turned = check_perturbation_inequality(frame, frame.scaled(1.2), params)
        assert turned.certificate == plain.certificate
        assert turned.witness.coefficients.tobytes() == plain.witness.coefficients.tobytes()
        assert turned.witness.vector.flat.tobytes() == plain.witness.vector.flat.tobytes()
        assert (turned.witness.lhs, turned.witness.rhs) == (plain.witness.lhs, plain.witness.rhs)


# every kind at the benchmark's small, wide and dense (n, d, m); a fusion
# decomposition needs m <= n*d, so it has no wide case
@pytest.mark.parametrize("kind,n,d,m", [
    (kind, n, d, m) for n, d, m in [(2, 2, 4), (4, 4, 64), (16, 4, 4)] for kind in KINDS
    if kind != "fusion" or m <= n * d
])
def test_batch_margins_match_the_reference_kernel(kind, n, d, m):
    rng = np.random.default_rng(21)
    frame = generate(kind, n, d, m, seed=3)
    bump = rng.standard_normal(frame.operators.shape) + 1j * rng.standard_normal(frame.operators.shape)
    hat_operators = 1.05 * frame.operators + 0.01 * bump
    f = random_vector(rng, n, d)
    terms, terms_hat = f.flat @ frame.operators, f.flat @ hat_operators
    dense = rng.standard_normal((24, m)) + 1j * rng.standard_normal((24, m))
    alphas = np.vstack([np.eye(m), dense])
    largest = max(np.linalg.norm(frame.operators, 2, axis=(1, 2)).max(),
                  np.linalg.norm(hat_operators, 2, axis=(1, 2)).max())
    scale = np.linalg.norm(f.flat, 2) * np.abs(alphas).sum(axis=1) * largest
    for beta in (0.0, 0.3):
        params = PerturbationParams(0.1, beta)
        lhs, rhs = perturb._batch_margins(alphas, terms, terms_hat, params)
        ref_lhs, ref_rhs = oracles.reference_margins(alphas, terms, terms_hat, params.eta, beta)
        assert np.all(np.abs(lhs - ref_lhs) <= 1e-12 * scale), (kind, beta)
        assert np.all(np.abs(rhs - ref_rhs) <= 1e-12 * scale), (kind, beta)


def _on_full_submodules(operators, n: int, d: int) -> GFusionFrame:
    """A family of `operators` on full submodules: the inequality reads only
    the operators, and Y (I + E) leaves a proper submodule of Y's."""
    eye = np.broadcast_to(np.eye(n * d, dtype=np.complex128), operators.shape)
    return GFusionFrame.from_stacks(eye.copy(), operators, n, d)


def _two_seed_pair(kind, n, d, m, factor):
    """The seed-1 family Y against factor Y + 1e-11 Y', Y' the seed-2 family
    of the same kind.  The Y' term is ten times FACTOR_TOL, so the pair has
    no factor form and only the sampler decides it, and a tenth of
    MARGIN_TOL, so its verdict is that of the scaled pair factor Y."""
    frame, other = generate(kind, n, d, m, seed=1), generate(kind, n, d, m, seed=2)
    return frame, _on_full_submodules(factor * frame.operators + 1e-11 * other.operators, n, d)


def _sampled(monkeypatch, frame, perturbed, params, samples, batch):
    """The verdict at `_BATCH` = batch and the CLI's vector count for
    `samples`, and the normalised margins of its sampling pass, one array
    per `_normalized_margins` call (the maximizer's call, on one row, left
    out)."""
    real = perturb._normalized_margins
    calls = []

    def recorded(alphas, terms, *rest):
        out = real(alphas, terms, *rest)
        if terms.ndim == 5:  # (m, vectors, d, 1, n*d)
            calls.append(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(perturb, "_normalized_margins", recorded)
        patch.setattr(perturb, "_BATCH", batch)
        verdict = check_perturbation_inequality(frame, perturbed, params, seq_samples=samples,
                                                vec_samples=max(8, samples // 4), seed=1)
    return verdict, calls


# every kind at the benchmark's small, wide and dense sizes and sample
# counts, on a scaled pair moved off factor form by a second generator seed
@pytest.mark.parametrize("kind,n,d,m,samples", [
    (kind, n, d, m, samples)
    for n, d, m, samples in [(2, 2, 4, 128), (4, 4, 64, 64), (16, 4, 4, 128)] for kind in KINDS
    if kind != "fusion" or m <= n * d
])
@pytest.mark.parametrize("factor", [1.05, 1.2])
def test_vector_batches_match_the_per_vector_loop(monkeypatch, kind, n, d, m, samples, factor):
    frame, perturbed = _two_seed_pair(kind, n, d, m, factor)
    params = PerturbationParams(0.1, 0.0)
    batched, batches = _sampled(monkeypatch, frame, perturbed, params, samples, perturb._BATCH)
    looped, singles = _sampled(monkeypatch, frame, perturbed, params, samples, 1)
    assert batched.certificate is None
    vectors = batched.n_vectors
    step = max(1, perturb._BATCH // (batched.n_sequences * d * n * d))
    assert [len(b) for b in batches] == [min(step, vectors - v) for v in range(0, vectors, step)]
    assert len(singles) == vectors
    # all small vectors in one batch; one dense vector per batch where the
    # family is dependent, so that null combinations add sequences
    if n * d == 4:
        assert len(batches) == 1
    if n * d == 64 and kind in ("dilation", "unitary-orbit"):
        assert step == 1
    assert np.concatenate(batches).tobytes() == np.concatenate(singles).tobytes()
    assert batched.inequality_holds == looped.inequality_holds
    assert batched.inequality_holds == (factor < 1.1)
    assert batched.witness.coefficients.tobytes() == looped.witness.coefficients.tobytes()
    assert batched.witness.vector.flat.tobytes() == looped.witness.vector.flat.tobytes()
    assert (batched.witness.lhs, batched.witness.rhs) == (looped.witness.lhs, looped.witness.rhs)


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), d=st.integers(1, 4),
       m=st.integers(1, 5))
def test_a_single_row_attains_the_worst_vector(seed, n, d, m):
    # g = u f with u the top left singular vector of f X keeps ||f X|| and
    # lowers neither norm on the right, so probing rows loses nothing
    rng = np.random.default_rng(seed)
    f, a = _complex(rng, d, n * d), _complex(rng, m)
    ys = _complex(rng, m, n * d, n * d)
    ys_hat = ys + 0.3 * _complex(rng, m, n * d, n * d)
    x = np.einsum("k,kij->ij", a, ys - ys_hat)
    u = np.linalg.svd(f @ x)[0][:, 0]
    g = u.conj() @ f
    top = np.linalg.norm(f @ x, 2)
    assert abs(np.linalg.norm(g @ x) - top) <= 1e-12 * top
    for stack in (ys, ys_hat):
        z = np.einsum("k,kij->ij", a, stack)
        assert np.linalg.norm(g @ z) <= (1.0 + 1e-12) * np.linalg.norm(f @ z, 2)


def _reference_batch_margins(alphas, terms, terms_hat, params):
    return oracles.reference_margins(alphas, terms, terms_hat, params.eta, params.beta)


# a dilation base against the next seed's dilation: both are multiples of
# Id member by member, so in exact arithmetic every unit row gives the same
# margin for a sequence, and only the tie rule picks the witness; the two
# contractions differ, so the pair has no factor form and is sampled
@pytest.mark.parametrize("n,d,m,seed", [(2, 2, 4, 1), (2, 2, 4, 2), (4, 4, 64, 1), (4, 4, 64, 2)])
@pytest.mark.parametrize("beta", [0.0, 0.05])
def test_witness_does_not_depend_on_the_margin_kernel(monkeypatch, n, d, m, seed, beta):
    frame = generate("dilation", n, d, m, seed=seed)
    other = generate("dilation", n, d, m, seed=seed + 1)
    params = PerturbationParams(0.1, beta)

    def witness():
        verdict = check_perturbation_inequality(frame, other, params,
                                                seq_samples=64, vec_samples=16, seed=0)
        assert not verdict.inequality_holds and verdict.certificate is None
        return verdict.witness

    batched = witness()
    monkeypatch.setattr(perturb, "_batch_margins", _reference_batch_margins)
    reference = witness()
    assert batched.coefficients.tobytes() == reference.coefficients.tobytes()
    assert batched.vector.flat.tobytes() == reference.vector.flat.tobytes()
    assert batched.lhs == pytest.approx(reference.lhs, rel=1e-12)
    assert batched.rhs == pytest.approx(reference.rhs, rel=1e-12)
    # a rank-one vector, both phases fixed
    assert np.count_nonzero(np.abs(batched.vector.flat).sum(axis=1)) == 1
    for z in (batched.coefficients, batched.vector.flat.reshape(-1)):
        top = z[np.argmax(np.abs(z))]
        assert top.imag == 0.0 and top.real > 0.0


def _projection_onto_rows(frame) -> np.ndarray:
    """P_R, the orthogonal projection onto the span of the members' row
    spaces, from numpy's pinv of the stacked operators."""
    stacked = frame.operators.reshape(-1, frame.n * frame.d)
    return np.linalg.pinv(stacked) @ stacked


def _certified_and_sampled(monkeypatch, frame, perturbed, params):
    """The verdict, and the sampler's verdict on the same pair."""
    kwargs = dict(seq_samples=64, vec_samples=16, seed=1)
    exact = check_perturbation_inequality(frame, perturbed, params, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(perturb, "_factor_certificate", lambda *args: None)
        sampled = check_perturbation_inequality(frame, perturbed, params, **kwargs)
    return exact, sampled


# every kind at the benchmark's sizes, on the benchmark's pairs: Y (I + E)
# with ||E|| = eta / 2 passes, (1 + 2 eta) Y fails
@pytest.mark.parametrize("kind,n,d,m", [
    (kind, n, d, m) for n, d, m in [(2, 2, 4), (4, 4, 64), (16, 4, 4)] for kind in KINDS
    if kind != "fusion" or m <= n * d
])
def test_certificate_agrees_with_the_sampler(monkeypatch, kind, n, d, m):
    frame = generate(kind, n, d, m, seed=1)
    nd = n * d
    e = _complex(np.random.default_rng(5), nd, nd)
    e *= 0.05 / np.linalg.norm(e, 2)
    projection = _projection_onto_rows(frame)
    norms = np.linalg.norm(frame.operators, 2, axis=(1, 2))
    largest = int(np.flatnonzero(norms >= (1.0 - 1e-9) * norms.max())[0])
    spans = (np.linalg.matrix_rank(frame.operators[largest])
             == np.linalg.matrix_rank(frame.operators.reshape(-1, nd)))
    params = PerturbationParams(0.1, 0.0)
    pairs = ((_on_full_submodules(frame.operators @ (np.eye(nd) + e), n, d), True,
              np.linalg.norm(projection @ e, 2)),
             (frame.scaled(1.2), False, 0.2))
    for perturbed, holds, norm in pairs:
        exact, sampled = _certified_and_sampled(monkeypatch, frame, perturbed, params)
        assert exact.inequality_holds == sampled.inequality_holds == holds
        assert sampled.certificate is None and sampled.n_sequences > 0
        # the certificate decides whenever the largest member spans R, else
        # only when the top singular row of C lies in its row space
        if exact.certificate is None:
            assert not spans and exact.n_sequences > 0
            assert exact.caveats == ((SAMPLING_CAVEAT,) if holds else ())
            continue
        assert exact.certificate.norm == pytest.approx(norm, rel=1e-12)
        assert exact.certificate.residual <= FACTOR_TOL
        assert exact.certificate.member == largest
        assert (exact.n_sequences, exact.n_vectors, exact.caveats) == (0, 0, ())
        lhs, rhs = oracles.inequality_sides(frame, perturbed, 0.1, 0.0,
                                            exact.witness.coefficients, exact.witness.vector)
        assert (lhs <= rhs) == holds
        assert (exact.witness.lhs, exact.witness.rhs) == pytest.approx((lhs, rhs), rel=1e-12)


def _low_rank_family(seed: int) -> GFusionFrame:
    """Four members on full submodules of A^2 over M_2 whose rows all lie in
    one 2-dimensional subspace R, each of them spanning it."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(_complex(rng, 4, 2))[0].conj().T  # orthonormal rows of R
    operators = _complex(rng, 4, 4, 2) @ basis
    return _on_full_submodules(operators, 2, 2)


# families whose largest member spans R (the seed-3 random family's
# largest member is invertible), so that every fail here is exact
@pytest.mark.parametrize("kind,n,d,m", [
    ("dilation", 2, 2, 4), ("unitary-orbit", 2, 2, 4), ("random", 2, 2, 4),
    ("dilation", 4, 4, 64), ("unitary-orbit", 4, 4, 64), ("low-rank", 2, 2, 4),
])
def test_certificate_witness_attains_the_norm(kind, n, d, m):
    frame = _low_rank_family(3) if kind == "low-rank" else generate(kind, n, d, m, seed=3)
    nd = n * d
    c = _complex(np.random.default_rng(8), nd, nd)
    c *= 0.3 / np.linalg.norm(c, 2)
    perturbed = _on_full_submodules(frame.operators @ (np.eye(nd) - c), n, d)
    verdict = check_perturbation_inequality(frame, perturbed, PerturbationParams(0.1, 0.0))
    norm = np.linalg.norm(_projection_onto_rows(frame) @ c, 2)
    if kind == "low-rank":
        assert norm < 0.3 * (1.0 - 1e-3)  # P_R matters
    assert not verdict.inequality_holds
    assert verdict.certificate.norm == pytest.approx(norm, rel=1e-12)
    witness = verdict.witness
    assert witness.lhs / witness.rhs == pytest.approx(norm / 0.1, rel=1e-12)
    k = verdict.certificate.member
    assert witness.coefficients.tobytes() == np.eye(m, dtype=np.complex128)[k].tobytes()
    assert np.count_nonzero(np.abs(witness.vector.flat).sum(axis=1)) == 1
    row = witness.vector.flat[0]
    top = row[np.argmax(np.abs(row))]
    assert top.imag == 0.0 and top.real > 0.0


def test_pairs_the_certificate_cannot_settle_are_sampled():
    params = PerturbationParams(0.1, 0.0)
    # no member of a fusion frame spans R: its witness pair is sampled and fails
    fusion = generate("fusion", 2, 2, 4, seed=1)
    verdict = check_perturbation_inequality(fusion, fusion.scaled(1.2), params,
                                            seq_samples=64, vec_samples=16)
    assert verdict.certificate is None and verdict.n_sequences > 0
    assert not verdict.inequality_holds and verdict.witness.margin > 0
    assert verdict.witness.lhs / verdict.witness.rhs == pytest.approx(2.0, rel=1e-12)
    # ||C|| = 0.2 > eta, but beta = 0.1 lifts the right side to 0.22 ||f Z||:
    # beyond the certificate, the sampler passes it under its caveat
    orbit = unitary_orbit_frame(2, 2, 4, seed=1)
    verdict = check_perturbation_inequality(orbit, orbit.scaled(1.2), PerturbationParams(0.1, 0.1),
                                            seq_samples=64, vec_samples=16)
    assert verdict.certificate is None and verdict.n_sequences > 0
    assert verdict.inequality_holds and verdict.caveats == (SAMPLING_CAVEAT,)
    # at beta = 0 the same pair is an exact fail, and ||C|| <= eta passes
    # exactly at any beta
    assert check_perturbation_inequality(orbit, orbit.scaled(1.2), params).certificate.member == 0
    passing = check_perturbation_inequality(orbit, orbit.scaled(1.05), PerturbationParams(0.1, 0.1))
    assert passing.inequality_holds and passing.certificate is not None and passing.caveats == ()


def test_the_sampler_refuses_counts_no_array_can_hold():
    # the bound is the platform's largest array, in bytes, as for `gen`
    frame, nudged = _nudged_pair(3)
    params = PerturbationParams(0.05, 0.0)
    limit = np.iinfo(np.intp).max
    # 16 bytes times 4 coefficients per sequence, or times 2 x 4 entries per vector
    for counts in ({"seq_samples": limit // 64 + 1},
                   {"seq_samples": 8, "vec_samples": limit // 128 + 1}):
        with pytest.raises(InvalidDimensions, match="larger than any on this platform"):
            check_perturbation_inequality(frame, nudged, params, **counts)


def test_sampler_tries_the_smallest_support_null_combinations():
    """The dilation's members c_k Id decay to about 1e-16, so the null
    combinations whose support ends furthest out give margins near 0; the
    first dependency a = (c_1, -c_0, 0, ...) has rhs 0 against a nonzero
    lhs.  Against 1.05 Y + 0.01 Y' (no factor form) only the sampler
    decides, and it must try that combination to fail the pair."""
    frame, other = generate("dilation", 4, 4, 64, seed=1), generate("dilation", 4, 4, 64, seed=2)
    perturbed = _on_full_submodules(1.05 * frame.operators + 0.01 * other.operators, 4, 4)
    verdict = check_perturbation_inequality(frame, perturbed, PerturbationParams(0.1, 0.0),
                                            seq_samples=64, vec_samples=16)
    assert verdict.certificate is None
    assert not verdict.inequality_holds
    witness = verdict.witness
    assert witness.lhs > 1e-4 and witness.rhs < 1e-15
    lhs, rhs = oracles.inequality_sides(frame, perturbed, 0.1, 0.0,
                                        witness.coefficients, witness.vector)
    assert witness.lhs == pytest.approx(lhs, rel=1e-9) and witness.rhs <= rhs + 1e-15


@pytest.mark.parametrize("m", [4, 12, 24])
def test_candidate_null_combinations_are_taken_once(m):
    """Each family of rank 1 has m - 1 null combinations: all of them when
    m - 1 <= 16, else the 8 ending last and the 8 ending first."""
    frame = generate("dilation", 2, 2, m, seed=1)
    rows = perturb._candidate_sequences(frame, frame.scaled(1.2), 0, np.random.default_rng(0))
    per_family = min(m - 1, 16)
    assert rows.shape == (m + 3 * per_family, m)
    for k in range(3):
        block = rows[m + k * per_family:m + (k + 1) * per_family]
        np.testing.assert_allclose(block.conj() @ block.T, np.eye(per_family), atol=1e-12)
    _, null = null_combinations(frame.operators)
    expected = null if m - 1 <= 16 else np.vstack((null[:8], null[-8:]))
    np.testing.assert_array_equal(rows[m:m + per_family], expected)


def _per_sample_failures(frame, perturbed, interpretation, lower, upper, vec_samples, seed):
    """The vectors of `vec_samples` seeded draws that break lower <= middle
    <= upper in the PSD order, counted one at a time with psd_leq."""
    right = perturbed if interpretation == HAT_HAT else frame
    mid = np.einsum("kij,klj->il", perturbed.operators, right.operators.conj())
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(vec_samples):
        flat = (rng.standard_normal((frame.d, frame.n * frame.d))
                + 1j * rng.standard_normal((frame.d, frame.n * frame.d)))
        gram = flat @ flat.conj().T
        value = flat @ mid @ flat.conj().T
        value = (value + value.conj().T) / 2.0
        if not psd_leq(lower * gram, value, 1e-9) or not psd_leq(value, upper * gram, 1e-9):
            failures += 1
    return failures


@pytest.mark.parametrize("interpretation", [HAT_HAT, HAT_ORIGINAL])
def test_bounds_contained_agrees_with_per_sample_psd_leq(monkeypatch, interpretation):
    # the extreme eigenvalues decide what every sampled vector would: with
    # the bounds contained none of 40 fails, and with a derived lower bound
    # above lambda_min the check fails and so do some vectors
    frame = random_frame(2, 2, 3, seed=7)
    scaled = frame.scaled(1.05)
    params = PerturbationParams(0.1, 0.0)
    verdict = check_perturbation_inequality(frame, scaled, params, seed=1)
    checked = verify_perturbed_frame(frame, scaled, params, verdict, interpretation)
    assert checked.bounds_contained and checked.sample_failures == 0
    assert _per_sample_failures(frame, scaled, interpretation, checked.derived_lower,
                                checked.derived_upper, 40, 2) == 0
    lower = 1.05 ** 2 * frame_bounds(frame).lower * 1.5
    monkeypatch.setattr(perturb, "derived_bounds",
                        lambda bounds, p: (lower, derived_bounds(bounds, p)[1]))
    checked = verify_perturbed_frame(frame, scaled, params, verdict, interpretation)
    assert checked.derived_lower == lower
    assert checked.bounds_contained is False and checked.sample_failures is None
    assert _per_sample_failures(frame, scaled, interpretation, lower,
                                checked.derived_upper, 40, 2) > 0


def test_the_perturbed_frame_check_draws_nothing(monkeypatch):
    frame = random_frame(2, 2, 3, seed=7)
    scaled = frame.scaled(1.05)
    params = PerturbationParams(0.1, 0.0)
    verdict = check_perturbation_inequality(frame, scaled, params, seed=1)
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: draws.append(a) or default_rng(*a, **k))
    checked = [verify_perturbed_frame(frame, scaled, params, verdict, interpretation, seed=seed)
               for interpretation in (HAT_HAT, HAT_ORIGINAL) for seed in (0, 7)]
    assert draws == []
    assert checked[0] == checked[1] and checked[2] == checked[3]


def test_derived_bounds_values():
    assert derived_bounds(FrameBounds(2.0, 3.0), PerturbationParams(0.0, 0.0)) == (2.0, 3.0)
    lo, hi = derived_bounds(FrameBounds(1.0, 1.0), PerturbationParams(1.0 / 3.0, 0.0))
    assert lo == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert hi == pytest.approx(16.0 / 9.0, rel=1e-12)
    lo, hi = derived_bounds(FrameBounds(2.0, 3.0), PerturbationParams(0.0, 0.5))
    assert lo == pytest.approx(8.0 / 9.0, rel=1e-12)
    assert hi == pytest.approx(12.0, rel=1e-12)


def test_derived_bounds_monotone_in_params():
    grid = [k / 10 for k in range(10)]
    bounds = FrameBounds(1.5, 2.5)
    for eta in grid:
        for beta in grid:
            lo, hi = derived_bounds(bounds, PerturbationParams(eta, beta))
            lo2, hi2 = derived_bounds(bounds, PerturbationParams(min(eta + 0.1, 0.99), beta))
            assert lo2 <= lo + 1e-12 and hi2 >= hi - 1e-12
            lo3, hi3 = derived_bounds(bounds, PerturbationParams(eta, min(beta + 0.1, 0.99)))
            assert lo3 <= lo + 1e-12 and hi3 >= hi - 1e-12


def test_verify_identical_families():
    frame = random_frame(2, 1, 3, seed=6)
    lower, upper = frame_bounds(frame)
    params = PerturbationParams(0.0, 0.0)
    verdict = verify_perturbed_frame(frame, frame, params,
                                     check_perturbation_inequality(frame, frame, params), seed=0)
    assert verdict.bounds_contained
    assert verdict.derived_lower == pytest.approx(lower, rel=1e-12)
    assert verdict.derived_upper == pytest.approx(upper, rel=1e-12)
    assert verdict.empirical_lower == pytest.approx(lower, rel=1e-12)
    assert verdict.empirical_upper == pytest.approx(upper, rel=1e-12)
    assert verdict.sample_failures == 0


def test_verify_scaled_family_attains_upper_bound():
    eps = 0.1
    frame = random_frame(2, 2, 3, seed=7)
    lower, upper = frame_bounds(frame)
    scaled = frame.scaled(1.0 + eps)
    params = PerturbationParams(eps, 0.0)
    verdict = verify_perturbed_frame(frame, scaled, params,
                                     check_perturbation_inequality(frame, scaled, params, seed=1),
                                     seed=1)
    assert verdict.bounds_contained
    assert verdict.empirical_lower == pytest.approx(1.21 * lower, rel=1e-10)
    assert verdict.empirical_upper == pytest.approx(1.21 * upper, rel=1e-10)
    assert verdict.derived_upper == pytest.approx(verdict.empirical_upper, rel=1e-8)


def test_hat_hat_matches_perturbed_frame_bounds():
    frame = random_frame(3, 1, 4, seed=8)
    perturbed = frame.scaled(1.02)
    params = PerturbationParams(0.05, 0.0)
    inequality = check_perturbation_inequality(frame, perturbed, params)
    verdict = verify_perturbed_frame(frame, perturbed, params, inequality, seed=0)
    plower, pupper = frame_bounds(perturbed)
    assert verdict.empirical_lower == pytest.approx(plower, rel=1e-10)
    assert verdict.empirical_upper == pytest.approx(pupper, rel=1e-10)


def test_hat_original_interpretation_on_identical_families():
    frame = random_frame(2, 1, 3, seed=9)
    lower, upper = frame_bounds(frame)
    params = PerturbationParams(0.0, 0.0)
    verdict = verify_perturbed_frame(frame, frame, params,
                                     check_perturbation_inequality(frame, frame, params),
                                     interpretation=HAT_ORIGINAL, seed=0)
    assert verdict.empirical_lower == pytest.approx(lower, rel=1e-12)
    assert verdict.empirical_upper == pytest.approx(upper, rel=1e-12)
    assert any("hat_original" in c for c in verdict.caveats)


def test_verify_takes_the_frame_bounds_once_under_the_passed_params(monkeypatch):
    frame = random_frame(2, 2, 3, seed=7)
    scaled = frame.scaled(1.05)
    params = PerturbationParams(0.1, 0.0)
    expected = derived_bounds(frame_bounds(frame), params)
    calls = []

    def counted(f):
        calls.append(f)
        return frame_bounds(f)

    monkeypatch.setattr(perturb, "frame_bounds", counted)
    verdict = check_perturbation_inequality(frame, scaled, params, seed=1)
    checked = verify_perturbed_frame(frame, scaled, params, seed=1, inequality=verdict)
    assert len(calls) == 1
    assert (checked.derived_lower, checked.derived_upper) == expected
    # a verdict taken under other params is refused
    with pytest.raises(ValueError, match="checked under"):
        verify_perturbed_frame(frame, scaled, PerturbationParams(0.2, 0.0), seed=1,
                               inequality=verdict)
    assert len(calls) == 1


def test_verify_refuses_a_verdict_taken_under_other_params():
    # the pair holds at eta 0.2 and fails at 0.05: the 0.2 verdict must not
    # stand for 0.05
    frame = random_frame(2, 1, 3, seed=10)
    scaled = frame.scaled(1.1)
    loose, tight = PerturbationParams(0.2, 0.0), PerturbationParams(0.05, 0.0)
    verdict = check_perturbation_inequality(frame, scaled, loose)
    assert verdict.inequality_holds
    assert not check_perturbation_inequality(frame, scaled, tight).inequality_holds
    with pytest.raises(ValueError):
        verify_perturbed_frame(frame, scaled, tight, verdict, seed=0)
    assert verify_perturbed_frame(frame, scaled, loose, verdict, seed=0).params == loose


def test_verify_does_not_reuse_another_frames_bounds():
    frame = random_frame(2, 2, 3, seed=7)
    other = frame.scaled(2.0)
    params = PerturbationParams(0.1, 0.0)
    verdict = check_perturbation_inequality(frame, frame, params, seed=1)
    checked = verify_perturbed_frame(other, other, params, seed=1, inequality=verdict)
    assert (checked.derived_lower, checked.derived_upper) == derived_bounds(frame_bounds(other), params)
    assert checked.derived_upper != derived_bounds(frame_bounds(frame), params)[1]


def test_verify_still_rejects_a_family_that_is_not_a_frame():
    p0 = Submodule(ModuleOperator(np.diag([1.0, 0.0]).astype(complex), 2, 1))
    single = GFusionFrame([(p0, p0.projection)])
    verdict = check_perturbation_inequality(single, single, PerturbationParams(0.0, 0.0))
    assert verdict.inequality_holds and verdict.derived_lower is None
    with pytest.raises(NotAFrame):
        verify_perturbed_frame(single, single, PerturbationParams(0.0, 0.0), inequality=verdict)


def test_verify_raises_when_inequality_fails():
    frame = random_frame(2, 1, 3, seed=10)
    scaled = frame.scaled(1.1)
    params = PerturbationParams(0.05, 0.0)
    verdict = check_perturbation_inequality(frame, scaled, params)
    with pytest.raises(InequalityNotVerified):
        verify_perturbed_frame(frame, scaled, params, verdict, seed=0)


def test_margin_invariant_under_unitary_conjugation():
    frame = random_frame(2, 2, 3, seed=11)
    perturbed = frame.scaled(1.03)
    params = PerturbationParams(0.05, 0.02)
    rng = np.random.default_rng(12)
    w = random_unitary(rng, 4)
    alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f = random_vector(rng, 2, 2)

    def conjugate(fr):
        elements = []
        for e in fr.elements:
            proj = w.conj().T @ e.submodule.projection.matrix @ w
            op = w.conj().T @ e.operator.matrix @ w
            elements.append((Submodule(ModuleOperator(proj, 2, 2)), ModuleOperator(op, 2, 2)))
        return GFusionFrame(elements, fr.index_convention)

    f_rot = ModuleVector(f.flat @ w, 2, 2)
    lhs, rhs = oracles.inequality_sides(frame, perturbed, params.eta, params.beta, alpha, f)
    lhs2, rhs2 = oracles.inequality_sides(conjugate(frame), conjugate(perturbed),
                                          params.eta, params.beta, alpha, f_rot)
    assert lhs2 == pytest.approx(lhs, rel=1e-10)
    assert rhs2 == pytest.approx(rhs, rel=1e-10)
    # the batched kernel gives the same sides on the conjugated pair
    terms = [f_rot.flat @ fr.operators for fr in (conjugate(frame), conjugate(perturbed))]
    batch = perturb._batch_margins(alpha[None], *terms, params)
    assert [float(side[0]) for side in batch] == pytest.approx([lhs2, rhs2], rel=1e-10)


def test_length_mismatch():
    a = random_frame(2, 1, 3, seed=13)
    b = random_frame(2, 1, 2, seed=13)
    with pytest.raises(LengthMismatch):
        check_perturbation_inequality(a, b, PerturbationParams(0.1, 0.1))


def test_shape_mismatch_is_a_dimension_mismatch():
    a = random_frame(2, 1, 3, seed=13)
    b = random_frame(1, 2, 3, seed=13)  # the same n*d
    with pytest.raises(DimensionMismatch, match=r"different \(n, d\)"):
        check_perturbation_inequality(a, b, PerturbationParams(0.1, 0.1))


# ---------------------------------------------------------------------------
# independence transfer


def test_transfer_on_identical_independent_family():
    frame = random_frame(2, 1, 3, seed=14)
    params = PerturbationParams(0.0, 0.0)
    assert independence_transfer(frame, frame, check_perturbation_inequality(frame, frame, params))


def test_transfer_on_scaled_family():
    frame = random_frame(2, 1, 3, seed=15)
    params = PerturbationParams(0.1, 0.0)
    scaled = frame.scaled(1.1)
    verdict = check_perturbation_inequality(frame, scaled, params)
    assert independence_transfer(frame, scaled, verdict)


def test_transfer_requires_independent_base():
    frame = unitary_orbit_frame(2, 1, 4, seed=16)  # period-two orbit is dependent
    params = PerturbationParams(0.0, 0.0)
    verdict = check_perturbation_inequality(frame, frame, params)
    with pytest.raises(BaseNotIndependent):
        independence_transfer(frame, frame, verdict)


def _near_dependent_pair(side: float):
    """(base, perturbed) on A^2 over M_2: the 16 matrix units but E_33, with
    member 2 equal to E_00 + E_01 + eps E_33 in the base and to E_00 + E_01
    in the perturbed family, which is therefore dependent through
    (1, 1, -1, 0, ...).  That combination has norm eps on the base, whose
    largest member norm is sqrt(2); eps is `side` times the bound
    RANK_TOL m max ||Y|| up to which it counts as annihilating the base.
    The base is independent for eps above about 4e-10."""
    units = np.eye(16, dtype=np.complex128).reshape(16, 4, 4)
    mats = np.concatenate([units[:2], units[:1] + units[1:2], units[2:15]])
    full = Submodule.full(2, 2)
    families = []
    for bump in (side * RANK_TOL * 16 * np.sqrt(2.0), 0.0):
        ops = mats.copy()
        ops[2, 3, 3] = bump
        families.append(GFusionFrame([(full, ModuleOperator(x, 2, 2)) for x in ops]))
    return tuple(families)


@pytest.mark.parametrize("side", [0.5, 2.0])
def test_transfer_of_a_dependent_perturbation_against_an_independent_base(side):
    # a dependent perturbed family beside a passing verdict: past the bound
    # the pass was a miss, within it the perturbed family is dependent
    base, perturbed = _near_dependent_pair(side)
    assert base.max_operator_norm() == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert null_combinations(base.operators)[0] == 16
    assert null_combinations(perturbed.operators)[0] == 15
    passing = PerturbationVerdict(PerturbationParams(0.1, 0.0), True, None, 0, 0)
    if side < 1.0:
        assert independence_transfer(base, perturbed, passing) is False
    else:
        with pytest.raises(InequalityNotVerified, match="fails to annihilate"):
            independence_transfer(base, perturbed, passing)


def test_dependent_perturbation_fails_the_inequality_itself():
    # base independent, perturbed collapsed onto a single member: by the
    # contrapositive no (eta, beta) in [0,1) can satisfy the inequality, and
    # the targeted null-combination candidates expose it
    frame = random_frame(2, 1, 2, seed=17)
    e0 = frame.elements[0]
    collapsed = GFusionFrame(
        [e0, (frame.elements[1].submodule,
              ModuleOperator(np.zeros((2, 2), dtype=complex), 2, 1))],
        frame.index_convention,
    )
    verdict = check_perturbation_inequality(frame, collapsed, PerturbationParams(0.3, 0.3),
                                            seq_samples=16, vec_samples=8, seed=0)
    assert not verdict.inequality_holds
    with pytest.raises(InequalityNotVerified):
        independence_transfer(frame, collapsed, verdict)
