import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gframemod import perturb
from gframemod.algebra import psd_leq
from gframemod.exceptions import (
    BaseNotIndependent,
    DimensionMismatch,
    InequalityNotVerified,
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
from gframemod.hilbert import ModuleOperator, ModuleVector, Submodule
from gframemod.numerics import FACTOR_TOL
from gframemod.perturb import (
    HAT_ORIGINAL,
    SAMPLING_CAVEAT,
    PerturbationParams,
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
    per `_normalized_margins` call (the ascent's calls, on one row, left
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


def _per_sample_failures(frame, perturbed, lower, upper, vec_samples, seed):
    """sample_failures counted one vector at a time with psd_leq."""
    mid = perturbed.operators.conj().swapaxes(1, 2)
    mid = np.einsum("kij,kjl->il", perturbed.operators, mid)
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


def test_batched_sample_failures_match_per_sample_psd_leq(monkeypatch):
    frame = random_frame(2, 2, 3, seed=7)
    scaled = frame.scaled(1.05)
    params = PerturbationParams(0.1, 0.0)
    verdict = check_perturbation_inequality(frame, scaled, params, seed=1)
    checked = verify_perturbed_frame(frame, scaled, params, vec_samples=40, seed=2,
                                     inequality=verdict)
    assert checked.sample_failures == 0
    assert checked.sample_failures == _per_sample_failures(
        frame, scaled, checked.derived_lower, checked.derived_upper, 40, 2)
    # a derived lower bound above the true one makes some samples fail
    lower = 1.05 ** 2 * frame_bounds(frame).lower * 1.5
    monkeypatch.setattr(perturb, "derived_bounds",
                        lambda bounds, p: (lower, derived_bounds(bounds, p)[1]))
    checked = verify_perturbed_frame(frame, scaled, params, vec_samples=40, seed=2,
                                     inequality=verdict)
    assert checked.derived_lower == lower
    expected = _per_sample_failures(frame, scaled, lower, checked.derived_upper, 40, 2)
    assert 0 < expected < 40
    assert checked.sample_failures == expected


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
