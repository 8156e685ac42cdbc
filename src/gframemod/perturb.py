"""Perturbation stability of representable families.

The central object is the two-family inequality

    || sum a_xi (Y_xi - Yhat_xi) f || <= eta || sum a_xi Y_xi f ||
                                       + beta || sum a_xi Yhat_xi f ||

quantified over all vectors f and all finite complex coefficient sequences
a.  A factor pair, Yhat_xi = Y_xi (I - C), is decided exactly (Casazza &
Christensen, 1997).  C = V^+ W, with V and W the stacked Y_xi and
Y_xi - Yhat_xi, lies in R, the span of the members' row spaces, and
lhs = ||f Z(a) C|| for Z(a) = sum a_xi Y_xi; so ||P_R C|| = ||C|| <= eta
passes for every beta >= 0.  The top left singular row x of C attains
||C||; when x lies in the row space of the largest member Y_k, the row
g = x Y_k^+ and a = e_k attain it too, so ||C|| > eta fails at beta = 0.
Any other pair is sampled, which is evidence, not proof: the sampler runs
every standard-basis sequence, seeded random dense sequences, targeted null
combinations of either family, and the best sequence at the worst witness's
row, a top eigenvector that decides that row exactly at beta = 0 (see
`_worst_coefficients`).  A sampled pass means "not falsified at N samples".

The worst f can always be one row g = u f (u a unit row with ||g X|| =
||f X||, X = sum a_xi (Y_xi - Yhat_xi)): the right side cannot grow.  So
each drawn vector is probed through its d rows, with Euclidean norms.  A
margin lhs - rhs is normalised by sum |a_xi| max(max ||Y||, max ||Yhat||),
the size both sides can reach for a unit row, so verdicts do not depend on
the families' scale.  The first (vector, row, sequence) triple within
TIE_TOL relative of the worst normalised margin is the witness, with its
phases fixed, so rounding cannot pick it.

The derived frame bounds of the perturbed family use the middle term in two
switchable readings, because the as-printed pairing <Yhat f, Y f> is not
sign-definite: `hat_hat` (the standard perturbation reading, equal to the
frame operator of the perturbed family) is the default; `hat_original`
evaluates the printed pairing, Hermitized before eigen-analysis.  The
bounds are decided from the extreme eigenvalues of that Hermitized middle
matrix M_h alone: for any block F, F M_h F^H - lo F F^H = F (M_h - lo I) F^H,
so no vector can fail once lo <= lambda_min(M_h) and lambda_max(M_h) <= hi,
and none is drawn.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import (
    BaseNotIndependent,
    DimensionMismatch,
    InequalityNotVerified,
    InvalidDimensions,
    LengthMismatch,
)
from .frames import GFusionFrame, frame_bounds, frame_operator
from .hilbert import ModuleVector, gram_sum, null_combinations
from .numerics import (
    BOUNDS_TOL,
    FACTOR_TOL,
    MARGIN_TOL,
    RANK_TOL,
    TIE_TOL,
    _first_tied,
    rank,
    spectral_norms,
)
from .represent import _combination_norm, independence_analysis

DEFAULT_SEQ_SAMPLES = 256
_BATCH = 1 << 16  # complex entries of one combination product over the sequences
HAT_HAT = "hat_hat"
HAT_ORIGINAL = "hat_original"

SAMPLING_CAVEAT = (
    "inequality not falsified at the sampled sequence/vector pairs; a "
    "sampled check is evidence, not a proof"
)
HAT_ORIGINAL_CAVEAT = (
    "hat_original pairs perturbed with original actions as printed; the "
    "pairing is Hermitized before eigen-analysis and is not sign-definite "
    "in general"
)


def vector_samples(seq_samples: int) -> int:
    """The vectors drawn alongside `seq_samples` coefficient sequences."""
    return max(8, seq_samples // 4)


@dataclass(frozen=True)
class PerturbationParams:
    eta: float
    beta: float

    def __post_init__(self):
        if not (0.0 <= self.eta < 1.0 and 0.0 <= self.beta < 1.0):
            raise ValueError(f"eta and beta must lie in [0, 1), got ({self.eta}, {self.beta})")


@dataclass(frozen=True)
class InequalityWitness:
    coefficients: np.ndarray  # (m,) complex
    vector: ModuleVector
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class FactorCertificate:
    norm: float  # ||P_R C||
    residual: float  # ||V C - W|| / max(max ||Y||, max ||Yhat||)
    member: int  # k of the witness a = e_k


@dataclass(frozen=True)
class PerturbationVerdict:
    params: PerturbationParams
    inequality_holds: bool
    witness: Optional[InequalityWitness]
    n_sequences: int
    n_vectors: int
    derived_lower: Optional[float] = None
    derived_upper: Optional[float] = None
    empirical_lower: Optional[float] = None
    empirical_upper: Optional[float] = None
    bounds_contained: Optional[bool] = None
    sample_failures: Optional[int] = None
    caveats: tuple = ()
    certificate: Optional[FactorCertificate] = None  # None: a sampled verdict


def _check_shapes(frame: GFusionFrame, perturbed: GFusionFrame):
    if len(frame) != len(perturbed):
        raise LengthMismatch("families have different lengths")
    if (frame.n, frame.d) != (perturbed.n, perturbed.d):
        raise DimensionMismatch("families have different (n, d)")


def _sides(combine, terms: np.ndarray, terms_hat: np.ndarray, params: PerturbationParams):
    """lhs and rhs of the inequality from `combine`, which maps a stack of
    per-member applied vectors to one r x n*d block per sequence, and the
    spectral norm of each block (Euclidean for rows)."""
    lhs = spectral_norms(combine(terms - terms_hat))
    rhs = params.eta * spectral_norms(combine(terms))
    if params.beta != 0.0:
        rhs = rhs + params.beta * spectral_norms(combine(terms_hat))
    return lhs, rhs


def _batch_margins(alphas: np.ndarray, terms: np.ndarray, terms_hat: np.ndarray,
                   params: PerturbationParams):
    """lhs and rhs of the inequality for a batch of coefficient rows against
    fixed per-member applied vectors of shape (m, ..., r, n*d): one matmul
    per combination over the terms read as (m, -1).  Margins have shape
    (S, ...)."""
    m, shape = terms.shape[0], terms.shape[1:]
    return _sides(lambda x: (alphas @ x.reshape(m, -1)).reshape(-1, *shape),
                  terms, terms_hat, params)


def _candidate_sequences(frame, perturbed, seq_samples: int, rng) -> np.ndarray:
    """The sampled sequences past the m standard-basis ones, which are read
    off the member terms (see `_normalized_margins`): of either family and their
    difference, the null combinations that `null_combinations` keeps, each
    once, or e_0 for an all-zero family; then seeded dense unit sequences
    up to `seq_samples` in all."""
    m = len(frame)
    rows = []
    for mats in (frame.operators, perturbed.operators, frame.operators - perturbed.operators):
        r, null = null_combinations(mats)
        rows.append(null if r else np.eye(1, m, dtype=np.complex128))
    extra = max(0, seq_samples - m)
    if extra:
        dense = rng.standard_normal((extra, m)) + 1j * rng.standard_normal((extra, m))
        dense /= np.linalg.norm(dense, axis=1, keepdims=True)
        rows.append(dense)
    return np.vstack(rows)


def _normalized_margins(alphas, terms, terms_hat, params: PerturbationParams, size: float,
                        basis: bool = False):
    """(lhs - rhs) / (sum |a| * size) for each coefficient row, on the last
    axis, with `size` the families' largest operator norm (see the module
    docstring).  With `basis`, the m standard-basis sequences come first;
    their combinations are the member terms themselves, so they take no
    product."""
    lhs, rhs = _batch_margins(alphas, terms, terms_hat, params)
    weights = np.abs(alphas).sum(axis=1)
    if basis:
        basis_lhs, basis_rhs = _sides(lambda x: x, terms, terms_hat, params)
        lhs, rhs = np.concatenate((basis_lhs, lhs)), np.concatenate((basis_rhs, rhs))
        weights = np.concatenate((np.ones(terms.shape[0]), weights))
    return np.moveaxis(lhs - rhs, 0, -1) / np.maximum(weights * size, 1e-300)


def _worst_coefficients(terms: np.ndarray, terms_hat: np.ndarray, params: PerturbationParams):
    """The unit sequence a maximising ||a D||^2 - eta^2 ||a Z||^2 - beta^2 ||a Zhat||^2
    for the (m, n*d) applied rows Z = `terms` and Zhat = `terms_hat` of one
    probe row, D = Z - Zhat: the conjugate of the top eigenvector of the
    Hermitian form M diag(1, -eta^2, -beta^2) M^H, M = [D | Z | Zhat] = Q R,
    taken from the small R diag(...) R^H, so no (m, m) array is formed.

    At beta = 0 a positive top eigenvalue is exactly a failing sequence at
    the row; at any beta a form <= 0 everywhere means none fails there."""
    q, r = np.linalg.qr(np.hstack((terms - terms_hat, terms, terms_hat)))
    weights = np.repeat([1.0, -params.eta ** 2, -params.beta ** 2], terms.shape[1])
    return (q @ np.linalg.eigh((r * weights) @ r.conj().T)[1][:, -1]).conj()


def _phase_fixed(z: np.ndarray) -> np.ndarray:
    """z turned by the phase that makes its first largest-modulus entry > 0."""
    j = int(np.argmax(np.abs(z)))
    out = z * (np.conj(z[j]) / max(abs(z[j]), 1e-300))
    out[j] = abs(z[j])
    return out


def _factor_certificate(frame, perturbed, params: PerturbationParams, size: float):
    """(holds, certificate, witness row) when the pair has factor form and
    that decides the inequality exactly (see the module docstring)."""
    nd = frame.n * frame.d
    v = frame.operators.reshape(-1, nd)
    w = v - perturbed.operators.reshape(-1, nd)
    c, _, r, _ = np.linalg.lstsq(v, w, rcond=RANK_TOL)  # V^+ W, inside R
    residual = float(np.linalg.norm(v @ c - w, 2)) / max(size, 1e-300)
    if r == 0 or not residual <= FACTOR_TOL:
        return None
    left, sigma, _ = np.linalg.svd(c)
    holds = bool(sigma[0] <= params.eta + MARGIN_TOL)
    if not (holds or params.beta == 0.0):
        return None
    # x, a unit row of the top left singular subspace of C, attains ||C||; so
    # does g = x Y_k^+ when g Y_k = x, Y_k the first member of largest norm.
    # x is row j of the subspace's projector P = I - U U^H (U: the untied
    # left singular vectors), j the first largest diagonal entry of P, so no
    # turn of the tied basis moves a bit of x; ties are within TIE_TOL
    k = _first_tied(frame._operator_norms)
    untied = left[:, sigma < (1.0 - TIE_TOL) * sigma[0]]
    diagonal = 1.0 - (untied.real ** 2 + untied.imag ** 2).sum(axis=1)
    j = _first_tied(diagonal)
    x = -(untied[j] @ untied.conj().T)
    x[j] = diagonal[j]
    x /= np.linalg.norm(x)
    g = x @ np.linalg.pinv(frame.operators[k], rcond=RANK_TOL)
    if not np.linalg.norm(g @ frame.operators[k] - x) <= FACTOR_TOL:
        return None
    return holds, FactorCertificate(float(sigma[0]), residual, k), g / np.linalg.norm(g)


def _witness(frame, perturbed, params, alpha, row, r: int = 0) -> InequalityWitness:
    """The witness of sequence `alpha` and unit row `row` (in row r), phase-fixed."""
    alpha, row = _phase_fixed(alpha), _phase_fixed(row)
    lhs, rhs = _batch_margins(alpha[None], row @ frame.operators[:, None],
                              row @ perturbed.operators[:, None], params)
    block = np.zeros((frame.d, frame.n * frame.d), dtype=np.complex128)
    block[r] = row
    return InequalityWitness(alpha, ModuleVector(block, frame.n, frame.d),
                             float(lhs[0]), float(rhs[0]))


def check_perturbation_inequality(frame: GFusionFrame, perturbed: GFusionFrame,
                                  params: PerturbationParams,
                                  seq_samples: int = DEFAULT_SEQ_SAMPLES,
                                  vec_samples: int = vector_samples(DEFAULT_SEQ_SAMPLES),
                                  seed: int = 0) -> PerturbationVerdict:
    """Decide the two-family inequality and report a witness.

    A pair that the factor certificate settles gets an exact verdict and no
    samples.  Otherwise `inequality_holds` is True when no sampled
    (sequence, row) pair, over the d rows of each drawn vector, has a
    normalised margin above MARGIN_TOL, nor does the best sequence at the
    worst witness's row.  InvalidDimensions is raised when the sequences or
    the vectors would need an array larger than any on the platform.
    """
    _check_shapes(frame, perturbed)
    size = max(frame.max_operator_norm(), perturbed.max_operator_norm())
    certified = _factor_certificate(frame, perturbed, params, size)
    if certified is not None:
        holds, certificate, row = certified
        alpha = np.eye(1, len(frame), certificate.member, dtype=np.complex128)[0]
        return PerturbationVerdict(params, holds, _witness(frame, perturbed, params, alpha, row),
                                   n_sequences=0, n_vectors=0, certificate=certificate)
    m, n_vectors = len(frame), max(1, vec_samples)
    if 16 * max(seq_samples * m, n_vectors * frame.d * frame.n * frame.d) > np.iinfo(np.intp).max:
        raise InvalidDimensions(f"{seq_samples} sequences of {m} coefficients or {n_vectors} "
                                "vectors need an array larger than any on this platform")
    rng = np.random.default_rng(seed)
    alphas = _candidate_sequences(frame, perturbed, seq_samples, rng)
    n_sequences = m + alphas.shape[0]  # the standard basis first
    draw = rng.standard_normal((n_vectors, 2, frame.d, frame.n * frame.d))  # real part first
    rows = draw[:, 0] + 1j * draw[:, 1]
    rows /= np.maximum(np.linalg.norm(rows, axis=2), 1e-300)[:, :, None]

    def applied(batch):
        """The terms f Y_xi and f Yhat_xi of a batch of vectors, each of
        shape (m, vectors, d, n*d)."""
        return tuple(rows[None, batch] @ family.operators[:, None]
                     for family in (frame, perturbed))

    normalized = np.empty((n_vectors, frame.d, n_sequences))
    # each combination product, and each batch's terms, holds at most
    # _BATCH entries, or one vector's
    step = max(1, _BATCH // (n_sequences * frame.d * frame.n * frame.d))
    for v in range(0, n_vectors, step):
        batch = slice(v, v + step)
        terms, terms_hat = applied(batch)
        normalized[batch] = _normalized_margins(alphas, terms[:, :, :, None],
                                                terms_hat[:, :, :, None], params, size, True)
    margin = float(normalized.max())
    ties = normalized >= margin - TIE_TOL * abs(margin)
    v, r, k = np.unravel_index(np.argmax(ties), ties.shape)
    alpha = np.eye(1, m, k, dtype=np.complex128)[0] if k < m else alphas[k - m]
    row = rows[v, r]
    if margin <= MARGIN_TOL:
        terms, terms_hat = (t[:, 0, r] for t in applied(slice(v, v + 1)))
        best = _worst_coefficients(terms, terms_hat, params)
        refined = float(_normalized_margins(best[None], terms[:, None], terms_hat[:, None],
                                            params, size)[0])
        if refined > margin:
            alpha, margin = best, refined
    witness = _witness(frame, perturbed, params, alpha, row, r)
    holds = margin <= MARGIN_TOL
    return PerturbationVerdict(
        params=params, inequality_holds=holds, witness=witness,
        n_sequences=n_sequences, n_vectors=n_vectors,
        caveats=(SAMPLING_CAVEAT,) if holds else (),
    )


def derived_bounds(bounds, params: PerturbationParams):
    """(((1-eta)/(1+beta))^2 A, ((1+eta)/(1-beta))^2 B)."""
    lower, upper = bounds
    lo = ((1.0 - params.eta) / (1.0 + params.beta)) ** 2 * lower
    hi = ((1.0 + params.eta) / (1.0 - params.beta)) ** 2 * upper
    return lo, hi


def _verified(frame, perturbed, inequality: PerturbationVerdict):
    """InequalityNotVerified unless the check `inequality` passed."""
    _check_shapes(frame, perturbed)
    if not inequality.inequality_holds:
        raise InequalityNotVerified(
            f"inequality violated by margin {inequality.witness.margin:.3e}"
        )


def _middle_matrix(frame: GFusionFrame, perturbed: GFusionFrame, interpretation: str):
    if interpretation == HAT_HAT:
        return frame_operator(perturbed).matrix
    if interpretation == HAT_ORIGINAL:
        return gram_sum(perturbed.operators, frame.operators)
    raise ValueError(f"interpretation must be {HAT_HAT!r} or {HAT_ORIGINAL!r}")


def verify_perturbed_frame(frame: GFusionFrame, perturbed: GFusionFrame,
                           params: PerturbationParams,
                           inequality: PerturbationVerdict,
                           interpretation: str = HAT_HAT,
                           seed: int = 0) -> PerturbationVerdict:
    """Empirical optimal bounds of the middle term against the derived ones.

    `inequality` is the verdict of `check_perturbation_inequality` on the
    two families under `params`; ValueError is raised when it was taken
    under other params, and InequalityNotVerified when it failed.  Under
    hat_hat the empirical bounds are exactly the frame bounds of the
    perturbed family; under hat_original they are the extreme eigenvalues of
    the Hermitized mixed matrix.  The empirical bounds are contained when
    within BOUNDS_TOL times the derived upper bound of the derived ones.
    The check is exact and draws nothing, so `seed` does not change it:
    `sample_failures` is 0 when the bounds are contained (no vector can
    fail, see the module docstring) and None otherwise.
    """
    if params != inequality.params:
        raise ValueError(f"the inequality was checked under {inequality.params}, not {params}")
    _verified(frame, perturbed, inequality)
    d_lo, d_hi = derived_bounds(frame_bounds(frame), params)  # NotAFrame when S is singular
    mid = _middle_matrix(frame, perturbed, interpretation)
    mid_h = (mid + mid.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(mid_h)
    e_lo, e_hi = float(eigs[0]), float(eigs[-1])
    contained = d_lo <= e_lo + BOUNDS_TOL * d_hi and e_hi <= d_hi + BOUNDS_TOL * d_hi

    caveats = list(inequality.caveats)
    if interpretation == HAT_ORIGINAL:
        caveats.append(HAT_ORIGINAL_CAVEAT)
    return replace(  # the verified check's witness and sample counts
        inequality, derived_lower=d_lo, derived_upper=d_hi,
        empirical_lower=e_lo, empirical_upper=e_hi,
        bounds_contained=contained, sample_failures=0 if contained else None,
        caveats=tuple(caveats),
    )


def independence_transfer(frame: GFusionFrame, perturbed: GFusionFrame,
                          inequality: PerturbationVerdict) -> bool:
    """Independence verdict of the perturbed family, given an independent
    base family and `inequality`, a passing verdict of
    `check_perturbation_inequality` on the two families.

    The base is decided from its rank alone: a dependent base raises
    BaseNotIndependent before its dependency is normalised or its null
    combination's norm taken.  When the perturbed family comes out
    dependent, its null combination is fed back through the inequality's
    contrapositive: the same coefficients must annihilate the base family,
    which contradicts base independence, so a verified inequality and a
    dependent perturbed family cannot coexist; the inconsistency is raised
    as InequalityNotVerified.
    """
    _verified(frame, perturbed, inequality)
    m = len(frame)
    if rank(np.linalg.svd(frame.operators.reshape(m, -1), compute_uv=False)) < m:
        raise BaseNotIndependent("the unperturbed family is linearly dependent")
    report = independence_analysis(perturbed)
    if report.verdict == "independent":
        return True
    if _combination_norm(frame, report.coefficients) > RANK_TOL * m:
        raise InequalityNotVerified(
            "a null combination of the perturbed family fails to annihilate "
            "the base family; the sampled inequality pass was a miss"
        )
    return False
