"""Shift representability of operator families.

A family {Y_xi} is represented via T when T Y_xi = Y_{xi+1} for every
consecutive index pair (all pairs wrap around under the cyclic convention;
the linear convention constrains xi = 0 .. m-2 only).  T is recovered as the
minimal-norm least-squares solution of the stacked flattened system; for the
free module A^n the unstructured minimizer automatically carries the
A-linear block structure, so no structural restriction is needed.

The finite/infinite gap is reported, never hidden: a linear window drops the
boundary shift constraint, so norm and kernel conclusions that hold for
two-sided families may fail at the window edge and are recorded with a
caveat.  The cyclic convention is the faithful finite model of a
shift-invariant family.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    DegenerateSpan,
    HypothesisViolation,
    NotInvertible,
    NotRepresentable,
    NotTight,
)
from .frames import GFusionFrame, analysis, frame_bounds
from .hilbert import (
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    _check_convention,
    _check_shapes,
    contained,
    gram_sum,
    null_combinations,
    shift_pairs,
)
from .numerics import (
    HYPOTHESIS_TOL,
    INVARIANCE_TOL,
    INVERT_TOL,
    MEMBERSHIP_TOL,
    RANK_TOL,
    REPRESENT_TOL,
    SNAP_TOL,
    _first_tied,
    at_least,
    at_most,
    hermitian_within,
    rank,
    spectral_norms,
    threshold,
)

KERNEL_SAMPLES = 100  # seeded synthesis-kernel elements the invariance check draws
KERNEL_CHUNK_BYTES = 1 << 20  # kernel coordinates drawn at a time, bounding the check's memory
CAVEATS = {  # the caveat every report of a convention carries
    "linear": "linear index window: the shift constraint stops at the window edge, so "
              "conclusions stated for two-sided families hold only up to boundary terms",
    "cyclic": "cyclic index convention: the family is treated as shift-periodic, the "
              "faithful finite model of a shift-invariant family",
}


def _shift_solve(mats, convention: str):
    """The two sides of mats[i] X = mats[b[i]] stacked over the slots i < k of
    the right shift (k, b) of `convention`, and the minimal-norm least-squares
    X from one pinv of the left side; DegenerateSpan when there is no slot."""
    k, b = shift_pairs(len(mats), convention)
    if k == 0:
        raise DegenerateSpan(f"the {convention} shift of one member has no slot")
    lhs, rhs = mats[:k], mats[b]
    nd = mats.shape[-1]
    return lhs, rhs, np.linalg.pinv(lhs.reshape(-1, nd), rcond=RANK_TOL) @ rhs.reshape(-1, nd)


@dataclass(frozen=True)
class RepresentationResult:
    """Solution of the shift system on span{N_xi}, zero on its complement."""

    operator_T: ModuleOperator
    residual: float  # max over constraints of ||T Y_xi - Y_{xi+1}||
    residual_frobenius: float  # sqrt of the minimized sum of squares
    norm_T: float  # operator norm of P_span T P_span
    span_projection: Submodule
    convention: str
    scale: float  # max ||Y_xi||, the residual's natural reference

    def is_representable(self) -> bool:
        return at_most(self.residual, 0.0, REPRESENT_TOL, self.scale)


def _require_representable(rep: RepresentationResult):
    if not rep.is_representable():
        raise NotRepresentable(f"residual {rep.residual:.3e} exceeds "
                               f"{REPRESENT_TOL:.1e} * scale {rep.scale:.3e}")


def solve_representation(frame: GFusionFrame,
                         convention: Optional[str] = None) -> RepresentationResult:
    """Minimal-norm T minimizing sum ||T Y_xi - Y_{xi+1}||^2 over the index
    pairs of the convention (default: the frame's own).  Every residual
    comes from one stacked difference Y_a T - Y_b."""
    if len(frame) < 2:
        raise DegenerateSpan("representation needs at least two family members")
    convention = _check_convention(convention or frame.index_convention)
    vh, mask = frame.row_basis
    span = Submodule.from_basis_rows(vh[mask], frame.n, frame.d)
    if span.rank == 0:
        raise DegenerateSpan("span of the submodule family has rank zero")
    lhs, rhs, x = _shift_solve(frame.operators, convention)
    q = span.projection.matrix
    x = q @ x @ q  # pin T to the span; the minimal-norm solution lives there
    difference = lhs @ x - rhs
    return RepresentationResult(
        operator_T=ModuleOperator(x, frame.n, frame.d),
        residual=float(spectral_norms(difference).max()),
        residual_frobenius=float(np.linalg.norm(difference)),
        norm_T=float(np.linalg.norm(x, 2)),
        span_projection=span,
        convention=convention,
        scale=frame.max_operator_norm(),
    )


def verify_hypotheses(frame: GFusionFrame) -> bool:
    """Every Y_xi self-adjoint and Y_xi(N_xi) = N_xi.

    Range containment Y_xi(H) in N_xi already holds by the frame invariant,
    so surjectivity onto N_xi reduces to a rank equality of the flattened
    Y_xi restricted to N_xi.  Self-adjointness is one batched norm test,
    the ranks one batched SVD.
    """
    if not hermitian_within(frame.operators, threshold(HYPOTHESIS_TOL, frame._operator_norms)).all():
        return False
    # the image of N_k is the range of P_k Y_k, its rank relative to its own
    # top singular value: any nonzero multiple of an action fixing N_k does too
    images = np.linalg.svd(frame.projections @ frame.operators, compute_uv=False)
    return bool(np.array_equal(rank(images, HYPOTHESIS_TOL), frame.row_basis[1].sum(1)))


def _span_operator(rep: RepresentationResult):
    """T on the span in the span's orthonormal row basis, its singular
    values, and whether it is invertible there."""
    rows = rep.span_projection.basis_rows
    t_span = rows @ rep.operator_T.matrix @ rows.conj().T
    sing = np.linalg.svd(t_span, compute_uv=False)
    return t_span, sing, rank(sing, INVERT_TOL) == sing.size


# ---------------------------------------------------------------------------
# synthesis kernel


def _kernel_row_basis(frame: GFusionFrame):
    """Row-level synthesis map and an orthonormal basis of its range.

    The synthesis operator acts on each of the d rows of a sequence's terms
    independently, so its kernel is fully described at the level of single
    rows: coordinates y (one slot of dimension rank(N_xi) per term) map to
    sum_xi y_xi (R_xi B_xi^H), and the module kernel consists of sequences
    whose rows all satisfy y M = 0 for that stacked matrix M.  Those rows
    are the orthogonal complement of M's column space, so the thin basis Q
    of that column space (at most n*d columns) describes the kernel:
    y = z - (z Q) Q^H projects any z into it; returns V, mask, Q and ||M||.
    """
    vh, mask = frame.row_basis
    m_syn = vh.conj() @ frame.operators.swapaxes(1, 2)  # conj(V Y^H): Y is not copied
    m_syn = np.conjugate(m_syn, out=m_syn)[mask]
    u, s, _ = np.linalg.svd(m_syn, full_matrices=False)
    return vh, mask, u[:, :rank(s, INVERT_TOL)], float(s[0]) if s.size else 0.0


def _kernel_samples(frame: GFusionFrame, q, count: int, seed: int, r=None):
    """Seeded kernel rows y = z P / ||z P||, P = I - Q Q^H, with q the range
    basis Q from `_kernel_row_basis`, in the parts (z, z Q, z R, ||z P||).
    The standard complex normals z are drawn as consecutive (c, d, Sigma
    rank) chunks of one stream, c set by KERNEL_CHUNK_BYTES; chunking does
    not change the numbers drawn.  Each chunk takes one product z [Q | R].
    ||z P||^2 is the top eigenvalue of the d x d Gram z z^H - (z Q)(z Q)^H;
    the basis rows are orthonormal, so it is also the sample's sequence
    norm."""
    total, rank_q = q.shape
    q_r = q if r is None else np.concatenate([q, r], axis=1)
    rng = np.random.default_rng(seed)
    chunk = max(1, KERNEL_CHUNK_BYTES // (16 * frame.d * total))
    for start in range(0, count, chunk):
        z = rng.standard_normal((min(chunk, count - start), frame.d, total, 2))
        z = z.view(np.complex128)[..., 0]
        w = (z.reshape(-1, total) @ q_r).reshape(len(z), frame.d, -1)
        zq = w[..., :rank_q]
        # z is standard normal and Q orthonormal, so no Gram here needs the
        # power-of-two scaling that R's magnitudes need in `spectral_norms`
        gram = z @ z.conj().swapaxes(-1, -2) - zq @ zq.conj().swapaxes(-1, -2)
        norms = np.maximum(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0)), 1e-300)
        yield z, zq, w[..., rank_q:], norms


def sample_synthesis_kernel(frame: GFusionFrame, count: int, seed: int = 0):
    """Seeded random unit-norm elements of N(U) within the sequence module.

    Returns fewer than `count` sequences only when the kernel is trivial
    (then it returns an empty list).
    """
    vh, mask, q, _ = _kernel_row_basis(frame)
    if count == 0 or q.shape[0] == q.shape[1]:
        return []
    pad = np.zeros((count, frame.d) + mask.shape, dtype=np.complex128)  # 0 past each rank
    pad[..., mask] = np.concatenate([(z - zq @ q.conj().T) / norms[:, None, None]
                                     for z, zq, _, norms in _kernel_samples(frame, q, count, seed)])
    return [ModuleSequence._like(sample, frame) for sample in pad.swapaxes(1, 2) @ vh]


def kernel_invariance(frame: GFusionFrame, convention: str, seed: int = 0):
    """Invariance of the synthesis kernel under the right shift of
    `convention`: (drawn, defect, ok, caveats).

    Slot t < k of the right shift (k, b) of `shift_pairs` takes term
    xi = b[t].  Under the hypotheses that `check_representation_bounds`,
    the one caller, enforces first, Y_t T = Y_xi with Y self-adjoint gives
    Y_xi = T^H Y_t, so N_xi lies in N_t: a shifted kernel element leaves the
    family only where the rows V_xi fail ||V_xi - V_xi P_t|| <=
    MEMBERSHIP_TOL, an exact test made before any sample is drawn, and then
    the defect is inf.

    Otherwise the defect is the largest synthesis norm of a shifted
    unit-norm sample, over KERNEL_SAMPLES, divided by ||M||; the check
    passes at or below REPRESENT_TOL.  The image of kernel rows y is y M'
    (block xi of M' is (V_xi Y_t^H)[mask], zero for a dropped term), and
    that of a sample y = z P / ||z P|| of `_kernel_samples` is z R / ||z P||,
    R = P M' = M' - Q (Q^H M'), formed once and streamed beside Q.
    """
    vh, mask, q, top = _kernel_row_basis(frame)
    if q.shape[0] == q.shape[1]:
        return 0, 0.0, True, ["synthesis kernel is trivial; the invariance check is vacuous"]
    k, b = shift_pairs(len(frame), convention)
    ahead = vh[b]  # V of the term each slot t takes, beside Y_t and P_t
    if not contained(ahead, frame.projections[:k], threshold(MEMBERSHIP_TOL)).all():
        return (KERNEL_SAMPLES, math.inf, False,
                ["a shifted kernel element leaves the submodule family"])
    shifted = np.zeros_like(vh)  # zero for a dropped term
    shifted[b] = np.conjugate(ahead.conj() @ frame.operators[:k].swapaxes(1, 2))
    shifted = shifted[mask]
    defect = 0.0
    for _, _, zr, norms in _kernel_samples(frame, q, KERNEL_SAMPLES, seed,
                                           shifted - q @ (q.conj().T @ shifted)):
        defect = max(defect, float((spectral_norms(zr) / norms).max()))
    defect /= max(top, 1e-300)
    return KERNEL_SAMPLES, defect, at_most(defect, 0.0, REPRESENT_TOL), []


# ---------------------------------------------------------------------------
# norm bounds and kernel invariance of the representing operator


@dataclass(frozen=True)
class ShiftBoundsReport:
    norm_T: float
    bound_lower: float  # 1
    bound_upper: float  # sqrt(B/A)
    lower_ok: bool
    upper_ok: bool
    kernel_samples: int
    kernel_defect: float
    kernel_ok: bool
    caveats: tuple


def check_representation_bounds(frame: GFusionFrame, rep: RepresentationResult,
                                seed: int = 0) -> ShiftBoundsReport:
    """Check 1 <= ||T|| <= sqrt(B/A) and invariance of the synthesis kernel
    under the right shift, for a representable family satisfying the
    self-adjointness and range-fixing hypotheses."""
    if not verify_hypotheses(frame):
        raise HypothesisViolation(
            "family members must be self-adjoint and fix their submodules"
        )
    _require_representable(rep)
    lower, upper = frame_bounds(frame)
    bound_upper = math.sqrt(upper / lower)
    caveats = [CAVEATS[rep.convention]]
    kernel_samples, kernel_defect, kernel_ok, kernel_caveats = kernel_invariance(
        frame, rep.convention, seed)
    caveats.extend(kernel_caveats)
    return ShiftBoundsReport(
        norm_T=rep.norm_T,
        bound_lower=1.0,
        bound_upper=bound_upper,
        lower_ok=at_least(rep.norm_T, 1.0, REPRESENT_TOL),
        upper_ok=at_most(rep.norm_T, bound_upper, REPRESENT_TOL),
        kernel_samples=kernel_samples,
        kernel_defect=kernel_defect,
        kernel_ok=kernel_ok,
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# tightness contradiction certificate


def divergence_window(upper_bound: float, vector_norm: float, term_norm: float) -> int:
    """ceil(B (||f|| / ||Y_0 f||)^2), the window size at which the
    constant-norm series crosses the upper frame bound.  The norms are
    divided before squaring, so a ratio near 1 does not overflow when B and
    ||f||^2 are each near the largest float.

    The ratio is snapped to the nearest integer when within SNAP_TOL
    relative before taking the ceiling, absorbing eigenvalue rounding in B.
    """
    ratio = upper_bound * (vector_norm / term_norm) ** 2
    nearest = round(ratio)
    if nearest > 0 and at_most(abs(ratio - nearest), 0.0, SNAP_TOL, ratio):
        return int(nearest)
    return int(math.ceil(ratio))


@dataclass(frozen=True)
class TightnessCertificate:
    """Finite-scale certificate that a tight family admits no invertible
    shift representation: an invertible T between equal bounds must be an
    isometry, forcing constant term norms, and a constant positive series
    outgrows any upper bound at the reported window size."""

    norm_T: float
    norm_T_inverse: float
    isometry_ok: bool
    norm_bounds_ok: bool
    term_norms: tuple
    constant_norms_ok: bool
    degenerate: bool  # ||Y_0 f|| = 0 branch
    window: Optional[int]
    ratio: Optional[float]
    upper_bound: float


def tightness_contradiction_certificate(frame: GFusionFrame, rep: RepresentationResult,
                                        f: ModuleVector) -> TightnessCertificate:
    term_norms = spectral_norms(analysis(frame, f).flats)
    lower, upper = bounds = frame_bounds(frame)
    if not bounds.tight:
        raise NotTight("certificate requires a tight frame")
    _require_representable(rep)
    _, sing, invertible = _span_operator(rep)
    if not invertible:
        raise NotInvertible("representing operator is singular on the span")
    norm_t = float(sing[0])
    norm_t_inv = 1.0 / float(sing[-1])
    bound = math.sqrt(upper / lower)
    norm_bounds_ok = all(at_least(v, 1.0, REPRESENT_TOL) and at_most(v, bound, REPRESENT_TOL)
                         for v in (norm_t, norm_t_inv))
    isometry_ok = all(at_most(abs(v - 1.0), 0.0, REPRESENT_TOL) for v in (norm_t, norm_t_inv))

    base = float(term_norms[0])
    f_norm = f.norm()
    size = threshold(REPRESENT_TOL, f_norm) * frame.max_operator_norm()  # the scale of every term norm
    degenerate = base <= size
    return TightnessCertificate(
        norm_T=norm_t, norm_T_inverse=norm_t_inv, isometry_ok=isometry_ok,
        norm_bounds_ok=norm_bounds_ok, term_norms=tuple(term_norms.tolist()),
        constant_norms_ok=bool((np.abs(term_norms - base) <= size).all()),
        degenerate=degenerate,
        window=None if degenerate else divergence_window(upper, f_norm, base),
        ratio=None if degenerate else upper * (f_norm / base) ** 2, upper_bound=upper,
    )


# ---------------------------------------------------------------------------
# linear independence


@dataclass(frozen=True)
class SpanInvariance:
    alpha: int
    b: int
    max_defect: float
    max_defect_inverse: Optional[float]
    ok: bool


@dataclass(frozen=True)
class IndependenceReport:
    verdict: str  # "independent" | "dependent"
    coefficients: Optional[np.ndarray]  # normalized null combination when dependent
    invariant_span_dim: int
    null_combination_norm: Optional[float]
    span_invariance: Optional[SpanInvariance]


def independence_analysis(frame: GFusionFrame,
                          rep: Optional[RepresentationResult] = None) -> IndependenceReport:
    """Linear independence of {Y_xi} as vectors in the (n*d)^2 operator space.

    A dependent family reports its first dependency, the null combination
    of members 0 .. b with b smallest, divided by its pivot entry: the
    first whose modulus is within TIE_TOL of the largest, so that rounding
    cannot move the pivot between tied entries.  When a representation is
    supplied and the family is dependent, the report carries
    `span_invariance` of that dependency.
    """
    mats = frame.operators
    r, null = null_combinations(mats)
    if r == len(frame):
        return IndependenceReport("independent", None, r, None, None)
    pivot = _first_tied(np.abs(null[-1]))
    delta = null[-1] / null[-1][pivot]
    delta[pivot] = 1.0  # exactly: complex division can leave a rounding residue
    invariance = None if rep is None else span_invariance(frame, delta, rep)
    return IndependenceReport("dependent", delta, r, _combination_norm(frame, delta), invariance)


def _combination_norm(frame: GFusionFrame, delta) -> float:
    """||sum_k delta_k Y_k||_2 / max ||Y_k||, the relative norm of a
    combination of the members."""
    scale = max(frame.max_operator_norm(), 1e-300)
    return float(np.linalg.norm(np.einsum("k,kij->ij", delta, frame.operators), 2)) / scale


def span_invariance(frame: GFusionFrame, delta,
                    rep: RepresentationResult) -> Optional[SpanInvariance]:
    """Whether the span of the members between the first and last nonzero
    entries of the null combination `delta` is invariant under T (and under
    its inverse on the span, when that exists), one batched projection per
    operator; None when `rep` does not represent the family."""
    if not rep.is_representable():
        return None
    support = np.flatnonzero(~at_most(np.abs(delta), 0.0, INVARIANCE_TOL))
    alpha, b = int(support[0]), int(support[-1])
    window = frame.operators[alpha:b + 1]
    u, sw, _ = np.linalg.svd(window.reshape(len(window), -1).T, full_matrices=False)
    basis = u[:, :rank(sw, INVERT_TOL)]
    candidates = [rep.operator_T.matrix]
    t_span, _, invertible = _span_operator(rep)
    if invertible:
        rows = rep.span_projection.basis_rows
        candidates.append(rows.conj().T @ np.linalg.inv(t_span) @ rows)
    defects = []
    for op in candidates:
        w = (window @ op).reshape(len(window), -1).T  # one column per member
        resid = w - basis @ (basis.conj().T @ w)
        defects.append(float(np.max(np.linalg.norm(resid, axis=0)
                                    / np.maximum(np.linalg.norm(w, axis=0), 1e-300))))
    return SpanInvariance(
        alpha=alpha, b=b, max_defect=defects[0],
        max_defect_inverse=defects[1] if len(defects) > 1 else None,
        ok=all(at_most(v, 0.0, INVARIANCE_TOL) for v in defects),
    )


# ---------------------------------------------------------------------------
# shifted reconstruction identity


def solve_adjoint_shift_extension(frame: GFusionFrame) -> ModuleOperator:
    """Minimal-norm solution of extension o Y_xi^* = Y_{xi+1}^* over the
    index pairs of the frame's convention (the adjoint counterpart of the
    shift solve)."""
    adjoints = frame.operators.conj().swapaxes(1, 2)
    _, _, x = _shift_solve(adjoints, frame.index_convention)
    return ModuleOperator(x, frame.n, frame.d)


def verify_shift_reconstruction_identity(frame: GFusionFrame, dual: GFusionFrame,
                                         extension_T: ModuleOperator, j: int) -> bool:
    """Check Y_{j+1} f = sum_xi Y_{xi+1}^* G_xi Y_j f for every f, exactly:
    with Delta = Y_j D - Y_{j+1}, sup ||f Delta|| / ||f|| is ||Delta||_2
    (attained on a rank-one row block), so the test is ||Delta||_2 <=
    REPRESENT_TOL * max ||Y_xi||.

    The extension property (extension_T o Y_xi^* = Y_{xi+1}^*, every pair
    from one stacked product, within the same bound) is enforced first and
    raises HypothesisViolation when it fails; the dual is taken as given,
    so a mismatched dual simply makes the identity evaluate false.
    """
    _check_shapes(frame, dual)
    k, b = shift_pairs(len(frame), frame.index_convention)
    if k == 0:
        raise DegenerateSpan(f"the {frame.index_convention} shift of one member has no slot")
    if not 0 <= j < k:
        raise ValueError(f"j must lie in [0, {k - 1}] for the "
                         f"{frame.index_convention} convention")
    mats = frame.operators
    adjoints = mats.conj().swapaxes(1, 2)
    bound = threshold(REPRESENT_TOL, frame.max_operator_norm())
    defects = spectral_norms(adjoints[:k] @ extension_T.matrix - adjoints[b])
    bad = np.flatnonzero(defects > bound)
    if bad.size:
        i = bad[0]
        raise HypothesisViolation(
            f"extension does not map adjoint {i} to adjoint {b[i]} (defect {defects[i]:.3e})"
        )
    d_mat = gram_sum(dual.operators[:k], mats[b])
    return float(np.linalg.norm(mats[j] @ d_mat - mats[b[j]], 2)) <= bound
