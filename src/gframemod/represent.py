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
    DimensionMismatch,
    HypothesisViolation,
    NotInvertible,
    NotRepresentable,
    NotTight,
)
from .frames import TIGHT_TOL, GFusionFrame, frame_bounds
from .hilbert import (
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    _check_convention,
    contained,
    norms_within,
    null_combinations,
    span_of_submodules,
    spectral_norms,
)

PINV_RCOND = 1e-10  # relative singular-value cutoff of the solver
REPRESENTABLE_TOL = 1e-8  # residual <= tol * max ||Y_xi|| is "representable"
INVERT_COND_LIMIT = 1e-12

LINEAR_CAVEAT = (
    "linear index window: the shift constraint stops at the window edge, so "
    "conclusions stated for two-sided families hold only up to boundary terms"
)
CYCLIC_CAVEAT = (
    "cyclic index convention: the family is treated as shift-periodic, the "
    "faithful finite model of a shift-invariant family"
)


def _constraint_pairs(m: int, convention: str):
    if convention == "cyclic":
        return [(xi, (xi + 1) % m) for xi in range(m)]
    return [(xi, xi + 1) for xi in range(m - 1)]


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

    def is_representable(self, tol: float = REPRESENTABLE_TOL) -> bool:
        return self.residual <= tol * max(self.scale, 1e-300)


def solve_representation(frame: GFusionFrame, convention: Optional[str] = None,
                         tol: float = REPRESENTABLE_TOL) -> RepresentationResult:
    """Minimal-norm T minimizing sum ||T Y_xi - Y_{xi+1}||^2 over the index
    pairs of the convention (default: the frame's own)."""
    if len(frame) < 2:
        raise DegenerateSpan("representation needs at least two family members")
    convention = _check_convention(convention or frame.index_convention)
    span = span_of_submodules(frame.submodules())
    if span.rank == 0:
        raise DegenerateSpan("span of the submodule family has rank zero")
    mats = frame.operators
    pairs = _constraint_pairs(len(frame), convention)
    lhs = np.vstack([mats[a] for a, _ in pairs])
    rhs = np.vstack([mats[b] for _, b in pairs])
    x = np.linalg.pinv(lhs, rcond=PINV_RCOND) @ rhs
    q = span.projection.matrix
    x = q @ x @ q  # pin T to the span; the minimal-norm solution lives there
    residuals = [float(np.linalg.norm(mats[a] @ x - mats[b], 2)) for a, b in pairs]
    frob = math.sqrt(sum(float(np.linalg.norm(mats[a] @ x - mats[b], "fro")) ** 2
                         for a, b in pairs))
    return RepresentationResult(
        operator_T=ModuleOperator(x, frame.n, frame.d),
        residual=max(residuals),
        residual_frobenius=frob,
        norm_T=float(np.linalg.norm(x, 2)),
        span_projection=span,
        convention=convention,
        scale=frame.max_operator_norm(),
    )


def verify_hypotheses(frame: GFusionFrame, tol: float = 1e-9) -> bool:
    """Every Y_xi self-adjoint and Y_xi(N_xi) = N_xi.

    Range containment Y_xi(H) in N_xi already holds by the frame invariant,
    so surjectivity onto N_xi reduces to a rank equality of the flattened
    Y_xi restricted to N_xi.  Self-adjointness is one batched norm test;
    the ranks take one batched SVD per distinct submodule rank.
    """
    operators = frame.operators
    if not norms_within(operators - operators.conj().swapaxes(1, 2),
                        tol * (1.0 + frame._operator_norms)).all():
        return False
    submodules = frame.submodules()
    ranks = np.array([sub.rank for sub in submodules])
    for rank in sorted(set(ranks.tolist()) - {0}):
        members = np.flatnonzero(ranks == rank)
        images = np.stack([submodules[k].basis_rows for k in members]) @ operators[members]
        s = np.linalg.svd(images, compute_uv=False)
        # rank relative to each image's own top singular value: any nonzero
        # multiple of an action that fixes the submodule still fixes it
        if np.any(np.sum(s > max(tol, 1e-12) * s[:, :1], axis=1) != rank):
            return False
    return True


def _restrict_to_span(x: np.ndarray, span: Submodule) -> np.ndarray:
    """Matrix of T acting on the span, in the span's orthonormal row basis."""
    rows = span.basis_rows
    return rows @ x @ rows.conj().T


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
    y = z - (z Q) Q^H projects any z into it.
    """
    basis_list = [sub.basis_rows for sub in frame.submodules()]
    m_syn = np.vstack([rows @ y.conj().T for rows, y in zip(basis_list, frame.operators)])
    if m_syn.shape[0] == 0:
        return basis_list, m_syn, np.zeros((0, 0), dtype=np.complex128), 0.0
    u, s, _ = np.linalg.svd(m_syn, full_matrices=False)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * top)) if top > 0.0 else 0
    return basis_list, m_syn, u[:, :rank], top


def _kernel_terms(frame: GFusionFrame, kernel_basis, count: int, seed: int):
    """Seeded random unit-norm elements of N(U) as one array of flattened
    terms, shape (count, m, d, n*d); None when the kernel is trivial."""
    basis_list, _, q, _ = kernel_basis
    sizes = [rows.shape[0] for rows in basis_list]
    total = sum(sizes)
    if total == q.shape[1]:
        return None
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((count, frame.d, total, 2)).view(np.complex128)[..., 0]
    y -= (y @ q) @ q.conj().T
    # the basis rows are orthonormal, so the sequence norm is ||y||_2
    norms = spectral_norms(y)
    y /= np.where(norms > 0.0, norms, 1.0)[:, None, None]
    terms = np.empty((count, len(basis_list), frame.d, frame.n * frame.d), dtype=np.complex128)
    offsets = np.cumsum([0] + sizes)
    for xi, rows in enumerate(basis_list):
        terms[:, xi] = y[..., offsets[xi]:offsets[xi + 1]] @ rows
    return terms


def sample_synthesis_kernel(frame: GFusionFrame, count: int, seed: int = 0):
    """Seeded random unit-norm elements of N(U) within the sequence module.

    Returns fewer than `count` sequences only when the kernel is trivial
    (then it returns an empty list).
    """
    terms = _kernel_terms(frame, _kernel_row_basis(frame), count, seed)
    if terms is None:
        return []
    submodules = frame.submodules()
    return [ModuleSequence([ModuleVector(t, frame.n, frame.d) for t in sample],
                           frame.index_convention, submodules)
            for sample in terms]


def kernel_invariance(frame: GFusionFrame, convention: str, samples: int = 100,
                      tol: float = 1e-8, seed: int = 0):
    """Sampled invariance of the synthesis kernel under the right shift of
    `convention`: (samples drawn, defect, ok, caveats).

    The defect is the largest synthesis norm of a shifted unit-norm kernel
    sample over max(||M||, 1); it is inf, and the check fails, when a
    shifted term leaves its new submodule.
    """
    kernel_basis = _kernel_row_basis(frame)
    terms = _kernel_terms(frame, kernel_basis, samples, seed)
    if terms is None:
        return 0, 0.0, True, ["synthesis kernel is trivial; the invariance check is vacuous"]
    # the right shift moves term xi+1 into slot xi, so term j is tested
    # against N_{j-1} and synthesized by Y_{j-1}; the linear shift drops
    # term 0 and pads with a zero term, which contributes nothing
    m = len(frame)
    if _check_convention(convention) == "cyclic":
        moved, targets = terms, np.roll(np.arange(m), 1)
    else:
        moved, targets = terms[:, 1:], np.arange(m - 1)
    if not contained(moved, frame.projections[targets]).all():
        return samples, math.inf, False, ["a shifted kernel element leaves the submodule family"]
    images = np.tensordot(moved, frame.operators[targets].conj(), axes=([1, 3], [0, 2]))
    defect = float(spectral_norms(images).max()) / max(kernel_basis[3], 1.0)
    return samples, defect, defect <= tol, []


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
                                samples: int = 100, tol: float = 1e-8,
                                seed: int = 0) -> ShiftBoundsReport:
    """Check 1 <= ||T|| <= sqrt(B/A) and invariance of the synthesis kernel
    under the right shift, for a representable family satisfying the
    self-adjointness and range-fixing hypotheses."""
    if not verify_hypotheses(frame):
        raise HypothesisViolation(
            "family members must be self-adjoint and fix their submodules"
        )
    if not rep.is_representable(tol):
        raise NotRepresentable(
            f"residual {rep.residual:.3e} exceeds {tol:.1e} * scale {rep.scale:.3e}"
        )
    lower, upper = frame_bounds(frame)
    bound_upper = math.sqrt(upper / lower)
    caveats = [CYCLIC_CAVEAT if rep.convention == "cyclic" else LINEAR_CAVEAT]
    kernel_samples, kernel_defect, kernel_ok, kernel_caveats = kernel_invariance(
        frame, rep.convention, samples, tol, seed)
    caveats.extend(kernel_caveats)
    return ShiftBoundsReport(
        norm_T=rep.norm_T,
        bound_lower=1.0,
        bound_upper=bound_upper,
        lower_ok=rep.norm_T >= 1.0 - tol,
        upper_ok=rep.norm_T <= bound_upper + tol,
        kernel_samples=kernel_samples,
        kernel_defect=kernel_defect,
        kernel_ok=kernel_ok,
        caveats=tuple(caveats),
    )


# ---------------------------------------------------------------------------
# tightness contradiction certificate


def divergence_window(upper_bound: float, vector_gram_norm: float,
                      term_gram_norm: float) -> int:
    """ceil(B ||<f,f>|| / ||<Y_0 f, Y_0 f>||), the window size at which the
    constant-norm series crosses the upper frame bound.

    The ratio is snapped to the nearest integer when within 1e-9 relative
    before taking the ceiling, absorbing eigenvalue rounding in B.
    """
    ratio = upper_bound * vector_gram_norm / term_gram_norm
    nearest = round(ratio)
    if nearest > 0 and abs(ratio - nearest) <= 1e-9 * ratio:
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
                                        f: ModuleVector, tol: float = 1e-8) -> TightnessCertificate:
    if (f.n, f.d) != (frame.n, frame.d):
        raise DimensionMismatch("vector shape does not match the frame")
    lower, upper = bounds = frame_bounds(frame)
    if bounds.gap > TIGHT_TOL:
        raise NotTight("certificate requires a tight frame")
    if not rep.is_representable(tol):
        raise NotRepresentable(
            f"residual {rep.residual:.3e} exceeds {tol:.1e} * scale {rep.scale:.3e}"
        )
    t_span = _restrict_to_span(rep.operator_T.matrix, rep.span_projection)
    if t_span.size == 0:
        raise DegenerateSpan("span of the submodule family has rank zero")
    sing = np.linalg.svd(t_span, compute_uv=False)
    if sing[-1] <= INVERT_COND_LIMIT * sing[0]:
        raise NotInvertible("representing operator is singular on the span")
    norm_t = float(sing[0])
    norm_t_inv = 1.0 / float(sing[-1])
    bound = math.sqrt(upper / lower)
    norm_bounds_ok = all(1.0 - tol <= v <= bound + tol for v in (norm_t, norm_t_inv))
    isometry_ok = abs(norm_t - 1.0) <= tol and abs(norm_t_inv - 1.0) <= tol

    term_norms = tuple(float(np.linalg.norm(f.flat @ y, 2)) for y in frame.operators)
    base = term_norms[0]
    constant_ok = all(abs(v - base) <= tol * (1.0 + base) for v in term_norms)

    f_norm = f.norm()
    if base <= tol * (1.0 + f_norm):
        return TightnessCertificate(
            norm_T=norm_t, norm_T_inverse=norm_t_inv, isometry_ok=isometry_ok,
            norm_bounds_ok=norm_bounds_ok, term_norms=term_norms,
            constant_norms_ok=constant_ok, degenerate=True,
            window=None, ratio=None, upper_bound=upper,
        )
    ratio = upper * f_norm ** 2 / base ** 2
    return TightnessCertificate(
        norm_T=norm_t, norm_T_inverse=norm_t_inv, isometry_ok=isometry_ok,
        norm_bounds_ok=norm_bounds_ok, term_norms=term_norms,
        constant_norms_ok=constant_ok, degenerate=False,
        window=divergence_window(upper, f_norm ** 2, base ** 2),
        ratio=ratio, upper_bound=upper,
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


def independence_analysis(frame: GFusionFrame, tol: float = 1e-10,
                          rep: Optional[RepresentationResult] = None,
                          invariance_tol: float = 1e-8) -> IndependenceReport:
    """Linear independence of {Y_xi} as vectors in the (n*d)^2 operator space.

    When a representation is supplied and the family is dependent, the span
    of the members between the first and last nonzero null coefficients is
    checked for invariance under T (and under its inverse on the span, when
    that exists).
    """
    mats = frame.operators
    rank, null = null_combinations(mats, tol)
    if rank == len(frame):
        return IndependenceReport("independent", None, rank, None, None)
    delta = null[-1]
    pivot = int(np.argmax(np.abs(delta)))
    delta = delta / delta[pivot]  # max-modulus entry becomes exactly 1
    scale = max(frame.max_operator_norm(), 1e-300)
    null_norm = float(np.linalg.norm(np.einsum("k,kij->ij", delta, mats), 2)) / scale

    invariance = None
    if rep is not None and rep.is_representable():
        support = np.flatnonzero(np.abs(delta) > 1e-8)
        alpha, b = int(support[0]), int(support[-1])
        window = mats[alpha:b + 1].reshape(b + 1 - alpha, -1).T
        u, sw, _ = np.linalg.svd(window, full_matrices=False)
        wrank = int(np.sum(sw > 1e-12 * sw[0])) if sw.size and sw[0] > 0 else 0
        basis = u[:, :wrank]
        x = rep.operator_T.matrix
        candidates = [x]
        t_span = _restrict_to_span(x, rep.span_projection)
        sing = np.linalg.svd(t_span, compute_uv=False)
        if sing.size and sing[-1] > INVERT_COND_LIMIT * sing[0]:
            rows = rep.span_projection.basis_rows
            candidates.append(rows.conj().T @ np.linalg.inv(t_span) @ rows)
        defects = []
        for op in candidates:
            worst = 0.0
            for xi in range(alpha, b + 1):
                w = (mats[xi] @ op).reshape(-1)
                resid = w - basis @ (basis.conj().T @ w)
                worst = max(worst, float(np.linalg.norm(resid)) / max(float(np.linalg.norm(w)), 1e-300))
            defects.append(worst)
        inv_defect = defects[1] if len(defects) > 1 else None
        invariance = SpanInvariance(
            alpha=alpha, b=b, max_defect=defects[0], max_defect_inverse=inv_defect,
            ok=all(v <= invariance_tol for v in defects),
        )
    return IndependenceReport("dependent", delta, rank, null_norm, invariance)


# ---------------------------------------------------------------------------
# shifted reconstruction identity


def solve_adjoint_shift_extension(frame: GFusionFrame,
                                  convention: Optional[str] = None) -> ModuleOperator:
    """Minimal-norm solution of extension o Y_xi^* = Y_{xi+1}^* over the
    convention's index pairs (the adjoint counterpart of the shift solve)."""
    convention = _check_convention(convention or frame.index_convention)
    mats = frame.operators
    pairs = _constraint_pairs(len(frame), convention)
    lhs = np.vstack([mats[a].conj().T for a, _ in pairs])
    rhs = np.vstack([mats[b].conj().T for _, b in pairs])
    x = np.linalg.pinv(lhs, rcond=PINV_RCOND) @ rhs
    return ModuleOperator(x, frame.n, frame.d)


def verify_shift_reconstruction_identity(frame: GFusionFrame, dual: GFusionFrame,
                                         extension_T: ModuleOperator, j: int,
                                         tol: float = 1e-8) -> bool:
    """Check Y_{j+1} f = sum_xi Y_{xi+1}^* G_xi Y_j f for every f, exactly:
    with Delta = Y_j D - Y_{j+1}, sup ||f Delta|| / ||f|| is ||Delta||_2
    (attained on a rank-one row block), so the test is ||Delta||_2 <= tol.

    The extension property (extension_T o Y_xi^* = Y_{xi+1}^*) is enforced
    first and raises HypothesisViolation when it fails; the dual is taken as
    given, so a mismatched dual simply makes the identity evaluate false.
    """
    m = len(frame)
    if len(dual) != m or (frame.n, frame.d) != (dual.n, dual.d):
        raise HypothesisViolation("frame and dual must have equal lengths and shape")
    pairs = _constraint_pairs(m, frame.index_convention)
    if frame.index_convention == "linear" and not 0 <= j <= m - 2:
        raise ValueError(f"j must lie in [0, {m - 2}] for the linear convention")
    mats = frame.operators
    dmats = dual.operators
    x = extension_T.matrix
    scale = 1.0 + frame.max_operator_norm()
    for a, b in pairs:
        defect = float(np.linalg.norm(mats[a].conj().T @ x - mats[b].conj().T, 2))
        if defect > tol * scale:
            raise HypothesisViolation(
                f"extension does not map adjoint {a} to adjoint {b} (defect {defect:.3e})"
            )
    d_mat = sum(dmats[a] @ mats[b].conj().T for a, b in pairs)
    j_next = (j + 1) % m if frame.index_convention == "cyclic" else j + 1
    return float(np.linalg.norm(mats[j] @ d_mat - mats[j_next], 2)) <= tol
