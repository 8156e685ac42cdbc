"""g-fusion frames: the frame inequality, optimal bounds, synthesis and
analysis, the canonical dual, and reconstruction.

A frame is an ordered family of pairs (N_xi, Y_xi) where N_xi is an
orthogonally complemented submodule and Y_xi an operator whose range lies in
N_xi.  The optimal bounds are the extreme eigenvalues of the flattened frame
operator: the module inequality A<f,f> <= <Sf,f> <= B<f,f> for every f is
equivalent to PSD-ness of S - A*Id and B*Id - S as (n*d)^2 complex matrices,
because a rank-one row-block vector probes every complex direction.
"""

from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionMismatch,
    LengthMismatch,
    MembershipViolation,
    NonpositiveWeight,
    NotAFrame,
)
from .hilbert import (
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    _check_convention,
    _check_shapes,
    _common_shape,
    applied,
    contained,
    gram_sum,
    projection_fault,
    row_bases,
)
from .numerics import (
    CONTAINMENT_TOL,
    DUAL_TOL,
    INVERT_TOL,
    TIGHT_TOL,
    at_most,
    rank,
    spectral_norms,
    threshold,
)


class FrameElement(NamedTuple):
    submodule: Submodule
    operator: ModuleOperator


class FrameBounds(NamedTuple):
    lower: float
    upper: float

    @property
    def gap(self) -> float:
        """Relative tightness gap (B - A) / B."""
        return (self.upper - self.lower) / self.upper

    @property
    def tight(self) -> bool:
        """The bounds agree to relative gap TIGHT_TOL."""
        return at_most(self.gap, 0.0, TIGHT_TOL)


class GFusionFrame:
    """Ordered family {(N_xi, Y_xi)} with a linear or cyclic index convention.

    The frame is its stacks: `operators` and `projections` hold the
    flattened Y_xi and P_{N_xi} as read-only (m, n*d, n*d) arrays, stacked
    once.  The range of each Y_xi is checked against N_xi where data enters,
    in `GFusionFrame(pairs)` and `from_stacks`, which the random generators
    call; `scaled`, the dual and `fusion_frame` skip it, as c Y_xi,
    Y_xi S^-1 and w P_xi have ranges in N_xi by construction.  `elements` and `submodules()` build the
    per-element objects on demand.  Three facts are factored on first use
    and kept read-only: `row_basis`, the packed row bases of the N_xi (one
    batched SVD of the projections, whether the frame was loaded or built
    from Submodule objects, whose own bases it does not read; shared with
    every frame built from this one's submodules, as `scaled` and the dual
    are); the spectral norms ||Y_xi|| (`_operator_norms`); and the frame
    operator S, which a frame built from another forms anew.  So the bounds
    and the dual take no SVD of the stacks, and neither does writing the
    frame out.
    """

    __slots__ = ("index_convention", "n", "d", "operators", "projections", "_row_basis",
                 "_norms", "_frame_operator")

    def __init__(self, elements, index_convention: str = "linear"):
        elements = [FrameElement(sub, op) for sub, op in elements]
        for sub, _ in elements:
            if not isinstance(sub, Submodule):
                raise TypeError(f"frame elements pair a Submodule with an operator, got {type(sub).__name__}")
        n, d = _common_shape([part for element in elements for part in element], "frame element")
        self._adopt(np.stack([sub.projection.matrix for sub, _ in elements]),
                    np.stack([op.matrix for _, op in elements]), [None], n, d, index_convention)
        self._check_containment()

    @classmethod
    def from_stacks(cls, projections, operators, n: int, d: int,
                    index_convention: str = "linear") -> "GFusionFrame":
        """The frame of an (m, n*d, n*d) projection stack and an operator
        stack of the same shape, validated in one batch and kept as the
        frame's arrays without restacking.  A matrix that is not a
        projection raises ValueError naming its element."""
        shape = (len(projections), n * d, n * d)
        if n < 1 or d < 1 or not shape[0] or not projections.shape == operators.shape == shape:
            raise DimensionMismatch(f"expected two stacks of {shape[1:]} matrices")
        fault = projection_fault(projections)
        if fault is not None:
            raise ValueError("element %d: %s" % fault)
        frame = cls.__new__(cls)._adopt(projections, operators, [None], n, d, index_convention)
        return frame._check_containment()

    def _adopt(self, projections, operators, row_basis, n, d, index_convention) -> "GFusionFrame":
        """Keep the stacks, unchecked: the path every frame is built by.
        `row_basis` is a one-item list, shared by the frames of one
        projection stack, that holds their read-only packed row basis, or
        None until it is first read."""
        self.operators, self._norms = operators, None
        operators.setflags(write=False)
        projections.setflags(write=False)
        self.projections = projections
        self._row_basis = row_basis
        self._frame_operator = None
        self.index_convention = _check_convention(index_convention)
        self.n, self.d = n, d
        return self

    def _check_containment(self) -> "GFusionFrame":
        """Raise MembershipViolation, naming the first element, unless every
        row of each Y_k, and so its range, lies in N_k within CONTAINMENT_TOL
        ||Y_k||.  A row's norm is at most ||Y_k||, so a pass against the
        largest row is a pass; the norms ||Y_k|| are taken on a fail."""
        rows = spectral_norms(self.operators[:, :, None, :]).max(axis=1)
        if not contained(self.operators, self.projections, threshold(CONTAINMENT_TOL, rows)).all():
            bounds = threshold(CONTAINMENT_TOL, self._operator_norms)
            outside = np.flatnonzero(~contained(self.operators, self.projections, bounds))
            if outside.size:
                raise MembershipViolation(
                    f"element {outside[0]}: operator range is not contained in its submodule"
                )
        return self

    def _with_operators(self, operators) -> "GFusionFrame":
        """The frame of the same submodules with another operator stack."""
        return GFusionFrame.__new__(GFusionFrame)._adopt(
            self.projections, operators, self._row_basis, self.n, self.d, self.index_convention)

    @property
    def elements(self):
        return tuple(FrameElement(sub, ModuleOperator(y, self.n, self.d))
                     for sub, y in zip(self.submodules(), self.operators))

    def __len__(self):
        return len(self.operators)

    def __iter__(self):
        return iter(self.elements)

    def submodules(self):
        vh, mask = self.row_basis
        return [Submodule.__new__(Submodule)._adopt(ModuleOperator(q, self.n, self.d), rows[:r])
                for q, rows, r in zip(self.projections, vh, mask.sum(1).tolist())]

    @property
    def row_basis(self):
        """`row_bases` of the projections, the pair (V, mask); the batched SVD
        runs on the first read by any frame that shares the stack."""
        if self._row_basis[0] is None:
            self._row_basis[0] = row_bases(self.projections)
        return self._row_basis[0]

    @property
    def _operator_norms(self):
        """The spectral norm ||Y_xi|| of each member, read-only, taken on first use."""
        if self._norms is None:
            self._norms = np.linalg.norm(self.operators, 2, axis=(1, 2))
            self._norms.setflags(write=False)
        return self._norms

    def max_operator_norm(self) -> float:
        return float(self._operator_norms.max())

    def scaled(self, scalar) -> "GFusionFrame":
        """Same submodules, every operator multiplied by a finite `scalar`."""
        if not np.isfinite(complex(scalar)):
            raise ValueError(f"scale factor must be finite, got {scalar}")
        return self._with_operators(self.operators * complex(scalar))

    def __repr__(self):
        return (
            f"GFusionFrame(m={len(self)}, n={self.n}, d={self.d}, "
            f"convention={self.index_convention!r})"
        )


def frame_operator(frame: GFusionFrame) -> ModuleOperator:
    """S = sum_xi Y_xi^* Y_xi; self-adjoint and positive by construction.
    Formed on the frame's first call and kept for the later ones."""
    if frame._frame_operator is None:
        s = gram_sum(frame.operators, frame.operators)
        frame._frame_operator = ModuleOperator((s + s.conj().T) / 2.0, frame.n, frame.d)
    return frame._frame_operator


def frame_bounds(frame: GFusionFrame) -> FrameBounds:
    """Optimal bounds (A, B): extreme eigenvalues of the flattened S.

    Raises NotAFrame when S is numerically singular (no positive lower
    bound exists, so the family is not a frame).
    """
    eigs = np.linalg.eigvalsh(frame_operator(frame).matrix)
    lower, upper = float(eigs[0]), float(eigs[-1])
    if rank(eigs[::-1]) < len(eigs):
        raise NotAFrame(
            f"frame operator is singular (extreme eigenvalues {lower:.3e}, {upper:.3e})"
        )
    return FrameBounds(lower, upper)


def is_tight(frame: GFusionFrame) -> bool:
    """True when the optimal bounds agree to relative gap TIGHT_TOL."""
    return frame_bounds(frame).tight


def analysis(frame: GFusionFrame, f: ModuleVector) -> ModuleSequence:
    """f |-> {Y_xi f}; each term lies in N_xi by range containment."""
    if (f.n, f.d) != (frame.n, frame.d):
        raise DimensionMismatch("vector shape does not match the frame")
    return ModuleSequence._like(applied(f.flat, frame.operators), frame)


def synthesis(frame: GFusionFrame, seq: ModuleSequence,
              membership_tol=CONTAINMENT_TOL) -> ModuleVector:
    """{f_xi} |-> sum_xi Y_xi^* f_xi, the adjoint of analysis.

    Term k must lie in its submodule within membership_tol times
    ||seq|| ||Y_k|| / sqrt(A), A the lower frame bound (NotAFrame when
    there is none).  The analysis of f has ||seq|| >= sqrt(A) ||f||, and by
    default membership_tol is the relative defect a frame's operators may
    carry, so every analysis sequence passes; a term that is rounding noise
    is not judged against its own size.  Pass membership_tol=None to skip
    the check.
    """
    _check_shapes(frame, seq)
    if membership_tol is not None:
        scale = seq.norm() / np.sqrt(frame_bounds(frame).lower)  # bounds ||f||
        inside = contained(seq.flats, frame.projections,
                           threshold(membership_tol, scale) * frame._operator_norms)
        if not inside.all():
            raise MembershipViolation(f"sequence term {np.argmin(inside)} is not in its submodule")
    return ModuleVector(gram_sum(seq.flats, frame.operators), frame.n, frame.d)


def canonical_dual(frame: GFusionFrame) -> GFusionFrame:
    """The dual family {(N_xi, Y_xi S^{-1})}.

    S is inverted through its Hermitian eigendecomposition with a
    condition-number guard; reconstruction quality degrades past it.
    """
    s = frame_operator(frame).matrix
    w, v = np.linalg.eigh(s)
    if rank(w[::-1], INVERT_TOL) < len(w):
        raise NotAFrame(
            f"frame operator too ill-conditioned to invert (eigenvalues {w[0]:.3e}, {w[-1]:.3e})"
        )
    s_inv = (v / w) @ v.conj().T
    return frame._with_operators(s_inv @ frame.operators)


def verify_dual(frame: GFusionFrame, dual: GFusionFrame) -> bool:
    """Check f = sum_xi Y_xi^* G_xi f for every f, exactly.

    Analysis by the dual followed by synthesis maps f to f M with M the
    mixed frame matrix, and the module norm is attained on a rank-one row
    block, so sup ||f M - f|| / ||f|| is the operator norm of M - Id.
    """
    return at_most(reconstruction_residual(frame, dual), 0.0, DUAL_TOL)


def reconstruction_residual(frame: GFusionFrame, dual: GFusionFrame) -> float:
    """Operator norm of sum_xi Y_xi^* G_xi - Id (the mixed frame matrix is
    the identity for a true dual)."""
    _check_shapes(frame, dual)
    mixed = gram_sum(dual.operators, frame.operators)
    return float(np.linalg.norm(mixed - np.eye(frame.n * frame.d), 2))


def fusion_frame(submodules, weights) -> GFusionFrame:
    """The classical specialization Y_xi = v_xi P_{N_xi}, v_xi positive and finite; linear indexing."""
    submodules = list(submodules)
    weights = [float(w) for w in weights]
    if len(submodules) != len(weights):
        raise LengthMismatch("one weight per submodule is required")
    for w in weights:
        if not 0.0 < w < np.inf:
            raise NonpositiveWeight(f"weights must be positive and finite, got {w}")
    n, d = _common_shape(submodules, "frame element")
    projections = np.stack([s.projection.matrix for s in submodules])
    operators = projections * np.array(weights, dtype=complex)[:, None, None]
    return GFusionFrame.__new__(GFusionFrame)._adopt(projections, operators, [None], n, d, "linear")
