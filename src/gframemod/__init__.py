"""Finite-dimensional g-fusion frames over matrix algebras.

The scalar algebra is A = M_d(C), the module is H = A^n, and frames are
ordered families of (submodule, operator) pairs.  See `hilbert` for the
flattening conventions everything else builds on.
"""

__version__ = "0.1.0"

from .algebra import adjoint, psd_leq
from .exceptions import (
    BaseNotIndependent,
    DegenerateSpan,
    DimensionMismatch,
    GFrameError,
    HypothesisViolation,
    InequalityNotVerified,
    InvalidDimensions,
    LengthMismatch,
    MembershipViolation,
    NonHermitian,
    NonpositiveWeight,
    NotAFrame,
    NotInvertible,
    NotRepresentable,
    NotTight,
    ParseError,
)
from .frames import (
    FrameBounds,
    FrameElement,
    GFusionFrame,
    analysis,
    canonical_dual,
    frame_bounds,
    frame_operator,
    fusion_frame,
    is_tight,
    synthesis,
    verify_dual,
)
from .hilbert import (
    ModuleOperator,
    ModuleSequence,
    ModuleVector,
    Submodule,
    apply,
    compose,
    inner_product,
    operator_adjoint,
    right_shift,
    span_of_submodules,
    submodule_from_generators,
)
from .perturb import (
    PerturbationParams,
    PerturbationVerdict,
    check_perturbation_inequality,
    derived_bounds,
    independence_transfer,
    verify_perturbed_frame,
)
from .represent import (
    IndependenceReport,
    RepresentationResult,
    check_representation_bounds,
    divergence_window,
    independence_analysis,
    sample_synthesis_kernel,
    solve_adjoint_shift_extension,
    solve_representation,
    span_invariance,
    tightness_contradiction_certificate,
    verify_hypotheses,
    verify_shift_reconstruction_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
