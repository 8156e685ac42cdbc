"""Error types shared across the package.

Every computational error derives from GFrameError and carries the CLI exit
code appropriate for its class: 1 for input/parse problems, 2 for violated
mathematical preconditions, 3 for failed verifications.
"""


class GFrameError(Exception):
    exit_code = 2


class ParseError(GFrameError):
    """Malformed document, vector file, or field value, or an output path
    that cannot be written."""

    exit_code = 1


class DimensionMismatch(GFrameError):
    """Operands do not share the same (n, d) shape."""


class LengthMismatch(GFrameError):
    """Families or sequences of different lengths were combined."""


class NonHermitian(GFrameError):
    """An operand of the PSD order check fails the Hermitian test."""


class MembershipViolation(GFrameError):
    """A sequence term (or operator range) leaves its target submodule."""


class NotAFrame(GFrameError):
    """The frame operator is numerically singular; no positive lower bound."""


class NonpositiveWeight(GFrameError):
    """Fusion-frame weights must be positive and finite."""


class DegenerateSpan(GFrameError):
    """The family is too small for a shift statement: fewer than two
    members to represent, no slot in its shift, or a span of rank zero."""


class HypothesisViolation(GFrameError):
    """A check's structural hypotheses (self-adjointness, range fixing,
    extension property) do not hold for the given family."""


class NotTight(GFrameError):
    """Certificate requested for a frame whose bounds are not equal."""


class NotInvertible(GFrameError):
    """The representing operator is numerically singular on the span."""


class NotRepresentable(GFrameError):
    """The family admits no shift representation within tolerance."""


class InvalidDimensions(GFrameError):
    """Generator parameters out of range (n, d, m must be positive, etc.)."""


class BaseNotIndependent(GFrameError):
    """Independence transfer requires a linearly independent base family."""


class InequalityNotVerified(GFrameError):
    """The two-family perturbation inequality failed on a sampled witness."""

    exit_code = 3
