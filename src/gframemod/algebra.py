"""The scalar algebra: d x d complex matrices under the conjugate-transpose
involution, ordered by the PSD cone.

Elements are plain numpy arrays of shape (d, d), dtype complex128. Only
what the frame code calls lives here: the involution and the PSD order.
The C*-norm is the spectral norm, `numerics.spectral_norms` for a stack.
The Hermitian and PSD-order tests scale with the operands (min eigenvalue
>= -tol * max(||u||, ||v||)), so PSD verdicts do not change when both
operands are multiplied by c > 0.
"""

import numpy as np

from .exceptions import NonHermitian
from .numerics import HERMITIAN_TOL, at_least, hermitian_within, spectral_norms, threshold


def as_algebra_element(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise ValueError(f"algebra element must be a nonempty square matrix, got shape {u.shape}")
    return u


def adjoint(u) -> np.ndarray:
    """Conjugate transpose."""
    return as_algebra_element(u).conj().T


def psd_leq(u, v, tol: float = HERMITIAN_TOL) -> bool:
    """u <= v in the PSD order on Hermitian elements, judged at the scale
    max(||u||, ||v||) on the Hermitian part of v - u alone: the gap's
    anti-Hermitian part may reach twice the bound.

    Non-Hermitian operands are an error (NonHermitian), not False; silently
    symmetrizing would mask bugs upstream.
    """
    u, v = as_algebra_element(u), as_algebra_element(v)
    scale = np.maximum(spectral_norms(u), spectral_norms(v))
    for side, x in (("left", u), ("right", v)):
        if not hermitian_within(x, threshold(tol, scale)):
            raise NonHermitian(f"{side} operand of psd_leq is not Hermitian within {tol}")
    gap = v - u
    return bool(at_least(np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0], 0.0, tol, scale))
