"""The scalar algebra: d x d complex matrices under the conjugate-transpose
involution and the spectral norm.

Elements are plain numpy arrays of shape (d, d), dtype complex128. The
Hermitian and positivity tests scale with the operands (min eigenvalue
>= -tol * max(||u||, ||v||)), so PSD verdicts do not change when both
operands are multiplied by c > 0.
"""

import numpy as np

from .exceptions import NonHermitian
from .numerics import HERMITIAN_TOL, norms_within, spectral_norms


def as_algebra_element(u) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] == 0:
        raise ValueError(f"algebra element must be a nonempty square matrix, got shape {u.shape}")
    return u


def adjoint(u) -> np.ndarray:
    """Conjugate transpose."""
    return as_algebra_element(u).conj().T


def operator_norm(u) -> float:
    """Largest singular value (the C*-norm of the matrix algebra)."""
    return float(np.linalg.norm(as_algebra_element(u), 2))


def absolute_value(eta) -> np.ndarray:
    """The unique PSD square root of eta* eta."""
    eta = as_algebra_element(eta)
    gram = eta.conj().T @ eta
    gram = (gram + gram.conj().T) / 2.0
    w, v = np.linalg.eigh(gram)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def _hermitian(x, bounds) -> np.ndarray:
    """||x - x^H||_2 <= bound for each element of a stack."""
    return norms_within(x - x.conj().swapaxes(-1, -2), bounds)


def _positive(x, tol: float, scale) -> np.ndarray:
    lo = np.linalg.eigvalsh((x + x.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
    return _hermitian(x, tol * scale) & (lo >= -tol * scale)


def is_positive(u, tol: float = HERMITIAN_TOL) -> bool:
    """Hermitian within tol * ||u||, with min eigenvalue >= -tol * ||u||."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    u = as_algebra_element(u)
    return bool(_positive(u, tol, spectral_norms(u)))


def psd_leq(u, v, tol: float = HERMITIAN_TOL) -> bool:
    """u <= v in the PSD order on Hermitian elements.

    Non-Hermitian operands are an error, not False; silently symmetrizing
    would mask bugs upstream.
    """
    return bool(psd_leq_stack(as_algebra_element(u), as_algebra_element(v), tol))


def psd_leq_stack(u, v, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """psd_leq pair by pair over two stacks of elements, with one batched
    eigvalsh; a non-Hermitian element in either stack raises NonHermitian.
    Each pair is judged at the scale max(||u||, ||v||)."""
    scale = np.maximum(spectral_norms(u), spectral_norms(v))
    for side, x in (("left", u), ("right", v)):
        if not np.all(_hermitian(x, tol * scale)):
            raise NonHermitian(f"{side} operand of psd_leq is not Hermitian within {tol}")
    return _positive(v - u, tol, scale)
