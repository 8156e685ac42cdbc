"""The scalar algebra: d x d complex matrices under the conjugate-transpose
involution and the spectral norm.

Elements are plain numpy arrays of shape (d, d), dtype complex128. The
positivity tolerance is relative (min eigenvalue >= -tol * (1 + norm)) so that
PSD verdicts are invariant under frame scaling.
"""

import numpy as np

from .exceptions import NonHermitian

DEFAULT_TOL = 1e-9


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


def _norms(x) -> np.ndarray:
    """Spectral norm of an element, or of each element of a stack."""
    return np.linalg.norm(x, 2, axis=(-2, -1))


def _hermitian(x, tol: float) -> np.ndarray:
    return _norms(x - x.conj().swapaxes(-1, -2)) <= tol * (1.0 + _norms(x))


def _positive(x, tol: float) -> np.ndarray:
    lo = np.linalg.eigvalsh((x + x.conj().swapaxes(-1, -2)) / 2.0)[..., 0]
    return _hermitian(x, tol) & (lo >= -tol * (1.0 + _norms(x)))


def is_hermitian(u, tol: float = DEFAULT_TOL) -> bool:
    return bool(_hermitian(as_algebra_element(u), tol))


def is_positive(u, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian within tol, with min eigenvalue >= -tol * (1 + ||u||)."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return bool(_positive(as_algebra_element(u), tol))


def psd_leq(u, v, tol: float = DEFAULT_TOL) -> bool:
    """u <= v in the PSD order on Hermitian elements.

    Non-Hermitian operands are an error, not False; silently symmetrizing
    would mask bugs upstream.
    """
    return bool(psd_leq_stack(as_algebra_element(u), as_algebra_element(v), tol))


def psd_leq_stack(u, v, tol: float = DEFAULT_TOL) -> np.ndarray:
    """psd_leq pair by pair over two stacks of elements, with one batched
    eigvalsh; a non-Hermitian element in either stack raises NonHermitian."""
    for side, x in (("left", u), ("right", v)):
        if not np.all(_hermitian(x, tol)):
            raise NonHermitian(f"{side} operand of psd_leq is not Hermitian within {tol}")
    return _positive(v - u, tol)
