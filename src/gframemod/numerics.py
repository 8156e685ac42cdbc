"""Tolerance policy: every threshold a verdict is compared against, and the
rules that apply them.

Each tolerance multiplies the scale named in its comment.  Scales grow with
the data (a norm, a largest singular value, a bound) or are 1 for
quantities that have none, so multiplying a whole family by c > 0 changes
no verdict.  There is no absolute floor such as `tol * (1 + x)`: a floor
lets a small family pass checks that the same family fails at unit scale.
"""

import numpy as np

RANK_TOL = 1e-10  # x the top singular value (top eigenvalue of S; m max ||Y|| for a combination)
INVERT_TOL = 1e-12  # x the top singular value: S or T singular; synthesis-range and window ranks
PROJECTION_TOL = 1e-8  # x 1: ||Q - Q^H|| and ||Q^2 - Q|| of a projection
CONTAINMENT_TOL = 1e-8  # x ||Y_k||: ||Y_k P_k - Y_k||, the range of Y_k inside N_k; synthesis's default
MEMBERSHIP_TOL = 1e-10  # x ||seq|| (||f|| for one vector, 1 for a unit kernel sample): ||t - t P|| of a term t
HERMITIAN_TOL = 1e-9  # x the operands' max(||u||, ||v||): Hermitian and PSD-order tests
HYPOTHESIS_TOL = 1e-9  # x ||Y_k||, and Y_k's top singular value on N_k for its rank: verify_hypotheses
TIGHT_TOL = 1e-9  # x 1: the gap (B - A) / B
DUAL_TOL = 1e-8  # x 1: verify_dual's ||sum Y_k^* G_k - Id||
REPRESENT_TOL = 1e-8  # x max ||Y||, ||M||, ||f|| max ||Y|| or 1 (||T||), by check
INVARIANCE_TOL = 1e-8  # x 1: relative span-invariance defects; support of a null combination with pivot 1
SNAP_TOL = 1e-9  # x the ratio: the divergence window snaps to an integer this close
MARGIN_TOL = 1e-10  # x sum |a_k| max(max ||Y||, max ||Yhat||), 1 for ||C|| - eta: perturbation margin
FACTOR_TOL = 1e-12  # x max(max ||Y||, max ||Yhat||): ||V C - W|| of Yhat = Y (I - C); x 1: ||g Y_k - x||
TIE_TOL = 1e-12  # x |worst margin|: perturbation witnesses this close tie; x the largest: the first
# member norm (the certificate's member) and the first modulus of a dependency (its pivot) this close
BOUNDS_TOL = 1e-8  # x the derived upper bound: empirical bounds inside the derived ones


def rank(s, tol: float = RANK_TOL):
    """Number of singular values above tol times the largest, along the last
    axis of a (stack of) descending spectra; a zero matrix has rank 0."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def _first_tied(values) -> int:
    """Index of the first value at least (1 - TIE_TOL) times the largest: a
    choice among near-equal values that rounding cannot flip."""
    return int(np.argmax(values >= (1.0 - TIE_TOL) * values.max()))


def spectral_norms(blocks) -> np.ndarray:
    """Largest singular value of each matrix in a stack: a row's Euclidean
    norm, else the root of the top eigenvalue of its row Gram (r x r).

    Each matrix is first scaled by 2^-e, 2^(e-1) <= its largest |re| or |im|
    < 2^e, so no square over- or underflows; a power of two scales exactly.
    ldexp scales the parts without forming 2^-e, which overflows when the
    largest part is subnormal.
    """
    parts = np.ascontiguousarray(blocks, dtype=np.complex128).view(np.float64)
    _, e = np.frexp(np.abs(parts).max(axis=(-2, -1)))
    parts = np.ldexp(parts, -e[..., None, None])
    if blocks.shape[-2] == 1:
        norms = np.sqrt(np.einsum("...i,...i->...", parts[..., 0, :], parts[..., 0, :]))
    else:
        scaled = parts.view(np.complex128)
        gram = scaled @ scaled.conj().swapaxes(-1, -2)
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return np.ldexp(norms, e)


def norms_within(residuals, bounds) -> np.ndarray:
    """||r_k||_2 <= bound_k for each matrix of a complex stack.

    ||r||_2 <= ||r||_F, so spectral norms are taken only when some
    residual fails the Frobenius screen.
    """
    parts = np.ascontiguousarray(residuals, dtype=np.complex128).view(np.float64)
    within = np.sum(parts * parts, axis=(-2, -1)) <= bounds * bounds
    if within.all():
        return within
    return spectral_norms(residuals) <= bounds
