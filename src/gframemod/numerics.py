"""Tolerance policy: every threshold a verdict is compared against, and the
rules that apply them; no other module multiplies or compares a tolerance.

Each tolerance multiplies the scale named in its comment.  Scales grow with
the data (a norm, a largest singular value, a bound) or are 1 for
quantities that have none, so multiplying a whole family by c > 0 changes
no verdict.  There is no absolute floor such as `tol * (1 + x)`: a floor
lets a small family pass checks that the same family fails at unit scale.
The scale rule lives here too, so no other module calls frexp or ldexp or
floors a divisor: `unit_scaled` prescales by a power of two, and `relative`
divides by a scale that may be 0.
"""

import numpy as np

RANK_TOL = 1e-10  # x the top singular value (top eigenvalue of S; m max ||Y|| for a combination)
INVERT_TOL = 1e-12  # x the top singular value: S or T singular; synthesis-range and window ranks
PROJECTION_TOL = 1e-8  # x 1: ||Q - Q^H|| and ||Q^2 - Q|| of a projection
CONTAINMENT_TOL = 1e-8  # x ||Y_k||: ||Y_k P_k - Y_k||, the range of Y_k inside N_k; synthesis's default
MEMBERSHIP_TOL = 1e-10  # x ||seq|| (||f|| for one vector), 1 for orthonormal rows t: ||t - t P|| of a term t
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


def threshold(tol: float, scale=1.0):
    """tol x scale: a tolerance at its scale."""
    return tol * scale


def at_most(value, bound, tol: float, scale=1.0):
    """value <= bound + tol x scale, elementwise."""
    return value <= bound + tol * scale


def at_least(value, bound, tol: float, scale=1.0):
    """value >= bound - tol x scale, elementwise."""
    return value >= bound - tol * scale


def tied(values, top):
    """values >= (1 - TIE_TOL) x top, elementwise: the values tied with the
    largest, top, so close that rounding could reorder them."""
    return values >= (1.0 - TIE_TOL) * top


def rank(s, tol: float = RANK_TOL):
    """Number of singular values above tol times the largest, along the last
    axis of a (stack of) descending spectra; a zero matrix has rank 0."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def _first_tied(values) -> int:
    """Index of the first value at least (1 - TIE_TOL) times the largest: a
    choice among near-equal values that rounding cannot flip."""
    return int(np.argmax(tied(values, values.max())))


def unit_scaled(x, axis=None):
    """(x 2^-e, e), 2^(e-1) <= the largest |re| or |im| of x over `axis` < 2^e
    (e = 0 for 0): no square over- or underflows, and a power of two scales
    exactly.  ldexp never forms 2^-e, which overflows for a subnormal x."""
    x = np.ascontiguousarray(x, dtype=np.result_type(x, np.float64))
    _, e = np.frexp(np.abs(x.view(np.float64)).max(axis=axis, keepdims=True))
    return np.ldexp(x.view(np.float64), -e).view(x.dtype), e.squeeze(axis)


def relative(value, scale):
    """value / scale, elementwise, and 0 where scale is 0."""
    return np.divide(value, scale, out=np.zeros(np.broadcast(value, scale).shape), where=scale != 0)


def spectral_norms(blocks) -> np.ndarray:
    """Largest singular value of each matrix in a stack, on the `unit_scaled`
    matrix: a row's Euclidean norm, else the root of its Gram's top eigenvalue."""
    scaled, e = unit_scaled(np.asarray(blocks, dtype=np.complex128), axis=(-2, -1))
    if blocks.shape[-2] == 1:
        parts = scaled.view(np.float64)[..., 0, :]
        norms = np.sqrt(np.einsum("...i,...i->...", parts, parts))
    else:
        gram = scaled @ scaled.conj().swapaxes(-1, -2)
        norms = np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))
    return np.ldexp(norms, e)


def norms_within(residuals, bounds) -> np.ndarray:
    """||r_k||_2 <= bound_k for each matrix of a complex stack, or for one.

    ||r||_F / sqrt(k) <= ||r||_2 <= ||r||_F, k = min(rows, cols), so spectral
    norms are taken only where neither screen, on the `unit_scaled` r, decides.
    """
    scaled, e = unit_scaled(residuals, axis=(-2, -1))
    parts = scaled.view(np.float64)
    frobenius = np.ldexp(np.sqrt(np.einsum("...ij,...ij->...", parts, parts)), e)
    within = np.asarray(frobenius <= bounds)
    if not within.all():
        unsure = ~within & (frobenius <= np.sqrt(min(residuals.shape[-2:])) * bounds)
        within[unsure] = spectral_norms(residuals[unsure]) <= np.broadcast_to(bounds, frobenius.shape)[unsure]
    return within


def hermitian_within(x, bounds) -> np.ndarray:
    """||x - x^H||_2 <= bound for each matrix of a stack."""
    return norms_within(x - x.conj().swapaxes(-1, -2), bounds)
