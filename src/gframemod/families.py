"""Seeded constructors for the frame families used by the CLI generator and
the test harnesses.  Identical (parameters, seed) always reproduce identical
arrays, which the CLI turns into identical bytes.
"""

import numpy as np

from .exceptions import InvalidDimensions, NotAFrame
from .frames import GFusionFrame, frame_bounds, fusion_frame
from .hilbert import ModuleOperator, ModuleVector, Submodule, row_bases

RANDOM_FRAME_ATTEMPTS = 64  # seeds random_frame tries before it gives up


def _validate(n: int, d: int, m: int):
    if n < 1 or d < 1 or m < 1:
        raise InvalidDimensions(f"n, d, m must be positive, got ({n}, {d}, {m})")
    if m * (n * d) ** 2 * 16 > np.iinfo(np.intp).max:  # bytes of the (m, nd, nd) stack
        raise InvalidDimensions(f"({n}, {d}, {m}) needs a complex ({m}, {n * d}, {n * d}) "
                                "stack, larger than any array on this platform")


def _gaussian(re, im) -> np.ndarray:
    """Standard complex Gaussian entries from two real normal draws."""
    return (re + 1j * im) / np.sqrt(2.0)


def random_complex(rng, rows: int, cols: int) -> np.ndarray:
    return _gaussian(rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols)))


def _haar(z) -> np.ndarray:
    """Haar-distributed unitaries from a (stack of) complex Gaussian square
    matrices: QR with the phase fix of Mezzadri, Notices AMS 54 (2007)."""
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_unitary(rng, k: int) -> np.ndarray:
    """Haar-distributed unitary (QR with the standard phase fix)."""
    return _haar(random_complex(rng, k, k))


def _signed_eigenbasis(rng, k: int):
    """Haar eigenbasis v and v diag(s) v^H for a mixed +-1 spectrum s."""
    v = random_unitary(rng, k)
    signs = rng.choice([-1.0, 1.0], size=k)
    if k >= 2:
        signs[0], signs[-1] = 1.0, -1.0
    return v, (v * signs) @ v.conj().T


def random_vector(rng, n: int, d: int) -> ModuleVector:
    return ModuleVector(random_complex(rng, d, n * d), n, d)


def random_orthogonal_decomposition(rng, n: int, d: int, m: int):
    """m nonempty mutually orthogonal submodules summing to the whole module."""
    nd = n * d
    if m > nd:
        raise InvalidDimensions(f"cannot split a rank-{nd} module into {m} nonempty parts")
    basis = random_unitary(rng, nd).conj().T  # orthonormal rows
    cuts = [0] + sorted(rng.choice(np.arange(1, nd), size=m - 1, replace=False).tolist()) + [nd]
    return [Submodule.from_basis_rows(basis[a:b], n, d) for a, b in zip(cuts, cuts[1:])]


def _full_frame(operators, n: int, d: int, index_convention: str) -> GFusionFrame:
    """The frame pairing each operator with the whole module."""
    full = Submodule.full(n, d)
    return GFusionFrame([(full, ModuleOperator(y, n, d)) for y in operators], index_convention)


def fusion_decomposition_frame(n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Parseval fusion frame: a random orthogonal decomposition, unit weights."""
    _validate(n, d, m)
    rng = np.random.default_rng(seed)
    return fusion_frame(random_orthogonal_decomposition(rng, n, d, m), [1.0] * m)


def dilation_frame(n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Y_xi = c^xi * Id with a seeded contraction c in (0, 1); linear indexing."""
    _validate(n, d, m)
    rng = np.random.default_rng(seed)
    c = float(rng.uniform(0.3, 0.8))
    return _full_frame([np.eye(n * d) * complex(c ** xi) for xi in range(m)], n, d, "linear")


def unitary_orbit_frame(n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Y_xi = U^xi for a seeded self-adjoint unitary U; cyclic indexing.

    The orbit is tight, and every member is self-adjoint.  For even m it
    closes, making the family exactly representable with an isometric T.
    """
    _validate(n, d, m)
    rng = np.random.default_rng(seed)
    nd = n * d
    _, u = _signed_eigenbasis(rng, nd)
    u = (u + u.conj().T) / 2.0  # self-adjoint to the last bit
    operators = [np.eye(nd, dtype=np.complex128)]
    for _ in range(m - 1):
        operators.append(operators[-1] @ u)
    return _full_frame(operators, n, d, "cyclic")


def commuting_orbit_frame(n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Unitary orbit of a positive-definite base sharing U's eigenbasis.

    Hypothesis-passing and exactly representable like the plain orbit, but
    not tight: the base's eigenvalues are drawn from [1, 2), and the bound
    ratio B/A equals the square of their spread.
    """
    _validate(n, d, m)
    rng = np.random.default_rng(seed)
    nd = n * d
    v, u = _signed_eigenbasis(rng, nd)
    diag = rng.uniform(1.0, 2.0, size=nd)
    base = (v * diag) @ v.conj().T
    operators = [(base + base.conj().T) / 2.0]
    for _ in range(m - 1):
        operators.append(u @ operators[-1])
    return _full_frame(operators, n, d, "cyclic")


def _random_elements(rng, n: int, d: int, count: int):
    """`count` seeded dense operators, each projected into a random
    submodule, as the stacks (projections, operators).

    Member k draws its rank r_k, then four (nd, nd) normal blocks: the real
    and imaginary parts of a Gaussian whose Haar unitary's first r_k
    conjugate columns are the submodule's basis rows, and of the dense
    operator.  The draw loop makes only those two RNG calls per member; one
    batched QR, one SVD of the basis rows per distinct rank and one batched
    product follow it, with the arrays of a member-by-member loop."""
    nd = n * d
    ranks = np.empty(count, dtype=np.intp)
    normals = np.empty((count, 4, nd, nd))
    for k in range(count):
        ranks[k] = rng.integers(1, nd + 1)
        rng.standard_normal(out=normals[k])
    rows = _haar(_gaussian(normals[:, 0], normals[:, 1])).conj().transpose(0, 2, 1)
    projections = np.empty((count, nd, nd), dtype=np.complex128)
    for r in np.flatnonzero(np.bincount(ranks)):  # np.unique costs a fresh process 16 ms
        members = np.flatnonzero(ranks == r)
        basis, _ = row_bases(rows[members, :r])
        projections[members] = basis.conj().transpose(0, 2, 1) @ basis
    return projections, _gaussian(normals[:, 2], normals[:, 3]) @ projections


def random_family_frame(n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Seeded dense operators projected into random submodules; may fail the
    frame inequality (that is a legitimate outcome for analysis commands)."""
    _validate(n, d, m)
    return GFusionFrame.from_stacks(*_random_elements(np.random.default_rng(seed), n, d, m), n, d)


def random_frame(n: int, d: int, m: int, seed: int = 0, max_cond: float = 1e8) -> GFusionFrame:
    """A random family guaranteed to be a frame with condition <= max_cond.

    The first element spans the whole module, which makes the frame operator
    generically nonsingular; seeds are retried deterministically until the
    conditioning target is met.
    """
    _validate(n, d, m)
    nd = n * d
    full = np.eye(nd, dtype=np.complex128)[None]
    for attempt in range(RANDOM_FRAME_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        first = random_complex(rng, nd, nd)[None]
        projections, operators = _random_elements(rng, n, d, m - 1)
        frame = GFusionFrame.from_stacks(np.concatenate((full, projections)),
                                         np.concatenate((first, operators)), n, d)
        try:
            lower, upper = frame_bounds(frame)
        except NotAFrame:
            continue
        if upper / lower <= max_cond:
            return frame
    raise NotAFrame(f"no acceptable random frame found in {RANDOM_FRAME_ATTEMPTS} attempts")


_GENERATORS = {"fusion": fusion_decomposition_frame, "dilation": dilation_frame,
               "unitary-orbit": unitary_orbit_frame, "random": random_family_frame}
KINDS = tuple(_GENERATORS)  # the CLI generator's --kind choices, in this order


def generate(kind: str, n: int, d: int, m: int, seed: int = 0) -> GFusionFrame:
    """Dispatch used by the CLI generator."""
    if kind not in _GENERATORS:
        raise InvalidDimensions(f"unknown family kind {kind!r}; choose from {KINDS}")
    return _GENERATORS[kind](n, d, m, seed)
