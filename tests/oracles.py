"""Independent oracles the library is checked against.

Everything here deliberately avoids the library's own code paths: vectors
are flattened the other way round ((n*d) x d stacks instead of d x (n*d)
rows), operators act on columns instead of rows, and scalar families are
re-implemented with plain matrices.  Documents are decoded by the standard
library alone.
"""

import json
from fractions import Fraction

import numpy as np


def stacked_flatten(vec) -> np.ndarray:
    """(n*d) x d matrix stacking the transposed components."""
    return np.vstack([vec.component(i).T for i in range(vec.n)])


def vector_norm(vec) -> float:
    """||F F*||^(1/2) for the stacked flattening F."""
    f = stacked_flatten(vec)
    return float(np.sqrt(np.linalg.norm(f @ f.conj().T, 2)))


def apply_blockwise(op, vec):
    """result_j = sum_i f_i @ blocks[i][j], computed block by block."""
    d, out = op.d, []
    for j in range(op.n):
        acc = np.zeros((d, d), dtype=np.complex128)
        for i in range(op.n):
            acc += vec.component(i) @ op.matrix[i * d:(i + 1) * d, j * d:(j + 1) * d]
        out.append(acc)
    return out


def rayleigh_norm(op, rng, trials: int = 1000) -> float:
    """max ||f M|| / ||f|| over random flattened vectors."""
    nd = op.n * op.d
    best = 0.0
    for _ in range(trials):
        flat = rng.standard_normal((op.d, nd)) + 1j * rng.standard_normal((op.d, nd))
        best = max(best, np.linalg.norm(flat @ op.matrix, 2) / np.linalg.norm(flat, 2))
    return float(best)


def gram_independent(matrices, tol: float = 1e-10) -> bool:
    """Brute-force independence via the determinant of the normalized Gram."""
    vecs = [np.asarray(m, dtype=np.complex128).reshape(-1) for m in matrices]
    vecs = [v / max(np.linalg.norm(v), 1e-300) for v in vecs]
    gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
    return abs(np.linalg.det(gram)) > tol


def synthesis_nullspace(frame) -> np.ndarray:
    """Orthonormal rows spanning the membership-constrained left null space
    of the flattened synthesis map, recomputed from scratch."""
    blocks = []
    for sub, op in frame.elements:
        rows = sub.basis_rows
        blocks.append(rows @ op.matrix.conj().T)
    m_syn = np.vstack(blocks)
    u, s, _ = np.linalg.svd(m_syn, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    return u[:, rank:].conj().T


class PlainScalarFrame:
    """Plain-matrix reimplementation of the d = 1 case.

    Operators are N x N complex matrices acting on column vectors of C^N
    with the standard inner product, the opposite convention to the
    library's row action; comparisons go through a transpose bridge.
    """

    def __init__(self, operators):
        self.operators = [np.asarray(m, dtype=np.complex128) for m in operators]
        self.dim = self.operators[0].shape[0]

    @classmethod
    def from_frame(cls, frame):
        assert frame.d == 1
        return cls([e.operator.matrix.T for e in frame.elements])

    def frame_matrix(self) -> np.ndarray:
        s = sum(m.conj().T @ m for m in self.operators)
        return (s + s.conj().T) / 2.0

    def bounds(self):
        eigs = np.linalg.eigvalsh(self.frame_matrix())
        return float(eigs[0]), float(eigs[-1])

    def dual_operators(self):
        s_inv = np.linalg.inv(self.frame_matrix())
        return [m @ s_inv for m in self.operators]

    def representation(self, pairs):
        lhs = np.hstack([self.operators[a] for a, _ in pairs])
        rhs = np.hstack([self.operators[b] for _, b in pairs])
        x = rhs @ np.linalg.pinv(lhs, rcond=1e-10)
        residual = max(
            float(np.linalg.norm(x @ self.operators[a] - self.operators[b], 2))
            for a, b in pairs
        )
        return x, residual


def _shift_slots(m: int, convention: str):
    """(j, target) pairs: the right shift moves term j into slot target."""
    if convention == "cyclic":
        return [(j, (j - 1) % m) for j in range(m)]
    return [(j, j - 1) for j in range(1, m)]


def exact_kernel_shift_defects(frame):
    """Exact shift invariance of the synthesis kernel, with no sampling.

    In row coordinates the kernel is {y : y M = 0}, M the stacked blocks
    R_xi Y_xi^H (R_xi orthonormal rows of N_xi, recomputed here from the
    projection's eigenvectors).  With U_r the range basis of M and
    Pi = I - U_r U_r^H, every kernel row is z Pi.  The shift moves slot j of
    y to slot j-1, so invariance means Pi M' = 0 for the shifted synthesis
    matrix M' (block j = R_j Y_{j-1}^H) and Pi D = 0 for the membership
    defects D (block j = R_j (I - P_{j-1}), block-diagonal).

    Returns (membership defect, synthesis defect / max(||M||, 1)), both the
    suprema over unit-norm kernel elements.
    """
    rows, mats, projs = [], [], []
    for sub, op in frame.elements:
        p = sub.projection.matrix
        w, v = np.linalg.eigh((p + p.conj().T) / 2.0)
        rows.append(v[:, w > 0.5].conj().T)
        mats.append(op.matrix)
        projs.append(p)
    nd = frame.n * frame.d
    sizes = [r.shape[0] for r in rows]
    offsets = np.cumsum([0] + sizes)
    m_syn = np.vstack([r @ y.conj().T for r, y in zip(rows, mats)])
    u, s, _ = np.linalg.svd(m_syn, full_matrices=True)
    top = float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * top)) if top > 0.0 else 0
    pi = np.eye(m_syn.shape[0]) - u[:, :rank] @ u[:, :rank].conj().T
    shifted = np.zeros_like(m_syn)
    membership = np.zeros((m_syn.shape[0], len(rows) * nd), dtype=np.complex128)
    for j, target in _shift_slots(len(rows), frame.index_convention):
        block = slice(offsets[j], offsets[j + 1])
        shifted[block] = rows[j] @ mats[target].conj().T
        membership[block, target * nd:(target + 1) * nd] = rows[j] @ (np.eye(nd) - projs[target])
    return (float(np.linalg.norm(pi @ membership, 2)),
            float(np.linalg.norm(pi @ shifted, 2)) / max(top, 1e-300))


def reference_kernel_check(frame, samples: int, seed: int, tol: float = 1e-8):
    """The per-sample kernel-invariance loop the library used to run, kept
    as a reference: draw coefficients on the full-SVD null basis one sample
    at a time, normalize, shift with membership checks, synthesize.

    Returns (samples drawn, defect, ok) like the kernel half of
    `check_representation_bounds`.
    """
    from gframemod.exceptions import MembershipViolation
    from gframemod.frames import synthesis
    from gframemod.hilbert import ModuleSequence, ModuleVector, right_shift

    null_rows = synthesis_nullspace(frame)
    k = null_rows.shape[0]
    if k == 0:
        return 0, 0.0, True
    basis_list = [sub.basis_rows for sub in frame.submodules()]
    top = float(np.linalg.norm(np.vstack([r @ e.operator.matrix.conj().T
                                          for r, e in zip(basis_list, frame.elements)]), 2))
    offsets = np.cumsum([0] + [r.shape[0] for r in basis_list])
    rng = np.random.default_rng(seed)
    defect = 0.0
    for _ in range(samples):
        y = (rng.standard_normal((frame.d, k)) + 1j * rng.standard_normal((frame.d, k))) @ null_rows
        terms = [ModuleVector(y[:, offsets[xi]:offsets[xi + 1]] @ rows, frame.n, frame.d)
                 for xi, rows in enumerate(basis_list)]
        seq = ModuleSequence(terms, frame.index_convention, frame.submodules())
        seq = ModuleSequence._like(seq.flats / seq.norm(), seq)
        try:
            shifted = right_shift(seq)
        except MembershipViolation:
            return samples, float("inf"), False
        defect = max(defect, synthesis(frame, shifted, membership_tol=None).norm() / max(top, 1e-300))
    return samples, defect, defect <= tol


def term_stack_kernel_check(frame, convention: str, seed: int, samples: int = 100):
    """The term-stack kernel-invariance check the library used to run, kept
    as the reference for its row-coordinate version: every sample's terms
    as one (samples, m, d, n*d) stack, shifted, tested for membership with
    `contained` and synthesized with one tensordot.

    Returns (drawn, defect, ok) like `represent.kernel_invariance`.
    """
    import math

    from gframemod.hilbert import _check_convention, contained
    from gframemod.numerics import MEMBERSHIP_TOL, REPRESENT_TOL, spectral_norms
    from gframemod.represent import _kernel_row_basis

    kernel_basis = _kernel_row_basis(frame)
    basis_list, _, q, _ = kernel_basis
    sizes = [rows.shape[0] for rows in basis_list]
    total = sum(sizes)
    if total == q.shape[1]:
        return 0, 0.0, True
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((samples, frame.d, total, 2)).view(np.complex128)[..., 0]
    y -= (y @ q) @ q.conj().T
    # the basis rows are orthonormal, so the sequence norm is ||y||_2
    norms = spectral_norms(y)
    y /= np.where(norms > 0.0, norms, 1.0)[:, None, None]
    terms = np.empty((samples, len(basis_list), frame.d, frame.n * frame.d), dtype=np.complex128)
    offsets = np.cumsum([0] + sizes)
    for xi, rows in enumerate(basis_list):
        terms[:, xi] = y[..., offsets[xi]:offsets[xi + 1]] @ rows
    # the right shift moves term xi+1 into slot xi, so term j is tested
    # against N_{j-1} and synthesized by Y_{j-1}; the linear shift drops
    # term 0 and pads with a zero term, which contributes nothing
    m = len(frame)
    if _check_convention(convention) == "cyclic":
        moved, targets = terms, np.roll(np.arange(m), 1)
    else:
        moved, targets = terms[:, 1:], np.arange(m - 1)
    if not contained(moved, frame.projections[targets], MEMBERSHIP_TOL).all():
        return samples, math.inf, False
    images = np.tensordot(moved, frame.operators[targets].conj(), axes=([1, 3], [0, 2]))
    defect = float(spectral_norms(images).max()) / max(kernel_basis[3], 1e-300)
    return samples, defect, defect <= REPRESENT_TOL


def reference_margins(alphas, terms, terms_hat, eta: float, beta: float):
    """lhs and rhs of the perturbation inequality for coefficient rows
    against applied terms of shape (m, ..., r, n*d): einsum combinations,
    all three always formed, and spectral norms from a full SVD of each
    r x (n*d) block, giving margins of shape (sequences, ...)."""
    diff = np.einsum("sm,m...->s...", alphas, terms - terms_hat)
    base = np.einsum("sm,m...->s...", alphas, terms)
    hat = np.einsum("sm,m...->s...", alphas, terms_hat)
    lhs = np.linalg.norm(diff, ord=2, axis=(-2, -1))
    rhs = eta * np.linalg.norm(base, ord=2, axis=(-2, -1)) \
        + beta * np.linalg.norm(hat, ord=2, axis=(-2, -1))
    return lhs, rhs


def inequality_sides(frame, perturbed, eta: float, beta: float, coefficients, f):
    """lhs and rhs of the perturbation inequality for one coefficient
    sequence and vector, summed member by member from each element's
    operator, with spectral norms from np.linalg.norm."""
    def combination(operators):
        return sum(a * (f.flat @ y) for a, y in zip(coefficients, operators))

    ys = [e.operator.matrix for e in frame.elements]
    hats = [e.operator.matrix for e in perturbed.elements]
    lhs = np.linalg.norm(combination([y - h for y, h in zip(ys, hats)]), 2)
    rhs = eta * np.linalg.norm(combination(ys), 2) + beta * np.linalg.norm(combination(hats), 2)
    return float(lhs), float(rhs)


def stdlib_document(path):
    """The document at `path` as the standard library alone decodes it,
    `json.loads(raw.decode("utf-8"))`, with the ParseError messages the
    library gives for bytes that are not UTF-8 or not JSON: the reference
    that the library's decoding is checked against.  Pass the result to
    `document_to_frame` or `document_to_vector`."""
    from gframemod.exceptions import ParseError

    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def eager_independence(frame):
    """The independence report by the eager path, the reference that the
    `independence` command is checked against: the shift solved for every
    family of two or more members (no span check when the span is
    degenerate), then `independence_analysis(frame, rep=rep)`."""
    from gframemod.exceptions import DegenerateSpan
    from gframemod.represent import independence_analysis, solve_representation

    try:
        rep = solve_representation(frame) if len(frame) >= 2 else None
    except DegenerateSpan:
        rep = None
    return independence_analysis(frame, rep=rep)


# ---------------------------------------------------------------------------
# exact arithmetic over Gaussian rationals, as (real, imaginary) Fraction pairs


def _exact(z) -> tuple:
    """The Gaussian rational a float complex number holds, exactly."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _times(a, b) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _over(a, b) -> tuple:
    size = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / size, (a[1] * b[0] - a[0] * b[1]) / size


def _minus(a, b) -> tuple:
    return a[0] - b[0], a[1] - b[1]


def _axpy(factor, u, v) -> list:
    """v - factor u, entry by entry."""
    return [_minus(y, _times(factor, x)) for x, y in zip(u, v)]


def exact_dependencies(stack):
    """Rank of a stack of m arrays read as m vectors, the members that lie
    in the span of those before them, and the first dependency: the
    coefficients c_0 .. c_b with c_b = 1 and sum_k c_k stack_k = 0, b the
    first such member (None when there is none).

    Gaussian elimination over the Gaussian rationals that float64 entries
    hold exactly, with Fraction pairs: no rounding and no tolerance."""
    m = len(stack)
    zero = (Fraction(0), Fraction(0))
    one = (Fraction(1), Fraction(0))
    basis = []  # (reduced vector, its pivot entry, its combination of the members)
    dependent, first = [], None
    for k, member in enumerate(stack):
        vector = [_exact(z) for z in np.asarray(member).reshape(-1)]
        combination = [one if j == k else zero for j in range(m)]
        for reduced, pivot, used in basis:
            if vector[pivot] != zero:
                factor = _over(vector[pivot], reduced[pivot])
                vector = _axpy(factor, reduced, vector)
                combination = _axpy(factor, used, combination)
        nonzero = [i for i, z in enumerate(vector) if z != zero]
        if nonzero:
            basis.append((vector, nonzero[0], combination))
            continue
        dependent.append(k)
        if first is None:
            first = np.array([complex(float(re), float(im)) for re, im in combination[:k + 1]])
    return len(basis), dependent, first


_W = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2  # W^2 swaps the coordinates
_SYLVESTER = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2


def _dyadic_unitaries(nd: int, rng) -> list:
    """Unitaries whose entries are Gaussian dyadic rationals: a signed
    permutation, diag(1, i, ...), and W (nd = 2) or H/2, H the Sylvester
    Hadamard matrix, and W on two coordinates (nd = 4)."""
    signs = rng.choice([-1.0, 1.0, 1j, -1j], size=nd)
    permutation = np.eye(nd)[rng.permutation(nd)] * signs
    phases = np.diag([1.0, 1j] * (nd // 2) + [1.0] * (nd % 2))
    out = [permutation, phases]
    if nd == 2:
        out.append(_W)
    elif nd == 4:
        out += [_SYLVESTER, np.kron(np.eye(2), _W)]
    return [u.astype(np.complex128) for u in out]


def dyadic_family(nd: int, m: int, rng) -> np.ndarray:
    """m operators on C^nd with Gaussian dyadic entries, which float64 holds
    and multiplies exactly: products of up to three of `_dyadic_unitaries`,
    and dyadic combinations, multiples and repeats of earlier members, and
    the zero operator, so that dependencies come in every position."""
    members = []
    for _ in range(m):
        choice = rng.choice(4, p=[0.7, 0.15, 0.1, 0.05]) if members else 0
        if choice == 0:
            gens = _dyadic_unitaries(nd, rng)
            member = np.eye(nd, dtype=np.complex128)
            for _ in range(rng.integers(4)):
                member = member @ gens[rng.integers(len(gens))]
        elif choice == 1:
            a, b = rng.integers(len(members), size=2)
            member = members[a] + rng.choice([1.0, -1.0, 0.5, 1j]) * members[b]
        elif choice == 2:
            member = rng.choice([2.0, -0.25, 0.5j]) * members[rng.integers(len(members))]
        else:
            member = np.zeros((nd, nd), dtype=np.complex128)
        members.append(member)
    return np.stack(members)
