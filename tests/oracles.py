"""Independent oracles the library is checked against.

Everything here deliberately avoids the library's own code paths: vectors
are flattened the other way round ((n*d) x d stacks instead of d x (n*d)
rows), operators act on columns instead of rows, and scalar families are
re-implemented with plain matrices.
"""

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
