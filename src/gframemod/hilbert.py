"""The free Hilbert module H = A^n over A = M_d(C), with adjointable
operators, orthogonally complemented submodules, and finite sequences.

Conventions, fixed once and used by every other module:

* a vector f = (f_1, ..., f_n) is stored flattened as the d x (n*d)
  row-block matrix [f_1 | ... | f_n];
* the algebra acts on the left: a . f  <->  a @ f.flat;
* operators are (n*d) x (n*d) matrices acting on the right of the
  flattened form: apply(op, f) <-> f.flat @ op.matrix.  Right action makes
  every operator A-linear by construction and commutes with the left
  algebra action;
* <f, g> = sum_i f_i g_i^*  <->  f.flat @ g.flat^H, a d x d element of A;
* ||f|| = ||<f, f>||^(1/2) = largest singular value of f.flat.

Under these conventions the operator adjoint is the conjugate transpose of
the matrix, and composition s-after-t has matrix t.matrix @ s.matrix.
A submodule closed under the A-action corresponds exactly to a complex
subspace V of the n*d-dimensional row space; its projection matrix is the
orthogonal projection onto V applied on the right.
"""

import numpy as np

from .exceptions import DimensionMismatch, LengthMismatch, MembershipViolation
from .numerics import (MEMBERSHIP_TOL, PROJECTION_TOL, RANK_TOL, at_most, hermitian_within, norms_within,
                       rank, threshold, unit_scaled)

CONVENTIONS = ("linear", "cyclic")


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"index convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


def shift_pairs(m: int, convention: str):
    """The right shift on m slots as (k, b): slot i < k takes term b[i] and
    the slots from k on are empty.  Under `cyclic`, k = m and term 0 wraps
    into slot m - 1; under `linear`, k = m - 1 and term 0 drops out."""
    k = m if _check_convention(convention) == "cyclic" else m - 1
    return k, (np.arange(k) + 1) % m


def _check_shapes(family, other):
    """LengthMismatch or DimensionMismatch unless two families or sequences agree."""
    if len(family) != len(other):
        raise LengthMismatch("families have different lengths")
    if (family.n, family.d) != (other.n, other.d):
        raise DimensionMismatch("families have different (n, d)")


def _common_shape(items, what: str):
    """The (n, d) that every object of a nonempty list shares."""
    if not items:
        raise DimensionMismatch(f"at least one {what} is required")
    if len({(x.n, x.d) for x in items}) > 1:
        raise DimensionMismatch(f"{what}s of different shape")
    return items[0].n, items[0].d


class _Linear:
    """A read-only complex array, named by `_ARRAY`, of shape `_shape(n, d)`,
    with the vector-space operations between objects of one class and shape."""

    __slots__ = ()

    def __init__(self, array, n: int, d: int):
        array = np.array(array, dtype=np.complex128)
        shape = self._shape(n, d)
        if n < 1 or d < 1 or array.shape != shape:
            raise DimensionMismatch(f"expected shape {shape}, got {array.shape}")
        array.setflags(write=False)
        setattr(self, self._ARRAY, array)
        self.n = n
        self.d = d

    @classmethod
    def zero(cls, n: int, d: int):
        return cls(np.zeros(cls._shape(n, d), dtype=np.complex128), n, d)

    def norm(self) -> float:
        """Top singular value of the array: the module norm ||<f, f>||^(1/2) of
        a vector, the operator norm sup ||op f|| / ||f|| of an operator."""
        return float(np.linalg.norm(getattr(self, self._ARRAY), 2))

    def _same_shape(self, other):
        if type(other) is not type(self) or (self.n, self.d) != (other.n, other.d):
            raise DimensionMismatch(f"{self._KIND} of different shape")

    def _map(self, fn, *others):
        for other in others:
            self._same_shape(other)
        return type(self)(fn(*(getattr(x, self._ARRAY) for x in (self, *others))), self.n, self.d)

    def __add__(self, other):
        return self._map(np.add, other)

    def __sub__(self, other):
        return self._map(np.subtract, other)

    def __mul__(self, scalar):
        return self._map(lambda a: a * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._map(np.negative)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, d={self.d})"


class ModuleVector(_Linear):
    """Element of A^n in flattened row-block form."""

    __slots__ = ("flat", "n", "d")
    _ARRAY, _KIND = "flat", "module vectors"

    @staticmethod
    def _shape(n: int, d: int):
        return (d, n * d)

    @classmethod
    def from_components(cls, components) -> "ModuleVector":
        components = [np.asarray(c, dtype=np.complex128) for c in components]
        if not components:
            raise DimensionMismatch("a module vector needs at least one component")
        d = components[0].shape[0]
        for c in components:
            if c.shape != (d, d):
                raise DimensionMismatch("all components must be d x d with a common d")
        return cls(np.hstack(components), len(components), d)

    def component(self, i: int) -> np.ndarray:
        return self.flat[:, i * self.d : (i + 1) * self.d]

    def components(self):
        return [self.component(i) for i in range(self.n)]


class ModuleOperator(_Linear):
    """Adjointable A-linear map on A^n as an (n*d) x (n*d) matrix."""

    __slots__ = ("matrix", "n", "d")
    _ARRAY, _KIND = "matrix", "module operators"

    @staticmethod
    def _shape(n: int, d: int):
        return (n * d, n * d)

    @classmethod
    def identity(cls, n: int, d: int) -> "ModuleOperator":
        return cls(np.eye(n * d, dtype=np.complex128), n, d)


def inner_product(f: ModuleVector, g: ModuleVector) -> np.ndarray:
    """The A-valued inner product sum_i f_i g_i^*, a d x d matrix.

    A-linear in the first slot, conjugate-symmetric: <f, g> = <g, f>^*.
    """
    f._same_shape(g)
    return f.flat @ g.flat.conj().T


def apply(op: ModuleOperator, f: ModuleVector) -> ModuleVector:
    """Evaluate the operator: component j of the result is sum_i f_i B_ij."""
    if (op.n, op.d) != (f.n, f.d):
        raise DimensionMismatch("operator and vector shapes differ")
    return ModuleVector(f.flat @ op.matrix, f.n, f.d)


def compose(s: ModuleOperator, t: ModuleOperator) -> ModuleOperator:
    """s after t: apply(compose(s, t), f) == apply(s, apply(t, f))."""
    s._same_shape(t)
    return ModuleOperator(t.matrix @ s.matrix, s.n, s.d)


def operator_adjoint(op: ModuleOperator) -> ModuleOperator:
    """The unique adjoint: <apply(op, f), g> = <f, apply(adjoint, g)>."""
    return ModuleOperator(op.matrix.conj().T, op.n, op.d)


def _unfolded(stack) -> np.ndarray:
    """The unfolding [S_0 | ... | S_{m-1}], (r, m*c), of a stack of shape (m, r, c)."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def gram_sum(a, b) -> np.ndarray:
    """sum_k A_k B_k^H over stacks of shape (m, r, c) and (m, r', c), as one
    GEMM A' B'^H over the unfoldings A' = [A_0 | ... | A_{m-1}]."""
    return _unfolded(a) @ _unfolded(b).conj().T


def applied(rows, stack) -> np.ndarray:
    """rows @ S_k for every member of an (m, c, c') stack, shape (m, *rows.shape[:-1], c'),
    as one GEMM of the rows read as (-1, c) against the unfolding [S_0 | ... | S_{m-1}]."""
    m, c, out = stack.shape
    products = rows.reshape(-1, c) @ _unfolded(stack)
    return np.moveaxis(products.reshape(*rows.shape[:-1], m, out), -2, 0)


_ROWS_EACH_END = 8  # rows null_combinations keeps of the last pivots, and of the first


def _basic_members(unit, count: int) -> np.ndarray:
    """The first `count` members, from member 0 on, whose column of `unit`
    (an R factor with top singular value 1) lies further than RANK_TOL from
    the span of the basic members before it.

    While every member before j is basic, that distance is |R_jj|, and the
    first `lead` columns span the first `lead` coordinates; past the first
    small diagonal entry, each further basic member costs one Gram-Schmidt
    step over the remaining columns."""
    small = np.flatnonzero(at_most(np.abs(np.diagonal(unit)[:count]), 0.0, RANK_TOL))
    lead = int(small[0]) if small.size else count
    basic = list(range(lead))
    residual = unit[lead:, lead:].copy()
    start = 0
    while len(basic) < count:
        part = residual[:, start:]
        lengths = np.sqrt((part.real ** 2 + part.imag ** 2).sum(axis=0))
        far = np.flatnonzero(~at_most(lengths, 0.0, RANK_TOL))
        if not far.size:
            break
        j = start + int(far[0])
        q = residual[:, j] / lengths[far[0]]
        residual[:, j + 1:] -= np.outer(q, q.conj() @ residual[:, j + 1:])
        basic.append(lead + j)
        start = j + 1
    return np.array(basic, dtype=np.intp)


def null_combinations(stack):
    """Rank of a stack of m arrays read as m vectors, and orthonormal rows
    c with sum_k c_k stack_k = 0: all of them when at most 16 members are
    pivots, else the 8 with the last pivots and the 8 with the first.

    Member b is a pivot when it lies within RANK_TOL times the stack's top
    singular value of the span of the basic members before it; the basic
    members are the others, taken from member 0 on until there are rank of
    them, the rank counted by `rank` on the singular values.  Its row is the
    unit projection of e_b onto the null combinations of members 0 .. b, so
    its entry b is positive, those past b are 0, and no basis an SVD picks
    moves it.  The rows run from the last pivot down, and the last row is
    the dependency among members 0 .. b with b smallest.

    One thin QR of the `unit_scaled` (nd)^2 x m stack leaves an R factor
    with the same singular values and column distances, from which the rank
    is counted and the basic members found.  X = R_B^+ R writes each member in the
    basic ones B, so the prefix 0 .. b spans the row space of X_b, the
    columns 0 .. b of X with echelon zeros, and the row of pivot b is
    e_b - X_b^H (X_b X_b^H)^-1 x_b, normalised; X_b holds the identity at
    its basic columns, so its Gram is at least I.  No (m, m) array is
    formed.  An all-zero stack has rank 0 and its rows are the e_b.
    """
    m = stack.shape[0]
    tri = np.linalg.qr(unit_scaled(stack)[0].reshape(m, -1).T, mode="r")
    # entries within eps of the largest are the QR's rounding; as zeros they
    # move no singular value by more than sqrt(tri.size) eps max |R|, far
    # below RANK_TOL, and let the SVD split them off
    moduli = np.abs(tri)
    tri[moduli <= np.finfo(np.float64).eps * moduli.max()] = 0.0
    s = np.linalg.svd(tri, compute_uv=False)
    r = int(rank(s))
    if r == m:
        return r, np.zeros((0, m), dtype=np.complex128)
    if s[0] > 0.0:
        tri = tri / s[0]
    basic = _basic_members(tri, r)
    dependent = np.ones(m, dtype=bool)
    dependent[basic] = False
    pivots = np.flatnonzero(dependent)
    if pivots.size > 2 * _ROWS_EACH_END:
        pivots = np.concatenate((pivots[:_ROWS_EACH_END], pivots[-_ROWS_EACH_END:]))
    members = np.arange(m)
    x = np.linalg.lstsq(tri[:, basic], tri, rcond=None)[0]
    x[members < basic[:, None]] = 0.0
    x[:, basic] = np.eye(basic.size)
    # 1 on the diagonal for each basic member past b, whose row of X_b is
    # zero, plus the Gram of each prefix, summed on from the last one's
    grams = np.eye(basic.size, dtype=np.complex128) * (basic > pivots[:, None])[:, None, :]
    gram, done = 0.0, 0
    for k, b in enumerate(pivots):
        block = x[:, done:b + 1]
        gram = gram + block @ block.conj().T
        grams[k] += gram
        done = b + 1
    y = np.linalg.solve(grams, x[:, pivots].T[..., None])[..., 0]
    rows = -(y @ x.conj())
    rows[members > pivots[:, None]] = 0.0
    k = np.arange(pivots.size)
    rows[k, pivots] = 1.0 + rows[k, pivots].real  # 1 - x_b^H G^-1 x_b, real and positive
    rows /= np.sqrt((rows.real ** 2 + rows.imag ** 2).sum(axis=1))[:, None]
    return r, rows[::-1]


def contained(flats, projections, bounds) -> np.ndarray:
    """||t - t P||_2 <= bound for every flattened term t in a stack against
    its projection P."""
    residual = flats @ projections
    np.subtract(flats, residual, out=residual)
    return norms_within(residual, bounds)


def orthonormal_rows(rows) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `rows`, read-only."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    vh.setflags(write=False)
    return vh[:rank(s)]


def projection_fault(stack):
    """The (index, problem) of the first matrix q of a stack that is not
    self-adjoint or not idempotent within PROJECTION_TOL in spectral norm
    (a projection has no scale), or None when every one is a projection."""
    adjoint_ok = hermitian_within(stack, threshold(PROJECTION_TOL))
    idempotent_ok = norms_within(stack @ stack - stack, threshold(PROJECTION_TOL))
    bad = np.flatnonzero(~(adjoint_ok & idempotent_ok))
    if not bad.size:
        return None
    k = int(bad[0])
    problem = "self-adjoint" if not adjoint_ok[k] else "idempotent"
    return k, f"projection is not {problem} within tolerance"


def row_bases(stack):
    """Packed, read-only orthonormal row bases of a stack from one batched SVD: V
    cut to the largest rank, with the rows past each rank 0, and the basis-row mask."""
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    ranks = rank(s)
    mask = np.arange(ranks.max(initial=0)) < ranks[..., None]
    vh = np.where(mask[..., None], vh[..., :mask.shape[-1], :], 0.0)
    for part in (vh, mask):
        part.setflags(write=False)
    return vh, mask


class Submodule:
    """Closed orthogonally complemented A-submodule, held as its projection.

    Internally a complex row subspace V of C^(n*d): a vector lies in the
    submodule iff every row of its flattened form lies in V.  The
    projection is checked when the submodule is built; its orthonormal row
    basis (`orthonormal_rows` of the projection) is taken on the first read
    of `basis_rows` or `rank`.  A submodule built from basis rows is a
    projection by construction and keeps the rows its own SVD found.
    """

    __slots__ = ("projection", "_basis_rows", "n", "d")

    def __init__(self, projection: ModuleOperator):
        fault = projection_fault(projection.matrix[None])
        if fault is not None:
            raise ValueError(fault[1])
        self._adopt(projection, None)

    def _adopt(self, projection: ModuleOperator, basis_rows) -> "Submodule":
        """Keep the projection and its read-only row basis, or None."""
        self.projection = projection
        self._basis_rows = basis_rows
        self.n = projection.n
        self.d = projection.d
        return self

    @property
    def basis_rows(self) -> np.ndarray:
        if self._basis_rows is None:
            self._basis_rows = orthonormal_rows(self.projection.matrix)
        return self._basis_rows

    @property
    def rank(self) -> int:
        return self.basis_rows.shape[0]

    @classmethod
    def from_basis_rows(cls, rows, n: int, d: int) -> "Submodule":
        rows = orthonormal_rows(rows)
        projection = ModuleOperator(rows.conj().T @ rows, n, d)  # zero for no rows
        return cls.__new__(cls)._adopt(projection, rows)

    @classmethod
    def full(cls, n: int, d: int) -> "Submodule":
        return cls(ModuleOperator.identity(n, d))

    def contains(self, f: ModuleVector) -> bool:
        """||f - f P||_2 <= MEMBERSHIP_TOL * ||f||."""
        return bool(contained(f.flat, self.projection.matrix, threshold(MEMBERSHIP_TOL, f.norm())))

    def __repr__(self):
        return f"Submodule(rank={self.rank}, n={self.n}, d={self.d})"


def submodule_from_generators(generators) -> Submodule:
    """Projection onto the smallest A-submodule containing the generators.

    The A-orbit of a vector spans exactly the complex row space of its
    flattened form, so closure under the algebra action is automatic once
    all rows of all generators are stacked.
    """
    generators = list(generators)
    n, d = _common_shape(generators, "generator")
    return Submodule.from_basis_rows(np.vstack([g.flat for g in generators]), n, d)


def span_of_submodules(submodules) -> Submodule:
    """Projection onto the closed submodule generated by the union of ranges."""
    submodules = list(submodules)
    n, d = _common_shape(submodules, "submodule")
    return Submodule.from_basis_rows(np.vstack([s.basis_rows for s in submodules]), n, d)


class ModuleSequence:
    """Finite sequence {f_xi} with f_xi constrained to a target submodule.

    Held as a read-only (m, d, n*d) stack `flats` of the flattened terms and,
    when target submodules are given, the (m, n*d, n*d) stack `projections`
    of theirs, against which membership of each term can be checked and
    which the right shift enforces.  `terms` is built on demand.
    """

    __slots__ = ("flats", "index_convention", "projections", "n", "d")

    def __init__(self, terms, index_convention: str = "linear", submodules=None):
        terms = list(terms)
        self.n, self.d = _common_shape(terms, "sequence term")
        self.projections = None
        if submodules is not None:
            submodules = list(submodules)
            if len(submodules) != len(terms):
                raise LengthMismatch("one target submodule per term is required")
            if any((sub.n, sub.d) != (self.n, self.d) for sub in submodules):
                raise DimensionMismatch("target submodules and terms of different shape")
            self.projections = np.stack([s.projection.matrix for s in submodules])
        self.flats = np.stack([t.flat for t in terms])
        self.flats.setflags(write=False)
        self.index_convention = _check_convention(index_convention)

    @classmethod
    def _like(cls, flats, source) -> "ModuleSequence":
        """The sequence of a term stack, kept without copying, with the shape,
        convention and target projections of `source`, a sequence or a frame."""
        seq = cls.__new__(cls)
        flats.setflags(write=False)
        seq.flats, seq.n, seq.d = flats, source.n, source.d
        seq.index_convention, seq.projections = source.index_convention, source.projections
        return seq

    @property
    def terms(self):
        return tuple(ModuleVector(t, self.n, self.d) for t in self.flats)

    def __len__(self):
        return len(self.flats)

    def __iter__(self):
        return iter(self.terms)

    def norm(self) -> float:
        """||sum_xi <f_xi, f_xi>||^(1/2), the l2 norm of the sequence."""
        return float(np.sqrt(np.linalg.norm(sequence_inner_product(self, self), 2)))


def sequence_inner_product(f: ModuleSequence, g: ModuleSequence) -> np.ndarray:
    """sum_xi <f_xi, g_xi>, the A-valued l2 inner product."""
    _check_shapes(f, g)
    return gram_sum(f.flats, g.flats)


def right_shift(seq: ModuleSequence) -> ModuleSequence:
    """The sequence whose term xi is the input's term xi+1, slot by slot as
    `shift_pairs` maps them: cyclic rotates, linear drops the leading term
    and leaves the last slot zero.  When target submodules are attached, a
    shifted term that leaves its new target by more than MEMBERSHIP_TOL
    times the sequence norm raises MembershipViolation.  The scale is the
    sequence's, not the term's own, so a term that is rounding noise passes.
    """
    k, b = shift_pairs(len(seq), seq.index_convention)
    shifted = np.zeros_like(seq.flats)
    shifted[:k] = seq.flats[b]
    if seq.projections is not None:
        inside = contained(shifted, seq.projections, threshold(MEMBERSHIP_TOL, seq.norm()))
        if not inside.all():
            raise MembershipViolation(f"shifted term {np.argmin(inside)} leaves its target submodule")
    return ModuleSequence._like(shifted, seq)
