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

from .exceptions import DimensionMismatch, MembershipViolation
from .numerics import MEMBERSHIP_TOL, PROJECTION_TOL, RANK_TOL, norms_within, rank

CONVENTIONS = ("linear", "cyclic")


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"index convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


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


def gram_sum(a, b) -> np.ndarray:
    """sum_k A_k B_k^H over two stacks of equal shape (m, r, c)."""
    return np.einsum("kij,klj->il", a, b.conj())


def null_combinations(stack):
    """Rank of a stack of m arrays read as m vectors, and orthonormal rows
    c (one per null direction) with sum_k c_k stack_k = 0.

    The rows are in echelon form from the last member: taking b from m - 1
    down, a row is the unit projection of e_b onto the null combinations
    that vanish past b, whenever that projection exceeds RANK_TOL.  So they do
    not depend on the basis the SVD picks for a null space of more than one
    direction, and the last row is the dependency among members 0 .. b with
    b smallest.  The right singular basis is taken in full only when m
    exceeds the vector length, since only then does the thin one miss the
    null space.  An all-zero stack has rank 0 and every row is null.
    """
    m = stack.shape[0]
    columns = stack.reshape(m, -1).T
    _, s, vh = np.linalg.svd(columns, full_matrices=m > columns.shape[0])
    r = int(rank(s))
    null = vh[r:].conj()
    # a QR of the columns from the last member down, less each one whose
    # remainder past the kept ones is at most RANK_TOL, gives one pivot per row
    cols = list(range(m - 1, -1, -1))
    while True:
        q, tri = np.linalg.qr(null[:, cols])
        small = np.flatnonzero(np.abs(np.diagonal(tri)) <= RANK_TOL)
        if not small.size:
            break
        del cols[small[0]]
    pivots = np.diagonal(tri)  # null has orthonormal rows, so RANK_TOL is relative to 1
    return r, (pivots.conj() / np.abs(pivots))[:, None] * (q.conj().T @ null)


def contained(flats, projections, bounds) -> np.ndarray:
    """||t - t P||_2 <= bound for every flattened term t in a stack against
    its projection P."""
    residual = flats @ projections
    np.subtract(flats, residual, out=residual)
    return norms_within(residual, bounds)


def orthonormal_rows(rows) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of `rows`."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.complex128))
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:rank(s)]


def checked_projections(stack):
    """Validate a stack of would-be orthogonal projections in one batch.

    Returns the (index, problem) of the first matrix q that is not
    self-adjoint or not idempotent within PROJECTION_TOL in spectral norm
    (a projection has no scale), or None, and the row basis of every
    matrix from one batched SVD.
    """
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    adjoint_ok = norms_within(stack - stack.conj().swapaxes(-1, -2), PROJECTION_TOL)
    idempotent_ok = norms_within(stack @ stack - stack, PROJECTION_TOL)
    bad = np.flatnonzero(~(adjoint_ok & idempotent_ok))
    fault = None
    if bad.size:
        k = int(bad[0])
        problem = "self-adjoint" if not adjoint_ok[k] else "idempotent"
        fault = (k, f"projection is not {problem} within tolerance")
    return fault, [v[:r] for v, r in zip(vh, rank(s).tolist())]


class Submodule:
    """Closed orthogonally complemented A-submodule, held as its projection.

    Internally a complex row subspace V of C^(n*d): a vector lies in the
    submodule iff every row of its flattened form lies in V.
    """

    __slots__ = ("projection", "basis_rows", "rank", "n", "d")

    def __init__(self, projection: ModuleOperator):
        fault, (basis,) = checked_projections(projection.matrix[None])
        if fault is not None:
            raise ValueError(fault[1])
        self._adopt(projection, basis)

    def _adopt(self, projection: ModuleOperator, basis_rows: np.ndarray) -> "Submodule":
        basis_rows.setflags(write=False)
        self.projection = projection
        self.basis_rows = basis_rows
        self.rank = basis_rows.shape[0]
        self.n = projection.n
        self.d = projection.d
        return self

    @classmethod
    def from_basis_rows(cls, rows, n: int, d: int) -> "Submodule":
        rows = orthonormal_rows(rows)
        return cls(ModuleOperator(rows.conj().T @ rows, n, d))  # zero for no rows

    @classmethod
    def full(cls, n: int, d: int) -> "Submodule":
        return cls(ModuleOperator.identity(n, d))

    def contains(self, f: ModuleVector) -> bool:
        """||f - f P||_2 <= MEMBERSHIP_TOL * ||f||."""
        return bool(contained(f.flat, self.projection.matrix, MEMBERSHIP_TOL * f.norm()))

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
                raise DimensionMismatch("one target submodule per term is required")
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
    if len(f) != len(g):
        raise DimensionMismatch("sequences of different length")
    if (f.n, f.d) != (g.n, g.d):
        raise DimensionMismatch("module vectors of different shape")
    return gram_sum(f.flats, g.flats)


def right_shift(seq: ModuleSequence) -> ModuleSequence:
    """The sequence whose term xi is the input's term xi+1.

    Cyclic convention rotates; linear drops the leading term and appends a
    zero.  When target submodules are attached, a shifted term that leaves
    its new target by more than MEMBERSHIP_TOL times the sequence norm
    raises MembershipViolation.  The scale is the sequence's, not the
    term's own, so a term that is rounding noise passes.
    """
    wrapped = seq.flats[:1] if seq.index_convention == "cyclic" else np.zeros_like(seq.flats[:1])
    shifted = np.concatenate((seq.flats[1:], wrapped))
    if seq.projections is not None:
        inside = contained(shifted, seq.projections, MEMBERSHIP_TOL * seq.norm())
        if not inside.all():
            raise MembershipViolation(f"shifted term {np.argmin(inside)} leaves its target submodule")
    return ModuleSequence._like(shifted, seq)
