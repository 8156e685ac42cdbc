"""Independent numpy reference for every report the benchmark produces.

The oracle reads the documents with `json` and numpy alone and derives each
verdict from the mathematics, never from gframemod code:

* frame bounds are the extreme eigenvalues of S = sum_xi Y_xi Y_xi^H, to
  1e-8 relative to the upper bound; a singular S means exit 2;
* independence is the rank of the stacked vec(Y_xi);
* representability is a least-squares residual of Y_a T = Y_b over the
  convention's index pairs;
* the synthesis kernel's shift invariance is an exact subspace test;
* exit codes follow from these facts: a unitary orbit passes
  `--check-theorem21` (exit 0), a dilation fails it because ||T|| = c < 1
  (exit 3), a pass pair passes `perturb` and a witness pair fails it.

`check` returns a list of mismatches; an empty list means the report agrees.
Verdicts that sit inside a tolerance's ambiguity band are not judged.
"""

import functools
import hashlib
import json
import math

import numpy as np

from workloads import BETA, ETA, from_json

BOUND_RTOL = 1e-8  # bounds, norms and residuals, relative to the largest scale
RANK_RTOL = 1e-10  # singular values below this share of the largest are zero
TIGHT_TOL = 1e-9  # the CLI's default tightness gap
VERIFY_TOL = 1e-8  # the CLI's default verification tolerance
AMBIGUOUS = 1e2  # a quantity within this factor of its cutoff is not judged

class Document:
    """A frame document as numpy arrays: P and Y of shape (m, nd, nd)."""

    def __init__(self, doc: dict):
        self.n, self.d = doc["n"], doc["d"]
        self.nd = self.n * self.d
        self.convention = doc["index_convention"]
        self.metadata = doc["metadata"]
        self.P = np.stack([from_json(e["projection"]) for e in doc["elements"]])
        self.Y = np.stack([from_json(e["operator"]) for e in doc["elements"]])
        self.m = len(self.Y)

    def bounds(self):
        s = np.einsum("kij,klj->il", self.Y, self.Y.conj())
        eigs = np.linalg.eigvalsh((s + s.conj().T) / 2.0)
        return float(eigs[0]), float(eigs[-1])

    def scale(self) -> float:
        return float(max(np.linalg.norm(y, 2) for y in self.Y))

    def pairs(self, convention=None):
        if (convention or self.convention) == "cyclic":
            return [(k, (k + 1) % self.m) for k in range(self.m)]
        return [(k, k + 1) for k in range(self.m - 1)]

    def shift_solution(self):
        """Minimal-norm least-squares T of Y_a T = Y_b, pinned to the span
        of the submodules, with its per-pair spectral residuals."""
        pairs = self.pairs()
        lhs = np.vstack([self.Y[a] for a, _ in pairs])
        rhs = np.vstack([self.Y[b] for _, b in pairs])
        x = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        q = self.span_projection()
        x = q @ x @ q
        resid = [float(np.linalg.norm(self.Y[a] @ x - self.Y[b], 2)) for a, b in pairs]
        frob = float(np.linalg.norm(lhs @ x - rhs))
        return x, resid, frob

    def span_projection(self):
        u, s, _ = np.linalg.svd(np.hstack(list(self.P)), full_matrices=False)
        basis = u[:, : rank_of(s)]
        return basis @ basis.conj().T

    def vec_singular_values(self):
        return np.linalg.svd(self.Y.reshape(self.m, -1), compute_uv=False)


def rank_of(s) -> int:
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def rank_is_clear(s) -> bool:
    """No singular value within AMBIGUOUS of the rank cutoff."""
    if not s.size or s[0] == 0:
        return True
    rel = s / s[0]
    return not np.any((rel > RANK_RTOL / AMBIGUOUS) & (rel < RANK_RTOL * AMBIGUOUS))


def clearly(value: float, cutoff: float):
    """True/False when `value` is clearly below/above `cutoff`, else None."""
    if value <= cutoff / AMBIGUOUS:
        return True
    if value >= cutoff * AMBIGUOUS:
        return False
    return None


@functools.lru_cache(maxsize=None)
def load_document(path: str) -> Document:
    """Input documents are written once per run, at unique paths."""
    with open(path, encoding="utf-8") as handle:
        return Document(json.load(handle))


def _close(problems, what, got, want, tol):
    if got is None or not abs(got - want) <= tol:
        problems.append(f"{what}: got {got!r}, reference {want!r} (tol {tol:.1e})")


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# per-command checks


def check(inv, rc: int, data, seed: int, gen_seed: int = None) -> list:
    """Mismatches between one invocation's exit code and report bytes and
    the reference; `gen_seed` is the generator seed of a `gen` call."""
    problems = []
    if inv.command == "gen":
        _expect(problems, "exit code", rc, 0)
        if data is not None:
            check_generated(problems, json.loads(data), inv.kind, gen_seed)
        else:
            problems.append("gen wrote no document")
        return problems
    allowed, judge = _COMMANDS[inv.command](inv)
    if rc not in allowed:
        problems.append(f"exit code {rc}, expected one of {sorted(allowed)}")
        return problems
    if rc == 2:
        if data is not None:
            problems.append("a report was written despite exit 2")
        return problems
    if data is None:
        problems.append("no report written")
        return problems
    report = json.loads(data)
    _expect(problems, "command", report.get("command"), inv.command)
    _expect(problems, "seed", report.get("seed"), seed)
    sha = hashlib.sha256()
    for path in inv.inputs:
        with open(path, "rb") as handle:
            sha.update(handle.read())
    _expect(problems, "inputs_digest", report.get("inputs_digest"), sha.hexdigest())
    judge(problems, report["results"], rc)
    return problems


def _analyze(inv):
    doc = load_document(inv.inputs[0])
    lo, hi = doc.bounds()
    singular = True if hi <= 0.0 else clearly(lo / hi, RANK_RTOL)
    well_conditioned = singular is False and clearly(hi / lo * 1e-16, VERIFY_TOL)

    def judge(problems, res, rc):
        tol = BOUND_RTOL * hi
        _close(problems, "bounds.lower", res["bounds"]["lower"], lo, tol)
        _close(problems, "bounds.upper", res["bounds"]["upper"], hi, tol)
        _close(problems, "tightness_gap", res["tightness_gap"], (hi - lo) / hi, BOUND_RTOL)
        tight = clearly((hi - lo) / hi, TIGHT_TOL)
        if tight is not None:
            _expect(problems, "tight", res["tight"], tight)
        if well_conditioned:
            _expect(problems, "dual.verified", res["dual"]["verified"], True)
            if not res["dual"]["reconstruction_residual"] <= VERIFY_TOL:
                problems.append("dual.reconstruction_residual above 1e-8")

    if singular is None:
        return {0, 2, 3}, judge
    if singular:
        return {2}, judge
    return ({0} if well_conditioned else {0, 3}), judge


def _independence(inv):
    doc = load_document(inv.inputs[0])
    s = doc.vec_singular_values()
    rank = rank_of(s)

    def judge(problems, res, rc):
        if not rank_is_clear(s):
            return
        _expect(problems, "verdict", res["verdict"],
                "independent" if rank == doc.m else "dependent")
        _expect(problems, "invariant_span_dim", res["invariant_span_dim"], rank)
        if rank == doc.m:
            _expect(problems, "exit code", rc, 0)
            return
        coeffs = from_json(res["coefficients"])
        _close(problems, "max |coefficient|", float(np.abs(coeffs).max()), 1.0, 1e-12)
        combo = np.linalg.norm(np.einsum("k,kij->ij", coeffs, doc.Y), 2) / doc.scale()
        _close(problems, "null combination", float(combo), 0.0, VERIFY_TOL)
        _close(problems, "null_combination_norm", res["null_combination_norm"], 0.0, VERIFY_TOL)
        inv_report = res["span_invariance"]
        x, resid, _ = doc.shift_solution()
        if inv_report is None:
            _expect(problems, "exit code", rc, 0)
        elif clearly(max(resid) / doc.scale(), VERIFY_TOL):
            defect = _window_defect(doc, x, inv_report["alpha"], inv_report["b"])
            ok = clearly(defect, VERIFY_TOL)
            if ok is not None:
                _expect(problems, "span_invariance.ok", inv_report["ok"], ok)
                _expect(problems, "exit code", rc, 0 if ok else 3)

    return {0, 3}, judge


def _window_defect(doc, x, alpha: int, b: int) -> float:
    """Largest relative distance of Y_xi T and Y_xi T^-1 from the span of
    the window Y_alpha .. Y_b."""
    window = doc.Y[alpha:b + 1].reshape(b + 1 - alpha, -1).T
    u, s, _ = np.linalg.svd(window, full_matrices=False)
    basis = u[:, : rank_of(s)]
    ops = [x]
    sing = np.linalg.svd(x, compute_uv=False)
    if sing[-1] > 1e-12 * sing[0]:
        ops.append(np.linalg.inv(x))
    worst = 0.0
    for op in ops:
        for y in doc.Y[alpha:b + 1]:
            w = (y @ op).reshape(-1)
            r = w - basis @ (basis.conj().T @ w)
            worst = max(worst, float(np.linalg.norm(r) / max(np.linalg.norm(w), 1e-300)))
    return worst


def _kernel_defect(doc) -> tuple:
    """Exact shift-invariance test of the synthesis kernel.

    With full submodules a sequence is a row y = (y_0 .. y_{m-1}) and its
    synthesis is y M with M = [Y_0^H; ...; Y_{m-1}^H].  The kernel is the
    range of I - U_r U_r^H (U_r the left singular vectors of M), and the
    shifted sequence has synthesis y M' with block xi of M' equal to
    Y_{xi-1}^H (zero, or Y_{m-1}^H when cyclic, at xi = 0).  Invariance
    holds iff (I - U_r U_r^H) M' = 0.  Returns (defect, kernel dimension).
    """
    blocks = [y.conj().T for y in doc.Y]
    m_syn = np.vstack(blocks)
    first = blocks[-1] if doc.convention == "cyclic" else np.zeros_like(blocks[0])
    shifted = np.vstack([first] + blocks[:-1])
    u, s, _ = np.linalg.svd(m_syn, full_matrices=False)
    ur = u[:, : rank_of(s)]
    resid = shifted - ur @ (ur.conj().T @ shifted)
    top = float(s[0]) if s.size else 0.0
    return float(np.linalg.norm(resid, 2)) / max(top, 1.0), m_syn.shape[0] - ur.shape[1]


def _represent(inv):
    doc = load_document(inv.inputs[0])
    x, resid, frob = doc.shift_solution()
    scale = doc.scale()
    representable = clearly(max(resid) / scale, VERIFY_TOL)
    norm_t = float(np.linalg.norm(x, 2))
    span_rank = rank_of(np.linalg.svd(np.hstack(list(doc.P)), compute_uv=False))
    theorem21 = inv.variant == "theorem21"
    allowed = {0}
    if theorem21:
        full = all(np.allclose(p, np.eye(doc.nd)) for p in doc.P)
        self_adjoint = all(np.linalg.norm(y - y.conj().T, 2) <= 1e-9 * (1 + np.linalg.norm(y, 2))
                           for y in doc.Y)
        if not (full and self_adjoint) or representable is False:
            allowed = {2}  # HypothesisViolation or NotRepresentable
        elif representable is None:
            allowed = {0, 2, 3}
        else:
            lo, hi = doc.bounds()
            bound = math.sqrt(hi / lo)
            defect, kernel_dim = _kernel_defect(doc)
            kernel_ok = clearly(defect, VERIFY_TOL)
            lower_ok = norm_t >= 1.0 - VERIFY_TOL
            upper_ok = norm_t <= bound + VERIFY_TOL
            allowed = {0, 3} if kernel_ok is None else \
                {0 if lower_ok and upper_ok and kernel_ok else 3}

    def judge(problems, res, rc):
        _expect(problems, "convention", res["convention"], doc.convention)
        _expect(problems, "span_rank", res["span_rank"], span_rank)
        _close(problems, "scale", res["scale"], scale, 1e-12 * scale)
        _close(problems, "residual_frobenius", res["residual_frobenius"], frob,
               BOUND_RTOL * scale * math.sqrt(len(doc.pairs())))
        if representable is not None:
            _expect(problems, "representable", res["representable"], representable)
        if representable:
            _close(problems, "norm_T", res["norm_T"], norm_t, BOUND_RTOL * max(norm_t, 1.0))
        if theorem21 and allowed <= {0, 3}:
            checks = res["bound_checks"]
            _close(problems, "bound_checks.upper.bound", checks["upper"]["bound"], bound,
                   BOUND_RTOL * bound)
            _expect(problems, "bound_checks.lower.ok", checks["lower"]["ok"], lower_ok)
            _expect(problems, "bound_checks.upper.ok", checks["upper"]["ok"], upper_ok)
            if kernel_ok is not None:
                _expect(problems, "kernel_check.ok", res["kernel_check"]["ok"], kernel_ok)
            _expect(problems, "kernel_check.samples", res["kernel_check"]["samples"],
                    100 if kernel_dim > 0 else 0)

    return allowed, judge


def _perturb(inv):
    base = load_document(inv.inputs[0])
    hat = load_document(inv.inputs[1])
    passes = inv.variant == "pass"

    def judge(problems, res, rc):
        _expect(problems, "inequality_holds", res["inequality_holds"], passes)
        w = res["witness"]
        coeffs = from_json(w["coefficients"])
        f = np.hstack([from_json(c) for c in w["vector"]["components"]])
        combo = np.einsum("k,kij->ij", coeffs, base.Y)
        combo_hat = np.einsum("k,kij->ij", coeffs, hat.Y)
        lhs = float(np.linalg.norm(f @ (combo - combo_hat), 2))
        rhs = ETA * float(np.linalg.norm(f @ combo, 2)) \
            + BETA * float(np.linalg.norm(f @ combo_hat, 2))
        # the natural size of either side: ||f|| * sum |a_xi| * max ||Y||
        size = float(np.linalg.norm(f, 2) * np.abs(coeffs).sum()) * max(base.scale(), hat.scale())
        tol = BOUND_RTOL * size
        _close(problems, "witness.lhs", w["lhs"], lhs, tol)
        _close(problems, "witness.rhs", w["rhs"], rhs, tol)
        if not passes:
            _close(problems, "witness lhs / rhs", w["lhs"] / w["rhs"], 2.0, BOUND_RTOL)
            _expect(problems, "derived_bounds", res["derived_bounds"], None)
            return
        if not w["lhs"] <= w["rhs"] + tol:
            problems.append("pass pair witness violates the inequality")
        lo, hi = base.bounds()
        d_lo = ((1 - ETA) / (1 + BETA)) ** 2 * lo
        d_hi = ((1 + ETA) / (1 - BETA)) ** 2 * hi
        e_lo, e_hi = hat.bounds()
        _close(problems, "derived_bounds.lower", res["derived_bounds"]["lower"], d_lo, BOUND_RTOL * d_hi)
        _close(problems, "derived_bounds.upper", res["derived_bounds"]["upper"], d_hi, BOUND_RTOL * d_hi)
        _close(problems, "empirical_bounds.lower", res["empirical_bounds"]["lower"], e_lo, BOUND_RTOL * e_hi)
        _close(problems, "empirical_bounds.upper", res["empirical_bounds"]["upper"], e_hi, BOUND_RTOL * e_hi)
        _expect(problems, "bounds_contained", res["perturbed_frame_check"]["bounds_contained"], True)
        _expect(problems, "sample_failures", res["perturbed_frame_check"]["sample_failures"], 0)
        s = base.vec_singular_values()
        if rank_is_clear(s):
            base_independent = rank_of(s) == base.m
            _expect(problems, "independence_transfer.checked",
                    res["independence_transfer"]["checked"], base_independent)

    return {0 if passes else 3}, judge


_COMMANDS = {
    "analyze": _analyze,
    "independence": _independence,
    "represent": _represent,
    "perturb": _perturb,
}


# ---------------------------------------------------------------------------
# generated documents


def check_generated(problems: list, raw: dict, kind: str, gen_seed) -> None:
    """Structure of a `gen` document and the defining property of its kind."""
    doc = Document(raw)
    eye = np.eye(doc.nd)
    _expect(problems, "metadata.kind", doc.metadata.get("kind"), kind)
    _expect(problems, "metadata.seed", doc.metadata.get("seed"), str(gen_seed))
    _expect(problems, "index_convention", doc.convention,
            "cyclic" if kind == "unitary-orbit" else "linear")
    for k, (p, y) in enumerate(zip(doc.P, doc.Y)):
        tol = VERIFY_TOL * (1.0 + np.linalg.norm(p, 2))
        if np.linalg.norm(p - p.conj().T, 2) > tol or np.linalg.norm(p @ p - p, 2) > tol:
            problems.append(f"element {k}: not an orthogonal projection")
        if np.linalg.norm(y @ p - y, 2) > VERIFY_TOL * (1.0 + np.linalg.norm(y, 2)):
            problems.append(f"element {k}: operator range leaves its submodule")
    if kind == "fusion":
        if np.linalg.norm(doc.P.sum(axis=0) - eye, 2) > VERIFY_TOL or \
                np.abs(doc.Y - doc.P).max() > 1e-14:
            problems.append("fusion: not a Parseval decomposition with unit weights")
    elif kind == "dilation":
        c = doc.Y[1][0, 0].real if doc.m > 1 else 1.0
        expected = np.stack([eye * c ** k for k in range(doc.m)])
        if not 0.3 <= c <= 0.8 or np.abs(doc.Y - expected).max() > 1e-14:
            problems.append("dilation: members are not c^xi Id")
    elif kind == "unitary-orbit":
        u = doc.Y[1] if doc.m > 1 else eye
        powers = [eye]
        for _ in range(doc.m - 1):
            powers.append(powers[-1] @ u)
        if np.linalg.norm(u - u.conj().T, 2) > VERIFY_TOL or \
                np.linalg.norm(u @ u - eye, 2) > VERIFY_TOL or \
                np.abs(doc.Y - np.stack(powers)).max() > VERIFY_TOL:
            problems.append("unitary-orbit: members are not powers of a self-adjoint unitary")
