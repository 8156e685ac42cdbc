"""Command-line front end: frame ingestion, seeded generation, analysis
orchestration, and canonical JSON report emission.

Exit codes: 0 success, 1 usage or parse error, 2 violated mathematical
precondition (NotAFrame and friends, or numpy's LinAlgError), 3 verification
failure (inequality violated, bound or reconstruction check failed).  Flags
are checked before any document is read, so a flag error wins over a bad
document.  Reports are byte-identical across runs given identical inputs,
flags, and seed.
"""

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import math
import os
import sys

from numpy.linalg import LinAlgError

from . import __version__
from .exceptions import (
    BaseNotIndependent,
    DegenerateSpan,
    GFrameError,
    InequalityNotVerified,
    ParseError,
)
from .families import KINDS, generate
from .frames import canonical_dual, frame_bounds, reconstruction_residual
from .hilbert import CONVENTIONS
from .numerics import DUAL_TOL, at_most
from .perturb import (
    DEFAULT_SEQ_SAMPLES,
    HAT_HAT,
    HAT_ORIGINAL,
    PerturbationParams,
    check_perturbation_inequality,
    independence_transfer,
    vector_samples,
    verify_perturbed_frame,
)
from .represent import (
    CAVEATS,
    check_representation_bounds,
    independence_analysis,
    solve_representation,
    span_invariance,
    tightness_contradiction_certificate,
)
from .serialize import (
    FORMAT_VERSION,
    dumps_canonical,
    frame_to_document,
    load_frame,
    load_vector,
    vector_to_document,
    write_atomic,
)


# glibc's allocator, set once per process by `main` (mallopt, malloc.h).
# orjson parses a document into one buffer as large as its text, 1.85 MB for
# a dense random (16, 4, 4) document.  By default glibc hands the freed
# buffer back to the kernel after every command, and the next command faults
# it in again page by page: about 800 minor faults per parse, and 5.3 ms
# against 4.2 ms with the heap kept (one BLAS thread).  With both values, a
# command of the benchmark's cycles takes at most a few faults after one warm
# cycle, against 400-1700 on dense-operators.  Either value alone takes more
# faults than the defaults at one end of the size ladder.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
MMAP_THRESHOLD = 32 << 20  # blocks below it come from the heap; glibc's own dynamic ceiling
TOP_PAD = 64 << 20  # heap that a trim leaves mapped at the top


def _libc():
    """The handle of the C library the process runs on, or None where the
    platform opens none by that name."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def _keep_heap() -> None:
    """Set the allocator's mmap threshold and top pad, once per process.  A
    no-op where libc has no `mallopt` (macOS, Windows) or refuses a value."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TOP_PAD, TOP_PAD)


def _resolve_seed(args) -> int:
    """--seed, else $GFRAMEMOD_SEED, else 0; a negative seed is a ParseError."""
    seed, source = args.seed, "--seed"
    if seed is None:
        seed, source = os.environ.get("GFRAMEMOD_SEED", "0"), "GFRAMEMOD_SEED"
        try:
            seed = int(seed)
        except ValueError as exc:
            raise ParseError(f"GFRAMEMOD_SEED must be an integer, got {seed!r}") from exc
    if seed < 0:
        raise ParseError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _write(path, text: str) -> None:
    """write_atomic, with an OSError (a missing or unwritable directory, a
    directory as the target) as a one-line ParseError naming the path."""
    try:
        write_atomic(path, text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _reporting(compute):
    """The command that runs compute(args, seed, sha) -> (results, caveats,
    exit code), with sha the digest its loads update, and writes the report."""
    def command(args) -> int:
        seed = _resolve_seed(args)
        sha = hashlib.sha256()
        results, caveats, code = compute(args, seed, sha)
        text = dumps_canonical({
            "command": args.command,
            "version": __version__,
            "seed": seed,
            "inputs_digest": sha.hexdigest(),
            "results": results,
            "caveats": caveats,
        })
        if args.output:
            _write(args.output, text)
        else:
            sys.stdout.write(text)
        return code
    return command


@_reporting
def _cmd_analyze(args, seed, sha):
    frame = load_frame(args.frame, sha)
    bounds = frame_bounds(frame)
    dual = canonical_dual(frame)
    residual = reconstruction_residual(frame, dual)
    verified = at_most(residual, 0.0, DUAL_TOL)
    results = {
        "bounds": {"lower": bounds.lower, "upper": bounds.upper},
        "condition_number": bounds.upper / bounds.lower,
        "tight": bounds.tight,
        "tightness_gap": bounds.gap,
        "dual": {"reconstruction_residual": residual, "verified": verified},
    }
    return results, [], 0 if verified else 3


@_reporting
def _cmd_represent(args, seed, sha):
    if args.tight_certificate != (args.vector is not None):
        raise ParseError("--tight-certificate requires --vector" if args.tight_certificate
                         else "--vector requires --tight-certificate")
    frame = load_frame(args.frame, sha)
    rep = solve_representation(frame, args.convention)
    caveats = [CAVEATS[rep.convention]]
    results = {
        "convention": rep.convention,
        "residual": rep.residual,
        "residual_frobenius": rep.residual_frobenius,
        "norm_T": rep.norm_T,
        "scale": rep.scale,
        "representable": rep.is_representable(),
        "span_rank": rep.span_projection.rank,
    }
    failed = False
    if args.check_theorem21:
        check = check_representation_bounds(frame, rep, seed=seed)
        results["bound_checks"] = {
            "norm_T": check.norm_T,
            "lower": {"bound": check.bound_lower, "ok": check.lower_ok},
            "upper": {"bound": check.bound_upper, "ok": check.upper_ok},
        }
        results["kernel_check"] = {
            "samples": check.kernel_samples,
            "defect": check.kernel_defect if math.isfinite(check.kernel_defect) else None,
            "ok": check.kernel_ok,
        }
        caveats = list(check.caveats)  # the convention's caveat, then the kernel check's
        failed = failed or not (check.lower_ok and check.upper_ok and check.kernel_ok)
    if args.tight_certificate:
        f = load_vector(args.vector, sha)
        cert = tightness_contradiction_certificate(frame, rep, f)
        results["certificate"] = dataclasses.asdict(cert)
        if not cert.degenerate:
            failed = failed or not (cert.isometry_ok and cert.constant_norms_ok
                                    and cert.norm_bounds_ok)
    return results, caveats, 3 if failed else 0


def _witness_json(witness) -> dict:
    return {
        "coefficients": [[float(z.real), float(z.imag)] for z in witness.coefficients],
        "vector": vector_to_document(witness.vector),
        "lhs": witness.lhs,
        "rhs": witness.rhs,
        "margin": witness.margin,
    }


@_reporting
def _cmd_perturb(args, seed, sha):
    try:
        params = PerturbationParams(args.eta, args.beta)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    seq_samples = args.samples
    if seq_samples < 1:
        raise ParseError(f"--samples must be at least 1, got {seq_samples}")
    frame = load_frame(args.frame, sha)
    perturbed = load_frame(args.perturbed, sha)
    verdict = check_perturbation_inequality(
        frame, perturbed, params, seq_samples=seq_samples,
        vec_samples=vector_samples(seq_samples), seed=seed,
    )
    results = {
        "params": {"eta": params.eta, "beta": params.beta},
        "interpretation": args.interpretation,
        "samples": {"sequences": verdict.n_sequences, "vectors": verdict.n_vectors},
        "certificate": verdict.certificate and dataclasses.asdict(verdict.certificate),
        "inequality_holds": verdict.inequality_holds,
        "witness": _witness_json(verdict.witness),
        "derived_bounds": None,
        "empirical_bounds": None,
        "perturbed_frame_check": None,
        "independence_transfer": None,
    }
    caveats = list(verdict.caveats)
    if not verdict.inequality_holds:
        return results, caveats, 3
    checked = verify_perturbed_frame(
        frame, perturbed, params, verdict, interpretation=args.interpretation)
    results["derived_bounds"] = {"lower": checked.derived_lower, "upper": checked.derived_upper}
    results["empirical_bounds"] = {"lower": checked.empirical_lower, "upper": checked.empirical_upper}
    results["perturbed_frame_check"] = {
        "bounds_contained": checked.bounds_contained,
        "sample_failures": checked.sample_failures,
    }
    caveats = list(checked.caveats)  # the inequality's, then the interpretation's
    transfer_failed = False
    try:
        transferred = independence_transfer(frame, perturbed, verdict)
        results["independence_transfer"] = {"checked": True, "independent": transferred}
    except BaseNotIndependent:
        results["independence_transfer"] = {
            "checked": False,
            "reason": "base family is linearly dependent",
        }
    except InequalityNotVerified as exc:
        results["independence_transfer"] = {"checked": True, "inconsistent": str(exc)}
        transfer_failed = True
    return results, caveats, 0 if checked.bounds_contained and not transfer_failed else 3


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    if min(args.n, args.d, args.m) < 1:
        raise ParseError(f"n, d, m must be positive, got ({args.n}, {args.d}, {args.m})")
    frame = generate(args.kind, args.n, args.d, args.m, seed)
    metadata = {
        "kind": args.kind,
        "seed": str(seed),
        "format": FORMAT_VERSION,
        "generator": f"gframemod {__version__}",
    }
    _write(args.out_path, dumps_canonical(frame_to_document(frame, metadata)))
    return 0


@_reporting
def _cmd_independence(args, seed, sha):
    frame = load_frame(args.frame, sha)
    report_data = independence_analysis(frame)
    # only a dependency is checked against T, so only a dependent family solves for it
    if report_data.verdict == "dependent":
        try:
            rep = solve_representation(frame)
        except DegenerateSpan:
            pass
        else:
            report_data = dataclasses.replace(report_data, span_invariance=span_invariance(
                frame, report_data.coefficients, rep))
    results = {
        "verdict": report_data.verdict,
        "invariant_span_dim": report_data.invariant_span_dim,
        "coefficients": None,
        "null_combination_norm": report_data.null_combination_norm,
        "span_invariance": None,
    }
    if report_data.coefficients is not None:
        results["coefficients"] = [[float(z.real), float(z.imag)]
                                   for z in report_data.coefficients]
    failed = False
    if report_data.span_invariance is not None:
        results["span_invariance"] = dataclasses.asdict(report_data.span_invariance)
        failed = not report_data.span_invariance.ok
    return results, [], 3 if failed else 0


def _add_common(p) -> None:
    p.add_argument("--output", default=None,
                   help="write the JSON report to this path instead of stdout")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: $GFRAMEMOD_SEED, then 0)")


def _add_analyze(p) -> None:
    _add_common(p)
    p.add_argument("frame", help="frame document (JSON)")
    p.set_defaults(func=_cmd_analyze)


def _add_represent(p) -> None:
    _add_common(p)
    p.add_argument("frame")
    p.add_argument("--convention", choices=CONVENTIONS, default=None,
                   help="index convention override (default: the document's)")
    p.add_argument("--check-theorem21", action="store_true",
                   help="check the representing operator's norm bounds and "
                        "the shift invariance of the synthesis kernel")
    p.add_argument("--tight-certificate", action="store_true",
                   help="emit the tight-frame non-representability certificate")
    p.add_argument("--vector", default=None,
                   help="vector document for the certificate (JSON)")
    p.set_defaults(func=_cmd_represent)


def _add_perturb(p) -> None:
    _add_common(p)
    p.add_argument("frame")
    p.add_argument("perturbed")
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--interpretation", choices=(HAT_HAT, HAT_ORIGINAL), default=HAT_HAT)
    p.add_argument("--samples", type=int, default=DEFAULT_SEQ_SAMPLES,
                   help="coefficient-sequence samples, at least 1; "
                        "max(8, samples // 4) vectors are drawn, each probed "
                        "through its d rows")
    p.set_defaults(func=_cmd_perturb)


def _add_gen(p) -> None:
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--seed", type=int, default=None,
                   help="generation seed (default: $GFRAMEMOD_SEED, then 0)")
    p.add_argument("out_path")
    p.set_defaults(func=_cmd_gen)


def _add_independence(p) -> None:
    _add_common(p)
    p.add_argument("frame")
    p.set_defaults(func=_cmd_independence)


# (name, help, adds the command's arguments), in the order help lists them
_COMMANDS = (
    ("analyze", "frame bounds, tightness, canonical dual reconstruction", _add_analyze),
    ("represent", "solve the shift representation and optional checks", _add_represent),
    ("perturb", "two-family perturbation inequality and derived bounds", _add_perturb),
    ("gen", "write a deterministic frame document", _add_gen),
    ("independence", "linear independence of the operator family", _add_independence),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on a process's first call and
    returned again by every later one: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="gframemod",
        description="finite-dimensional g-fusion frame analysis over matrix algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments in _COMMANDS:
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    _keep_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except GFrameError as exc:
        print(f"gframemod: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except LinAlgError as exc:
        print(f"gframemod: error: linear algebra failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
