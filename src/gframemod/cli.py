"""Command-line front end: frame ingestion, seeded generation, analysis
orchestration, and canonical JSON report emission.

Exit codes: 0 success, 1 usage or parse error, 2 violated mathematical
precondition (NotAFrame and friends, or numpy's LinAlgError), 3 verification
failure (inequality violated, bound or reconstruction check failed).  Reports
are byte-identical across runs given identical inputs, flags, and seed.
"""

import argparse
import dataclasses
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
from .frames import canonical_dual, frame_bounds, reconstruction_residual, residual_verified
from .hilbert import CONVENTIONS
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
    check_representation_bounds,
    independence_analysis,
    solve_representation,
    tightness_contradiction_certificate,
    CYCLIC_CAVEAT,
    LINEAR_CAVEAT,
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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GFRAMEMOD_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"GFRAMEMOD_SEED must be an integer, got {env!r}") from exc


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
            write_atomic(args.output, text)
        else:
            sys.stdout.write(text)
        return code
    return command


def _merge(caveats: list, extra) -> None:
    """Append each caveat of `extra` that `caveats` lacks."""
    for caveat in extra:
        if caveat not in caveats:
            caveats.append(caveat)


@_reporting
def _cmd_analyze(args, seed, sha):
    frame = load_frame(args.frame, sha)
    bounds = frame_bounds(frame)
    dual = canonical_dual(frame)
    residual = reconstruction_residual(frame, dual)
    verified = residual_verified(residual)
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
    frame = load_frame(args.frame, sha)
    rep = solve_representation(frame, args.convention)
    caveats = [CYCLIC_CAVEAT if rep.convention == "cyclic" else LINEAR_CAVEAT]
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
        _merge(caveats, check.caveats)
        failed = failed or not (check.lower_ok and check.upper_ok and check.kernel_ok)
    if args.tight_certificate:
        if not args.vector:
            raise ParseError("--tight-certificate requires --vector")
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
    frame = load_frame(args.frame, sha)
    perturbed = load_frame(args.perturbed, sha)
    try:
        params = PerturbationParams(args.eta, args.beta)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    seq_samples = args.samples
    if seq_samples < 1:
        raise ParseError(f"--samples must be at least 1, got {seq_samples}")
    vec_samples = vector_samples(seq_samples)
    verdict = check_perturbation_inequality(
        frame, perturbed, params, seq_samples=seq_samples,
        vec_samples=vec_samples, seed=seed,
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
        frame, perturbed, params, verdict, interpretation=args.interpretation,
        vec_samples=vec_samples, seed=seed,
    )
    results["derived_bounds"] = {"lower": checked.derived_lower, "upper": checked.derived_upper}
    results["empirical_bounds"] = {"lower": checked.empirical_lower, "upper": checked.empirical_upper}
    results["perturbed_frame_check"] = {
        "bounds_contained": checked.bounds_contained,
        "sample_failures": checked.sample_failures,
    }
    _merge(caveats, checked.caveats)
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
    frame = generate(args.kind, args.n, args.d, args.m, seed)
    metadata = {
        "kind": args.kind,
        "seed": str(seed),
        "format": FORMAT_VERSION,
        "generator": f"gframemod {__version__}",
    }
    write_atomic(args.out_path, dumps_canonical(frame_to_document(frame, metadata)))
    return 0


@_reporting
def _cmd_independence(args, seed, sha):
    frame = load_frame(args.frame, sha)
    try:
        rep = solve_representation(frame) if len(frame) >= 2 else None
    except DegenerateSpan:
        rep = None
    report_data = independence_analysis(frame, rep=rep)
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
_NAMES = tuple(name for name, _, _ in _COMMANDS)


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command named `only`.

    A one-command parser shows the full choice list in its usage line; the
    full parser keeps argparse's default, so its errors name `command`.
    """
    parser = argparse.ArgumentParser(
        prog="gframemod",
        description="finite-dimensional g-fusion frame analysis over matrix algebras",
    )
    metavar = None if only is None else "{" + ",".join(_NAMES) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, add_arguments in _COMMANDS:
        if only is None or name == only:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its command builds that command's parser alone
    parser = _build_parser(argv[0] if argv and argv[0] in _NAMES else None)
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
