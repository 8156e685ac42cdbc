import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gframemod import cli, families, frames, hilbert, perturb, represent
from gframemod.cli import main
from gframemod.exceptions import DegenerateSpan, InvalidDimensions
from gframemod.families import KINDS
from gframemod.frames import GFusionFrame, frame_operator, fusion_frame
from gframemod.hilbert import ModuleOperator, ModuleVector, Submodule
from gframemod.serialize import dumps_canonical, frame_to_document, load_frame, write_atomic

import oracles
from test_perturb import _near_dependent_pair
from test_represent import _line_events

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(args):
    return main([str(a) for a in args])


def run_report(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(list(args) + ["--output", out])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# analyze


def test_analyze_parseval_fusion(tmp_path):
    code, report = run_report(["analyze", CORPUS / "fusion_parseval_m2.json"], tmp_path)
    assert code == 0
    bounds = report["results"]["bounds"]
    assert bounds["lower"] == pytest.approx(1.0, abs=1e-10)
    assert bounds["upper"] == pytest.approx(1.0, abs=1e-10)
    assert report["results"]["tight"] is True
    assert report["results"]["dual"]["verified"] is True


def test_analyze_bundled_orbit_document(tmp_path):
    code, report = run_report(["analyze", CORPUS / "unitary_orbit_m4.json"], tmp_path)
    assert code == 0
    bounds = report["results"]["bounds"]
    assert bounds["lower"] == pytest.approx(4.0, abs=1e-9)
    assert bounds["upper"] == pytest.approx(4.0, abs=1e-9)
    assert report["results"]["tight"] is True


def test_analyze_single_submodule_exits_2():
    assert run(["analyze", CORPUS / "single_submodule.json"]) == 2


def test_analyze_missing_and_malformed_files(tmp_path):
    assert run(["analyze", tmp_path / "nope.json"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a frame\"}")
    assert run(["analyze", bad]) == 1


def test_usage_error_exits_1():
    assert run(["analyze"]) == 1
    assert run(["no-such-command"]) == 1


PARSER_INVOCATIONS = [
    [], ["-h"], *([name, "-h"] for name, _, _ in cli._COMMANDS),
    ["bogus"], ["ana", "x"], ["--seed", "1", "analyze", "x"],
    ["analyze", "x", "--tol", "1"], ["analyze"], ["analyze", "--output"],
    ["represent", "f", "--convention", "zz"], ["gen", "--kind", "fusion", "--n", "x", "o"],
]


def test_the_parser_is_built_during_the_first_call_alone(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._build_parser.cache_clear()
    doc = str(CORPUS / "unitary_orbit_m4.json")
    counts = []
    for argv in (["analyze", doc], ["bogus"], ["perturb", "-h"], ["independence", doc], []):
        built.clear()
        main(argv)
        counts.append(len(built))
    assert counts == [1 + len(cli._COMMANDS), 0, 0, 0, 0]


@pytest.mark.parametrize("argv", PARSER_INVOCATIONS, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    # the one shared command parser, already used by a report, answers as a
    # full parser built afresh for this call alone
    monkeypatch.setenv("COLUMNS", "80")
    main(["analyze", str(CORPUS / "unitary_orbit_m4.json")])
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert main(argv) == code
    assert capsys.readouterr() == out


_FRESH = {}  # argv -> (exit code, stdout, stderr) of a `python -m gframemod.cli` process


def _fresh_process(argv):
    if tuple(argv) not in _FRESH:
        env = {k: v for k, v in os.environ.items() if k != "GFRAMEMOD_SEED"}
        env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS="1", COLUMNS="80")
        proc = subprocess.run([sys.executable, "-m", "gframemod.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        _FRESH[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    return _FRESH[tuple(argv)]


@pytest.mark.parametrize("argv", PARSER_INVOCATIONS, ids=" ".join)
def test_help_and_errors_leave_the_shared_parser_as_a_fresh_process_has_it(
        monkeypatch, capsys, argv):
    # this process runs a report, the invocation and the report again, all on
    # the one parser; each call answers as a process of its own does
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GFRAMEMOD_SEED", raising=False)
    report = ["analyze", str(CORPUS / "unitary_orbit_m4.json")]
    for call in (report, argv, report):
        code = main(call)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == _fresh_process(call)


@pytest.mark.parametrize("command", ["analyze", "represent", "independence", "perturb"])
def test_there_is_no_tol_flag(capsys, command):
    # every verdict is gated by its named constant in gframemod.numerics
    doc = CORPUS / "unitary_orbit_m4.json"
    docs = [doc, doc] if command == "perturb" else [doc]
    assert run([command, *docs, "--tol", "1e-6"]) == 1
    assert "unrecognized arguments: --tol 1e-6" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# represent


def test_represent_dilation_linear(tmp_path):
    code, report = run_report(
        ["represent", CORPUS / "dilation_m3.json", "--convention", "linear"], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["residual"] <= 1e-10
    assert results["representable"] is True
    assert 0.3 <= results["norm_T"] <= 0.8  # the seeded contraction ratio
    assert any("window" in c for c in report["caveats"])


def test_represent_dilation_with_bound_check_exits_3(tmp_path):
    code, report = run_report(
        ["represent", CORPUS / "dilation_m3.json", "--check-theorem21"], tmp_path)
    assert code == 3  # finite linear window: lower bound 1 <= ||T|| fails
    checks = report["results"]["bound_checks"]
    assert checks["lower"]["ok"] is False
    assert checks["upper"]["ok"] is True


def test_represent_two_projections_not_representable(tmp_path):
    code, report = run_report(["represent", CORPUS / "two_projections.json"], tmp_path)
    assert code == 0
    assert report["results"]["representable"] is False
    assert report["results"]["residual"] == pytest.approx(1.0, abs=1e-9)


def test_represent_orbit_with_certificate(tmp_path):
    code, report = run_report(
        ["represent", CORPUS / "unitary_orbit_m4.json", "--check-theorem21",
         "--tight-certificate", "--vector", CORPUS / "unit_vector_n2_d2.json"], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["representable"] is True
    assert results["norm_T"] == pytest.approx(1.0, abs=1e-9)
    assert results["bound_checks"]["lower"]["ok"] and results["bound_checks"]["upper"]["ok"]
    assert results["kernel_check"]["ok"] is True
    cert = results["certificate"]
    assert cert["isometry_ok"] and cert["constant_norms_ok"]
    assert cert["window"] == 4


def _refused_before_any_document(capsys, flags, message):
    # a document that is no frame, or none at all, is never reached
    for doc in (CORPUS / "unitary_orbit_m4.json", CORPUS / "single_submodule.json", "missing.json"):
        assert run(["represent", doc, *flags, "--check-theorem21"]) == 1
        assert capsys.readouterr() == ("", f"gframemod: error: {message}\n")


def test_certificate_requires_vector(capsys):
    _refused_before_any_document(capsys, ["--tight-certificate"],
                                 "--tight-certificate requires --vector")


def test_vector_requires_the_certificate(capsys):
    # the vector is never read without the certificate, so it is refused;
    # an empty path is a vector path too
    for vector in (CORPUS / "unit_vector_n2_d2.json", ""):
        _refused_before_any_document(capsys, ["--vector", vector],
                                     "--vector requires --tight-certificate")


def test_certificate_on_non_tight_frame_exits_2(tmp_path):
    frame = load_frame(CORPUS / "unitary_orbit_m4.json")
    elements = list(frame.elements)
    elements[0] = (elements[0].submodule, elements[0].operator * 2.0)
    lopsided = GFusionFrame(elements, "cyclic")
    path = tmp_path / "lopsided.json"
    write_atomic(path, dumps_canonical(frame_to_document(lopsided)))
    code = run(["represent", path, "--tight-certificate",
                "--vector", CORPUS / "unit_vector_n2_d2.json"])
    assert code == 2


def test_certificate_digest_covers_the_vector(tmp_path):
    doc = CORPUS / "unitary_orbit_m4.json"
    vectors = [CORPUS / "unit_vector_n2_d2.json", tmp_path / "other_vector.json"]
    other = json.loads(vectors[0].read_text())
    other["components"][0][0][0] = [0.5, 0.25]
    vectors[1].write_text(json.dumps(other))
    digests = []
    for vector in vectors:
        _, report = run_report(["represent", doc, "--tight-certificate", "--vector", vector],
                               tmp_path)
        expected = hashlib.sha256(doc.read_bytes() + vector.read_bytes()).hexdigest()
        assert report["inputs_digest"] == expected
        digests.append(report["inputs_digest"])
    assert digests[0] != digests[1]


def test_certificate_with_mismatched_vector_exits_2(capsys):
    code = run(["represent", CORPUS / "dilation_m3.json", "--tight-certificate",
                "--vector", CORPUS / "unit_vector_n2_d2.json"])  # n*d = 2 against 4
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("gframemod: error: vector shape does not match the frame")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# perturb


def _scaled_copy(src, factor, tmp_path, name):
    frame = load_frame(src)
    path = tmp_path / name
    write_atomic(path, dumps_canonical(frame_to_document(frame.scaled(factor))))
    return path


def test_perturb_identical_documents(tmp_path):
    doc = CORPUS / "fusion_parseval_m2.json"
    code, report = run_report(["perturb", doc, doc, "--eta", 0, "--beta", 0], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["inequality_holds"] is True
    assert results["derived_bounds"]["lower"] == pytest.approx(results["empirical_bounds"]["lower"], rel=1e-10)
    assert results["derived_bounds"]["upper"] == pytest.approx(results["empirical_bounds"]["upper"], rel=1e-10)


def test_perturb_scaled_passes_at_matching_eta(tmp_path):
    doc = CORPUS / "fusion_parseval_m2.json"
    scaled = _scaled_copy(doc, 1.1, tmp_path, "scaled.json")
    code, report = run_report(["perturb", doc, scaled, "--eta", 0.1, "--beta", 0], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["inequality_holds"] is True
    assert results["perturbed_frame_check"]["bounds_contained"] is True
    assert results["derived_bounds"]["upper"] == pytest.approx(
        results["empirical_bounds"]["upper"], rel=1e-8)
    assert results["independence_transfer"] == {"checked": True, "independent": True}


def test_perturb_scaled_fails_at_low_eta(tmp_path):
    doc = CORPUS / "fusion_parseval_m2.json"
    scaled = _scaled_copy(doc, 1.1, tmp_path, "scaled.json")
    code, report = run_report(["perturb", doc, scaled, "--eta", 0.05, "--beta", 0], tmp_path)
    assert code == 3
    assert report["results"]["inequality_holds"] is False
    witness = report["results"]["witness"]
    assert witness["margin"] > 0
    assert witness["lhs"] > witness["rhs"]


def test_perturb_reports_the_factor_certificate(tmp_path):
    orbit = CORPUS / "unitary_orbit_m4.json"
    scaled = _scaled_copy(orbit, 1.2, tmp_path, "scaled.json")
    code, report = run_report(["perturb", orbit, scaled, "--eta", 0.1], tmp_path)
    assert code == 3 and report["caveats"] == []
    results = report["results"]
    assert results["samples"] == {"sequences": 0, "vectors": 0}
    certificate = results["certificate"]
    assert certificate["member"] == 0 and certificate["residual"] <= 1e-12
    assert certificate["norm"] == pytest.approx(0.2, rel=1e-12)
    assert results["witness"]["lhs"] / results["witness"]["rhs"] == pytest.approx(2.0, rel=1e-12)
    # two generator seeds make a pair of no factor form: sampled
    docs = [tmp_path / f"orbit-{seed}.json" for seed in (1, 2)]
    for seed, doc in enumerate(docs, start=1):
        assert run(["gen", "--kind", "unitary-orbit", "--n", 2, "--d", 2, "--m", 4,
                    "--seed", seed, doc]) == 0
    code, report = run_report(["perturb", *docs, "--eta", 0.1, "--samples", 16], tmp_path)
    assert code == 3
    assert report["results"]["certificate"] is None
    assert report["results"]["samples"]["vectors"] == 8


def _write_frame(frame, tmp_path, name):
    path = tmp_path / name
    write_atomic(path, dumps_canonical(frame_to_document(frame)))
    return path


# two_projections has Y_0 = diag(1, 0) and Y_1 = diag(0, 1): the top singular
# row x of C lies outside the row space of the member the certificate would
# carry it to, so g = x Y_k^+ = 0 and the sampler decides, as it did before
# the certificate
def test_perturb_samples_when_the_member_misses_the_top_row(tmp_path):
    frame = load_frame(CORPUS / "two_projections.json")
    # the members swapped, against itself: C = 0, x = e_0, Y_0 = diag(0, 1)
    swapped = _write_frame(GFusionFrame(frame.elements[::-1]), tmp_path, "swapped.json")
    code, report = run_report(["perturb", swapped, swapped, "--eta", 0.1], tmp_path)
    assert code == 0 and report["results"]["inequality_holds"] is True
    assert report["results"]["certificate"] is None
    assert report["caveats"][0].startswith("inequality not falsified")
    # Y_1 halved: C = diag(0, 0.5), x = e_1, Y_0 = diag(1, 0)
    halves = frame.operators * np.array([1.0, 0.5])[:, None, None]
    halved = _write_frame(frame._with_operators(halves), tmp_path, "halved.json")
    code, report = run_report(["perturb", CORPUS / "two_projections.json", halved,
                               "--eta", 0.6], tmp_path)
    assert code == 0 and report["results"]["inequality_holds"] is True
    assert report["results"]["certificate"] is None
    assert report["results"]["samples"]["sequences"] > 0


def test_the_perturbed_frame_check_ignores_the_seed(tmp_path):
    # a certified pass pair and a sampled one: the seed moves no number of
    # the frame check, which draws nothing
    fusion = CORPUS / "fusion_parseval_m2.json"
    pairs = [(fusion, _scaled_copy(fusion, 1.1, tmp_path, "scaled.json"), 0.1)]
    frame = load_frame(CORPUS / "two_projections.json")
    halves = frame.operators * np.array([1.0, 0.5])[:, None, None]
    halved = _write_frame(frame._with_operators(halves), tmp_path, "halved.json")
    pairs.append((CORPUS / "two_projections.json", halved, 0.6))
    for base, other, eta in pairs:
        results = []
        for seed in (1, 2):
            code, report = run_report(["perturb", base, other, "--eta", eta, "--seed", seed],
                                      tmp_path)
            assert code == 0
            results.append({key: report["results"][key] for key in (
                "perturbed_frame_check", "derived_bounds", "empirical_bounds")})
        assert results[0] == results[1]
        assert results[0]["perturbed_frame_check"] == {"bounds_contained": True,
                                                       "sample_failures": 0}


def _load_perfbench(name: str):
    """perfbench/<name>.py, loaded by path (workloads and spans import only
    the standard library at load time)."""
    path = CORPUS.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_perturbation_pairs_are_certified(tmp_path):
    workloads = _load_perfbench("workloads")
    for w in workloads.WORKLOADS.values():
        workdir = tmp_path / w.name
        workloads.write_documents(main, w, 1, str(workdir))
        for inv in workloads.cycle(w, 1, str(workdir)):
            if inv.command != "perturb":
                continue
            outputs = []
            for _ in range(2):
                assert main(list(inv.argv)) == (0 if inv.variant == "pass" else 3), inv.key
                outputs.append(Path(inv.output).read_bytes())
            assert outputs[0] == outputs[1], inv.key
            results = json.loads(outputs[0])["results"]
            assert results["certificate"] is not None, (w.name, inv.key)
            assert results["samples"] == {"sequences": 0, "vectors": 0}


@pytest.mark.parametrize("side,code,transfer", [
    (0.5, 0, {"checked": True, "independent": False}),
    (2.0, 3, {"checked": True, "inconsistent": "a null combination of the perturbed family "
              "fails to annihilate the base family; the sampled inequality pass was a miss"}),
])
def test_perturb_reports_a_dependent_perturbation_of_an_independent_base(tmp_path, monkeypatch,
                                                                          side, code, transfer):
    # the sampler fails such a pair, so its pass is stood in by the base's
    # own verdict, which passes under the same params
    base, perturbed = _near_dependent_pair(side)
    real = perturb.check_perturbation_inequality
    monkeypatch.setattr(cli, "check_perturbation_inequality",
                        lambda frame, other, params, **kw: real(frame, frame, params, **kw))
    paths = [_write_frame(family, tmp_path, f"{name}.json")
             for name, family in (("base", base), ("perturbed", perturbed))]
    found, report = run_report(["perturb", *paths, "--eta", 0.1], tmp_path)
    assert found == code
    results = report["results"]
    assert results["inequality_holds"] and results["perturbed_frame_check"]["bounds_contained"]
    assert results["independence_transfer"] == transfer


def test_perturb_hat_original_carries_its_caveat(tmp_path):
    doc = CORPUS / "fusion_parseval_m2.json"
    code, hat_hat = run_report(["perturb", doc, doc], tmp_path, "hat_hat.json")
    assert code == 0 and perturb.HAT_ORIGINAL_CAVEAT not in hat_hat["caveats"]
    code, report = run_report(["perturb", doc, doc, "--interpretation", "hat_original"], tmp_path)
    assert code == 0 and report["results"]["interpretation"] == "hat_original"
    assert report["caveats"] == hat_hat["caveats"] + [perturb.HAT_ORIGINAL_CAVEAT]


def test_perturb_rejects_bad_params():
    doc = CORPUS / "fusion_parseval_m2.json"
    assert run(["perturb", doc, doc, "--eta", 1.0]) == 1


def test_perturb_families_of_different_shape_exit_2(tmp_path, capsys):
    base = _gen(tmp_path, "unitary-orbit", 2, 1, 4, 1)
    other = _gen(tmp_path, "unitary-orbit", 1, 2, 4, 1)  # the same n*d
    assert run(["perturb", base, other]) == 2
    assert capsys.readouterr().err == "gframemod: error: families have different (n, d)\n"


# ---------------------------------------------------------------------------
# gen


@pytest.mark.parametrize("kind", ["fusion", "dilation", "unitary-orbit", "random"])
def test_gen_kinds_parse_back(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    assert run(["gen", "--kind", kind, "--n", 2, "--d", 2, "--m", 4, "--seed", 5, path]) == 0
    frame = load_frame(path)
    assert (frame.n, frame.d, len(frame)) == (2, 2, 4)


@pytest.mark.parametrize("kind", KINDS)
def test_gen_refuses_a_stack_no_array_can_hold(tmp_path, capsys, kind):
    # (4, 1e11, 1e11) complex entries are 6.4e23 bytes, past the platform's
    # largest array: a violated precondition, refused before any allocation
    out = tmp_path / "out.json"
    assert run(["gen", "--kind", kind, "--n", 10 ** 8, "--d", 1000, out]) == 2
    assert capsys.readouterr().err == (
        "gframemod: error: (100000000, 1000, 4) needs a complex (4, 100000000000, "
        "100000000000) stack, larger than any array on this platform\n")
    assert not out.exists()


@pytest.mark.parametrize("n,d,m", [(-1, 1, 4), (2, 0, 4), (2, 1, 0)], ids=["n", "d", "m"])
def test_gen_refuses_a_size_below_1_as_a_flag_error(tmp_path, capsys, n, d, m):
    out = tmp_path / "out.json"
    assert run(["gen", "--kind", "random", "--n", n, "--d", d, "--m", m, out]) == 1
    assert capsys.readouterr() == ("", f"gframemod: error: n, d, m must be positive, got "
                                       f"({n}, {d}, {m})\n")
    assert not out.exists()


def test_gen_size_bound_is_the_platform_array_limit():
    # the bound on m (n d)^2 16 bytes, checked without generating anything
    side = 1 << (np.iinfo(np.intp).bits - 5) // 2  # (n d)^2 16 = 2^62 bytes on 64 bits
    families._validate(side, 1, 1)
    with pytest.raises(InvalidDimensions, match="larger than any array"):
        families._validate(side, 1, 2)
    with pytest.raises(InvalidDimensions, match="larger than any array"):
        families._validate(1, side * 2, 1)


def test_gen_fusion_is_parseval(tmp_path):
    path = tmp_path / "fusion.json"
    assert run(["gen", "--kind", "fusion", "--n", 2, "--d", 1, "--m", 2, "--seed", 7, path]) == 0
    code, report = run_report(["analyze", path], tmp_path)
    assert code == 0 and report["results"]["tight"] is True


def test_gen_dilation_is_representable(tmp_path):
    path = tmp_path / "dil.json"
    assert run(["gen", "--kind", "dilation", "--m", 3, "--seed", 0, path]) == 0
    code, report = run_report(["represent", path], tmp_path)
    assert code == 0 and report["results"]["residual"] <= 1e-10


def test_gen_rejects_impossible_fusion(tmp_path):
    assert run(["gen", "--kind", "fusion", "--n", 2, "--d", 1, "--m", 5,
                tmp_path / "x.json"]) == 2


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["gen", "--kind", "random", "--n", 2, "--d", 2, "--m", 3, "--seed", 9]
    assert run(flags + [a]) == 0
    assert run(flags + [b]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# independence


def test_independence_two_projections(tmp_path):
    code, report = run_report(["independence", CORPUS / "two_projections.json"], tmp_path)
    assert code == 0
    assert report["results"]["verdict"] == "independent"
    assert report["results"]["coefficients"] is None


def test_independence_dilation_with_span_invariance(tmp_path):
    code, report = run_report(["independence", CORPUS / "dilation_m3.json"], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "dependent"
    assert results["invariant_span_dim"] == 1
    assert results["span_invariance"]["ok"] is True
    assert len(results["coefficients"]) == 3


def test_independence_of_a_family_whose_span_is_zero(tmp_path):
    # three zero members on the zero submodule: dependent, and the span
    # solve has nothing to act on, so no span invariance is reported
    zero = Submodule.from_basis_rows(np.zeros((0, 2)), 2, 1)
    frame = GFusionFrame([(zero, ModuleOperator(np.zeros((2, 2)), 2, 1))] * 3)
    with pytest.raises(DegenerateSpan):
        represent.solve_representation(frame)
    code, report = run_report(["independence", _write_frame(frame, tmp_path, "zero.json")],
                              tmp_path)
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "dependent" and results["invariant_span_dim"] == 0
    assert results["span_invariance"] is None and results["null_combination_norm"] == 0


# More members than the (n*d)^2 dimensions of the operator space: the
# family is dependent, and its null combinations lie outside the thin SVD's
# right basis.
WIDE_DOCUMENTS = [("random", 2, 1, 6, 1), ("dilation", 1, 1, 3, 0)]


def _gen(tmp_path, kind, n, d, m, seed):
    path = tmp_path / f"{kind}-{n}-{d}-{m}.json"
    assert run(["gen", "--kind", kind, "--n", n, "--d", d, "--m", m, "--seed", seed, path]) == 0
    return path


@pytest.mark.parametrize("spec", WIDE_DOCUMENTS, ids=lambda spec: spec[0])
def test_independence_with_more_members_than_operator_dimensions(tmp_path, spec):
    doc = _gen(tmp_path, *spec)
    code, report = run_report(["independence", doc], tmp_path)
    assert code == 0
    results = report["results"]
    assert results["verdict"] == "dependent"
    assert results["null_combination_norm"] <= 1e-8
    coefficients = np.array([complex(re, im) for re, im in results["coefficients"]])
    operators = [e.operator.matrix for e in load_frame(doc).elements]
    combination = sum(c * y for c, y in zip(coefficients, operators))
    assert np.linalg.norm(combination, 2) <= 1e-8 * max(np.linalg.norm(y, 2) for y in operators)


def test_perturb_with_more_members_than_operator_dimensions(tmp_path, capsys):
    doc = _gen(tmp_path, *WIDE_DOCUMENTS[1])
    code, report = run_report(["perturb", doc, doc], tmp_path)
    assert code == 0
    assert report["results"]["inequality_holds"] is True
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report plumbing


def test_reports_are_deterministic(tmp_path):
    doc = CORPUS / "unitary_orbit_m4.json"
    for args in (["analyze", doc], ["represent", doc, "--check-theorem21"],
                 ["independence", doc], ["perturb", doc, doc, "--eta", 0.2]):
        _, r1 = run_report(args, tmp_path, "r1.json")
        _, r2 = run_report(args, tmp_path, "r2.json")
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
        assert r1 == r2


def test_report_carries_seed_and_digest(tmp_path):
    code, report = run_report(["analyze", CORPUS / "fusion_parseval_m2.json", "--seed", 5],
                              tmp_path)
    assert code == 0
    assert report["seed"] == 5
    assert len(report["inputs_digest"]) == 64
    assert set(report) == {"command", "version", "seed", "inputs_digest", "results", "caveats"}


def test_env_seed_is_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("GFRAMEMOD_SEED", "17")
    _, report = run_report(["analyze", CORPUS / "fusion_parseval_m2.json"], tmp_path)
    assert report["seed"] == 17
    monkeypatch.setenv("GFRAMEMOD_SEED", "not-an-int")
    assert run(["analyze", CORPUS / "fusion_parseval_m2.json"]) == 1


_ORBIT = CORPUS / "unitary_orbit_m4.json"
_SEEDED = {
    "analyze": ["analyze", _ORBIT],
    "represent": ["represent", _ORBIT, "--check-theorem21"],
    "independence": ["independence", _ORBIT],
    "perturb": ["perturb", _ORBIT, _ORBIT],
    "gen": ["gen", "--kind", "unitary-orbit", "--n", 2, "--d", 2, "--m", 4, "out.json"],
}


@pytest.mark.parametrize("command", sorted(_SEEDED))
def test_a_negative_seed_exits_1_with_a_message(tmp_path, capsys, monkeypatch, command):
    # the generators and samplers take non-negative seeds only, so every
    # command refuses a negative one before it reads or writes a file
    monkeypatch.chdir(tmp_path)
    assert run([*_SEEDED[command], "--seed", -1]) == 1
    assert capsys.readouterr() == ("", "gframemod: error: --seed must be a non-negative "
                                       "integer, got -1\n")
    assert os.listdir(tmp_path) == []
    assert run([*_SEEDED[command], "--seed", 0, "--output", "report.json"]
               if command != "gen" else [*_SEEDED[command], "--seed", 0]) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_a_negative_seed_exits_1_for_every_generator(tmp_path, capsys, kind):
    assert run(["gen", "--kind", kind, "--seed", -5, tmp_path / "out.json"]) == 1
    assert capsys.readouterr().err == ("gframemod: error: --seed must be a non-negative "
                                       "integer, got -5\n")


def test_a_negative_env_seed_exits_1_with_a_message(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GFRAMEMOD_SEED", "-1")
    for argv in _SEEDED.values():
        assert run([*argv[:-1], tmp_path / "out.json"] if argv[0] == "gen" else argv) == 1
        assert capsys.readouterr() == ("", "gframemod: error: GFRAMEMOD_SEED must be a "
                                           "non-negative integer, got -1\n")
    assert not (tmp_path / "out.json").exists()
    # --seed still takes precedence over the environment
    assert run([*_SEEDED["represent"], "--seed", 3, "--output", tmp_path / "r.json"]) == 0


def test_stdout_report_when_no_output(capsys):
    assert run(["analyze", CORPUS / "fusion_parseval_m2.json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "analyze"


def test_digest_hashes_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    original = (CORPUS / "unitary_orbit_m4.json").read_bytes()
    docs = [tmp_path / "a.json", tmp_path / "b.json"]
    real_load = cli.load_frame

    def load_then_rewrite(path, *args):
        frame = real_load(path, *args)
        with open(path, "ab") as handle:  # the file changes once it is parsed
            handle.write(b" ")
        return frame

    monkeypatch.setattr(cli, "load_frame", load_then_rewrite)
    for args, inputs in ((["analyze", docs[0]], 1), (["represent", docs[0]], 1),
                         (["independence", docs[0]], 1),
                         (["perturb", docs[0], docs[1], "--eta", 0.2], 2)):
        for doc in docs:
            doc.write_bytes(original)
        _, report = run_report(args, tmp_path)
        assert report["inputs_digest"] == hashlib.sha256(original * inputs).hexdigest()


@pytest.mark.parametrize("command", ["analyze", "represent", "independence"])
def test_boolean_size_exits_1(tmp_path, capsys, command):
    doc = json.loads((CORPUS / "two_projections.json").read_text())
    assert doc["d"] == 1
    doc["d"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run([command, path]) == 1
    assert capsys.readouterr().err == "gframemod: error: d and n must be positive integers\n"


def _count_constructions(monkeypatch) -> Counter:
    """A counter of the ModuleOperator, ModuleVector and Submodule objects
    built from now on (every Submodule passes through `_adopt`)."""
    counts = Counter()
    for cls, method in ((ModuleOperator, "__init__"), (ModuleVector, "__init__"),
                        (Submodule, "_adopt")):
        def counting(self, *args, _original=getattr(cls, method), _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, method, counting)
    return counts


@pytest.mark.parametrize("args", [["analyze"], ["represent", "--check-theorem21"],
                                  ["independence"]],
                         ids=["analyze", "represent", "independence"])
def test_per_element_objects_are_not_built_per_member(tmp_path, monkeypatch, args):
    # the commands read the frame's stacks, so the objects they build do
    # not grow with the number of members
    counts = _count_constructions(monkeypatch)
    built = []
    for m in (4, 64):
        doc = _gen(tmp_path, "unitary-orbit", 2, 2, m, 1)
        counts.clear()
        assert run_report([args[0], doc, *args[1:]], tmp_path)[0] == 0
        built.append(dict(counts))
    assert built[0] == built[1]


def test_analyze_forms_each_frame_operator_once(tmp_path, monkeypatch):
    # one analyze forms S with one gram_sum and the residual takes one more;
    # the bounds (eigvalsh) and the dual (eigh) factor that same S, and the
    # numpy.linalg calls do not grow with m
    grams, linalg, loaded = [], [], []

    def counting(record, name, original):
        return lambda *args, **kwargs: record.append((name, args)) or original(*args, **kwargs)

    def loading(*args):
        loaded.append(load_frame(*args))
        return loaded[-1]

    gram_sum = hilbert.gram_sum
    for module in (hilbert, frames, perturb, represent):
        monkeypatch.setattr(module, "gram_sum", counting(grams, "gram_sum", gram_sum))
    for name in _load_perfbench("spans").LINALG:
        monkeypatch.setattr(np.linalg, name, counting(linalg, name, getattr(np.linalg, name)))
    monkeypatch.setattr(cli, "load_frame", loading)
    budgets = []
    for m in (4, 64):
        doc = _gen(tmp_path, "unitary-orbit", 2, 2, m, 1)
        for record in (grams, linalg, loaded):
            record.clear()
        assert run_report(["analyze", doc], tmp_path)[0] == 0
        (frame,) = loaded
        s = frame_operator(frame).matrix
        assert [[x is frame.operators for x in args] for _, args in grams] == [[True, True],
                                                                              [False, True]]
        assert sorted(name for name, args in linalg if args[0] is s) == ["eigh", "eigvalsh"]
        budgets.append(Counter(name for name, _ in linalg))
        assert budgets[-1]["eigvalsh"] == budgets[-1]["eigh"] == 1
        # S is kept read-only, and a frame built from this one forms its own
        assert not s.flags.writeable and frame_operator(frame).matrix is s
        for factor, other in ((2.0, frame.scaled(2.0)),
                              (3.0, frame._with_operators(3.0 * frame.operators))):
            assert other._frame_operator is None
            np.testing.assert_allclose(frame_operator(other).matrix, factor ** 2 * s,
                                       rtol=0, atol=1e-13 * factor ** 2 * m)
    assert budgets[0] == budgets[1]


def _fusion_document(tmp_path, m):
    """A weighted fusion frame of m random rank-1 and rank-2 submodules of
    A^2 over M_2(C), written as a document."""
    rng = np.random.default_rng(m)
    subs = [Submodule.from_basis_rows(rng.standard_normal((1 + k % 2, 4))
                                      + 1j * rng.standard_normal((1 + k % 2, 4)), 2, 2)
            for k in range(m)]
    return _write_frame(fusion_frame(subs, rng.uniform(0.5, 2.0, m)), tmp_path, f"fusion{m}.json")


def _recording_linalg(monkeypatch, record):
    """Append (name, shape of the first argument) of every numpy.linalg
    call that perfbench/spans.py lists in LINALG."""
    for name in _load_perfbench("spans").LINALG:
        def counting(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            record.append((_name, np.shape(args[0])))
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)


@pytest.mark.parametrize("kind", ["unitary-orbit", "fusion"])
def test_analyze_factors_only_the_frame_operator(tmp_path, monkeypatch, kind):
    # loading takes no SVD of the projection stack and no spectral norm of
    # the operator stack, and neither does the dual: analyze's whole
    # numpy.linalg record is the bounds, the dual and the residual's norm
    linalg = []
    _recording_linalg(monkeypatch, linalg)
    for m in (4, 64):
        doc = (_gen(tmp_path, kind, 2, 2, m, 1) if kind == "unitary-orbit"
               else _fusion_document(tmp_path, m))
        linalg.clear()
        code, report = run_report(["analyze", doc], tmp_path)
        assert code == 0 and report["results"]["dual"]["verified"]
        assert Counter(name for name, _ in linalg) == {"eigvalsh": 1, "eigh": 1, "norm": 1}


@pytest.mark.parametrize("kind", KINDS)
def test_gen_factors_no_submodule_it_only_writes(tmp_path, monkeypatch, kind):
    # the only SVDs of gen factor basis rows: the input of orthonormal_rows,
    # once per fusion part, or of row_bases, once per distinct rank of a
    # random family; no projection it writes is factored again.  A
    # one-member full-rank group has a projection's shape, so the SVDs are
    # told apart by their inputs
    linalg, rows, factored = [], [], []
    _recording_linalg(monkeypatch, linalg)
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *x, **k: factored.append(a) or svd(a, *x, **k))
    for module, name in ((hilbert, "orthonormal_rows"), (families, "row_bases")):
        monkeypatch.setattr(module, name, lambda x, _f=getattr(module, name): rows.append(x) or _f(x))
    n, d = 8, 8  # a fusion decomposition needs m <= n*d
    for m in (4, 64):
        traces = np.trace(families.generate(kind, n, d, m, 1).projections, axis1=1, axis2=2).real
        linalg.clear()
        rows.clear()
        factored.clear()
        _gen(tmp_path, kind, n, d, m, 1)
        ranks = len(set(np.rint(traces).tolist()))
        assert len(factored) == len(rows) == {"fusion": m, "random": ranks}.get(kind, 0)
        assert all(any(a is x for x in rows) for a in factored)
        for x in rows:  # orthonormal rows, no projection
            assert np.abs(x @ x.conj().swapaxes(-1, -2) - np.eye(x.shape[-2])).max() <= 1e-12
        assert {name for name, _ in linalg} <= {"svd", "qr"}


RANDOM_REFERENCE_SIZES = [(1, 1, 5), (2, 2, 1), (2, 2, 40), (2, 2, 4), (4, 4, 64), (16, 4, 4)]


@pytest.mark.parametrize("n, d, m", RANDOM_REFERENCE_SIZES, ids=str)
def test_the_random_generators_match_the_per_member_reference(n, d, m):
    # n*d = 1, one member, every rank 1..n*d present, and the benchmark sizes
    if (n, d, m) == (2, 2, 40):
        ranks = np.trace(families.random_family_frame(n, d, m, seed=3).projections, axis1=1, axis2=2)
        assert set(np.rint(ranks.real).tolist()) == {1.0, 2.0, 3.0, 4.0}
    for seed in (0, 3):
        for frame, (projections, operators) in (
                (families.random_family_frame(n, d, m, seed=seed),
                 oracles.reference_random_stacks(np.random.default_rng(seed), n * d, m)),
                (families.random_frame(n, d, m, seed=seed),
                 oracles.reference_random_frame_stacks(n * d, m, seed))):
            assert frame.projections.tobytes() == projections.tobytes()
            assert frame.operators.tobytes() == operators.tobytes()


@pytest.mark.parametrize("n, d, m", [(2, 2, 4), (4, 4, 64)], ids=str)
def test_gen_random_writes_the_reference_family(tmp_path, n, d, m):
    projections, operators = oracles.reference_random_stacks(np.random.default_rng(1), n * d, m)
    metadata = {"kind": "random", "seed": "1", "format": cli.FORMAT_VERSION,
                "generator": f"gframemod {cli.__version__}"}
    frame = GFusionFrame.from_stacks(projections, operators, n, d, "linear")
    text = _gen(tmp_path, "random", n, d, m, 1).read_text()
    assert text == dumps_canonical(frame_to_document(frame, metadata))


def test_the_random_generator_runs_no_python_line_per_member_past_its_draws():
    # at n*d = 2 both sizes draw both ranks, so the batched algebra runs the
    # same lines, and only the draw loop's three lines per member grow with m
    counts = []
    for m in (64, 128):
        ranks = np.trace(families.random_family_frame(2, 1, m, seed=1).projections, axis1=1, axis2=2)
        assert set(np.rint(ranks.real).tolist()) == {1.0, 2.0}
        counts.append(_line_events({families.__file__},
                                   lambda: families.random_family_frame(2, 1, m, seed=1)))
    assert 0 < counts[1] - counts[0] <= 3 * 64


@pytest.mark.parametrize("command, kind", [("represent", "unitary-orbit"), ("represent", "fusion"),
                                           ("independence", "fusion"), ("independence", "random")])
def test_the_span_keeps_the_rank_of_its_own_svd(tmp_path, monkeypatch, command, kind):
    # the span of the submodules is built from basis rows, whose SVD gives
    # its rank; its projection is factored only when its basis is read, which
    # these reports (no dependency, no certificate) never do
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *x, **k: svds.append(np.shape(a)) or svd(a, *x, **k))
    doc = _gen(tmp_path, kind, 8, 8, 4, 1)
    svds.clear()
    code, report = run_report([command, doc], tmp_path)
    assert code == 0 and (1, 64, 64) not in svds
    if command == "represent":
        assert report["results"]["span_rank"] == 64


@pytest.mark.parametrize("kind", ["unitary-orbit", "dilation"])
def test_the_span_basis_is_the_rows_of_its_own_svd(tmp_path, monkeypatch, kind):
    # a dependent representable family reads the span's basis for the
    # inverse candidate, and the certificate for T on the span: both take
    # the rows of the span's own SVD, and no projection is factored again
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *x, **k: svds.append(np.shape(a)) or svd(a, *x, **k))
    doc = _gen(tmp_path, kind, 2, 2, 4, 1)
    svds.clear()
    code, report = run_report(["independence", doc], tmp_path)
    assert code == 0 and report["results"]["span_invariance"] is not None
    assert (1, 4, 4) not in svds
    if kind == "unitary-orbit":
        svds.clear()
        code, report = run_report(["represent", doc, "--tight-certificate", "--vector",
                                   CORPUS / "unit_vector_n2_d2.json"], tmp_path)
        assert code == 0 and report["results"]["certificate"] is not None
        assert (1, 4, 4) not in svds


# (n, d) per kind: fusion and random independent at m = 64 (a fusion
# decomposition needs m <= n*d), dilation and unitary orbits dependent
INDEPENDENCE_SIZES = {"fusion": (8, 8), "random": (4, 4), "dilation": (2, 2),
                      "unitary-orbit": (2, 2)}


@pytest.mark.parametrize("kind", KINDS)
def test_independence_solves_the_shift_only_for_a_dependent_family(tmp_path, monkeypatch,
                                                                    kind):
    # only a dependency is checked against T: an independent family takes
    # null_combinations' svd and qr and nothing else, and a dependent one
    # takes null_combinations once and the solve once
    linalg, nulls, solves = [], [], []
    _recording_linalg(monkeypatch, linalg)
    null_combinations = represent.null_combinations
    monkeypatch.setattr(represent, "null_combinations",
                        lambda stack: nulls.append(stack.shape) or null_combinations(stack))
    solve = represent.solve_representation

    def solving(frame):
        if kind in ("fusion", "random"):
            raise AssertionError("an independent family solved for T")
        solves.append(len(frame))
        return solve(frame)

    monkeypatch.setattr(cli, "solve_representation", solving)
    budgets = []
    for m in (4, 64):
        doc = _gen(tmp_path, kind, *INDEPENDENCE_SIZES[kind], m, 1)
        for record in (linalg, nulls, solves):
            record.clear()
        code, report = run_report(["independence", doc], tmp_path)
        assert code == 0 and len(nulls) == 1
        budgets.append(Counter(name for name, _ in linalg))
        if kind in ("fusion", "random"):
            assert report["results"]["verdict"] == "independent" and solves == []
            assert budgets[-1] == {"svd": 1, "qr": 1}
        else:
            assert report["results"]["span_invariance"]["ok"] and solves == [m]
    assert budgets[0] == budgets[1]


def test_perturb_budget_on_a_certified_pass_pair(tmp_path, monkeypatch):
    # the factor certificate decides the pair, so the numpy.linalg record
    # does not grow with m; the dependent base is refused from the singular
    # values alone, with no null combination and no norm of one
    linalg, nulls = [], []
    _recording_linalg(monkeypatch, linalg)
    null_combinations = hilbert.null_combinations
    for module in (perturb, represent):
        monkeypatch.setattr(module, "null_combinations",
                            lambda stack: nulls.append(stack.shape) or null_combinations(stack))
    budgets = []
    for m in (4, 64):
        doc = _gen(tmp_path, "unitary-orbit", 2, 2, m, 1)
        scaled = _scaled_copy(doc, 1.05, tmp_path, "scaled.json")
        linalg.clear()
        nulls.clear()
        code, report = run_report(["perturb", doc, scaled, "--eta", 0.1], tmp_path)
        results = report["results"]
        assert code == 0 and results["certificate"] is not None
        assert results["independence_transfer"]["checked"] is False
        assert nulls == []
        assert ("svd", (m, 16)) in linalg and ("norm", (4, 4)) not in linalg
        budgets.append(Counter(name for name, _ in linalg))
    assert budgets[0] == budgets[1]


@pytest.mark.parametrize("kind", ["unitary-orbit", "dilation"])
def test_represent_check_theorem21_budget_does_not_grow_with_m(tmp_path, monkeypatch, kind):
    # the solve, the hypotheses, the bounds and the kernel basis each take a
    # fixed number of numpy.linalg calls, and the kernel samples of (2, 2, m)
    # fit one chunk at m = 4 and m = 64, so the record does not grow with m
    linalg = []
    _recording_linalg(monkeypatch, linalg)
    budgets = []
    for m in (4, 64):
        doc = _gen(tmp_path, kind, 2, 2, m, 1)
        linalg.clear()
        code, report = run_report(["represent", doc, "--check-theorem21"], tmp_path)
        kernel = report["results"]["kernel_check"]
        assert code == (0 if kind == "unitary-orbit" else 3) and kernel["samples"] == 100
        assert kernel["ok"] == (kind == "unitary-orbit")
        budgets.append(Counter(name for name, _ in linalg))
    assert budgets[0] == budgets[1]


def _independence_results(report) -> dict:
    """An IndependenceReport as the `independence` command writes it."""
    return {
        "verdict": report.verdict,
        "invariant_span_dim": report.invariant_span_dim,
        "coefficients": None if report.coefficients is None else
        [[float(z.real), float(z.imag)] for z in report.coefficients],
        "null_combination_norm": report.null_combination_norm,
        "span_invariance": report.span_invariance and dataclasses.asdict(report.span_invariance),
    }


def test_independence_equals_the_eager_reference(tmp_path):
    # deciding dependence first changes no report: every generated kind at
    # two sizes and every corpus frame report what solving first gives
    docs = [path for path in sorted(CORPUS.glob("*.json"))
            if "elements" in json.loads(path.read_text())]
    docs += [_gen(tmp_path, kind, n, d, m, 1) for kind in KINDS for n, d, m in ((2, 2, 4),
                                                                             (4, 4, 16))]
    checked = 0
    for doc in docs:
        reference = oracles.eager_independence(load_frame(doc))
        code, report = run_report(["independence", doc], tmp_path)
        assert report["results"] == _independence_results(reference), doc
        invariance = reference.span_invariance
        assert code == (3 if invariance and not invariance.ok else 0)
        checked += invariance is not None
    assert checked >= 4


# ---------------------------------------------------------------------------
# numerically unusable entries


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e308],
                         ids=["NaN", "Infinity", "1e308"])
@pytest.mark.parametrize("command", ["analyze", "represent", "independence"])
def test_unusable_entries_exit_1_at_parse(tmp_path, capsys, command, value):
    doc = json.loads((CORPUS / "unitary_orbit_m4.json").read_text())
    doc["elements"][1]["operator"][2][3][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN, Infinity and 1e+308 as json.dumps writes them
    assert run([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gframemod: error: element 1 operator: entry (2, 3) ")
    assert "Traceback" not in err


@pytest.mark.parametrize("samples", [0, -3])
def test_perturb_rejects_nonpositive_samples(capsys, samples):
    doc = CORPUS / "unitary_orbit_m4.json"
    assert run(["perturb", doc, doc, "--samples", samples]) == 1
    assert capsys.readouterr().err == f"gframemod: error: --samples must be at least 1, got {samples}\n"
    assert run(["perturb", doc, doc, "--samples", 1]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--samples", 0], "--samples must be at least 1, got 0"),
    (["--eta", 1.5], "eta and beta must lie in [0, 1), got (1.5, 0.0)"),
    (["--beta", -0.1], "eta and beta must lie in [0, 1), got (0.0, -0.1)"),
])
def test_perturb_flag_errors_come_before_any_document(monkeypatch, capsys, flags, message):
    loaded = []
    monkeypatch.setattr(cli, "load_frame", lambda path, sha=None: loaded.append(path))
    bad = CORPUS / "single_submodule.json"
    assert run(["perturb", bad, "missing.json", *flags]) == 1
    assert capsys.readouterr() == ("", f"gframemod: error: {message}\n")
    assert loaded == []


def test_perturb_refuses_samples_no_array_can_hold(tmp_path, capsys):
    # 1e23 sequences of 4 coefficients are 6.4e24 bytes: refused like an
    # oversized `gen`, before anything is drawn
    samples = 10 ** 23
    docs = [tmp_path / f"orbit-{seed}.json" for seed in (1, 2)]
    for seed, doc in enumerate(docs, start=1):
        assert run(["gen", "--kind", "unitary-orbit", "--n", 2, "--d", 2, "--m", 4,
                    "--seed", seed, doc]) == 0
    capsys.readouterr()
    assert run(["perturb", *docs, "--samples", samples]) == 2
    assert capsys.readouterr().err == (
        f"gframemod: error: {samples} sequences of 4 coefficients or {samples // 4} vectors "
        "need an array larger than any on this platform\n")
    # a certified pair draws nothing, so the count never matters
    orbit = CORPUS / "unitary_orbit_m4.json"
    assert run(["perturb", orbit, orbit, "--samples", samples]) == 0
    scaled = _scaled_copy(orbit, 1.2, tmp_path, "scaled.json")
    assert run(["perturb", orbit, scaled, "--eta", 0.1, "--samples", samples]) == 3


def test_perturb_on_a_family_that_is_not_a_frame_exits_2(capsys):
    doc = CORPUS / "single_submodule.json"
    assert run(["perturb", doc, doc]) == 2
    assert capsys.readouterr().err.startswith("gframemod: error: frame operator is singular")


def _operators_scaled(tmp_path, factor):
    doc = json.loads((CORPUS / "unitary_orbit_m4.json").read_text())
    for element in doc["elements"]:
        element["operator"] = [[[factor * re, factor * im] for re, im in row]
                               for row in element["operator"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("args", [["analyze"], ["represent", "--check-theorem21"],
                                  ["independence"], ["perturb"]],
                         ids=["analyze", "represent", "independence", "perturb"])
def test_tiny_magnitude_family_exits_1_at_parse(tmp_path, capsys, args):
    # every S entry of this tight frame (bounds 4) would underflow to 0
    path = _operators_scaled(tmp_path, 1e-200)
    paths = [path, path] if args[0] == "perturb" else [path]
    assert run([args[0], *paths, *args[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gframemod: error: largest operator entry 1.000e-200 is below 1e-100")
    assert "Traceback" not in err


def test_all_zero_family_still_exits_2(tmp_path, capsys):
    assert run(["analyze", _operators_scaled(tmp_path, 0.0)]) == 2
    assert capsys.readouterr().err.startswith("gframemod: error: frame operator is singular")


@pytest.mark.parametrize("target,reason", [("nodir/x.json", "No such file or directory"),
                                           ("adir", "Is a directory")],
                         ids=["missing-directory", "directory-target"])
@pytest.mark.parametrize("command", ["analyze", "gen"])
def test_an_unwritable_output_exits_1_with_a_message(tmp_path, capsys, monkeypatch,
                                                     command, target, reason):
    # the second target is a directory: the temporary file is made, then
    # the rename fails, so the test also sees that it is removed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    argv = (["analyze", CORPUS / "unitary_orbit_m4.json", "--output", target]
            if command == "analyze" else ["gen", "--kind", "random", "--n", 2, "--d", 2, target])
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"gframemod: error: cannot write {target}: {reason}\n")
    assert sorted(os.listdir(tmp_path)) == ["adir"] and os.listdir(tmp_path / "adir") == []


def test_linalg_error_exits_2_with_a_message(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    out = tmp_path / "report.json"
    assert run(["analyze", CORPUS / "fusion_parseval_m2.json", "--output", out]) == 2
    err = capsys.readouterr().err
    assert err == "gframemod: error: linear algebra failed: Eigenvalues did not converge\n"
    assert not out.exists()


def test_only_a_dependent_family_reaches_the_solve(tmp_path, capsys, monkeypatch):
    # independence solves for T only for a dependent family, so a failing
    # pinv ends only that one with exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "pinv", fail)
    assert run(["independence", CORPUS / "two_projections.json"]) == 0
    assert run(["independence", CORPUS / "dilation_m3.json"]) == 2
    assert capsys.readouterr().err.endswith(
        "gframemod: error: linear algebra failed: SVD did not converge\n")


# ---------------------------------------------------------------------------
# the C allocator

# a fresh process: generate a dense random (16, 4, 4) document, about
# 1.84 MB, and print for each of four `analyze` calls on it its minor page
# faults beside the pages of the arenas that Python's small-object allocator
# mapped meanwhile.  That allocator maps its arenas itself, outside malloc,
# and may unmap and map one again on every call.  A regular file named like
# the sidecar directory keeps every call on the parse path, whose buffer is
# the heap under test.
_ANALYZE_FAULTS = """
import os, re, resource, sys, tempfile
from gframemod.cli import main
from gframemod.serialize import CACHE_DIR

def arena_pages():
    with tempfile.TemporaryFile() as stats:
        saved = os.dup(2)
        os.dup2(stats.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        stats.seek(0)
        text = stats.read().decode().replace(",", "")
    mapped = re.search(r"# arenas allocated total *= *(\\d+)", text).group(1)
    size = re.search(r"(\\d+) bytes/arena", text).group(1)
    return int(mapped) * int(size) // resource.getpagesize()

doc, out = (os.path.join(sys.argv[1], name) for name in ("random.json", "report.json"))
open(os.path.join(sys.argv[1], CACHE_DIR), "w").close()
assert main(["gen", "--kind", "random", "--n", "16", "--d", "4", "--m", "4", doc]) == 0
for _ in range(4):
    arenas = arena_pages()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["analyze", doc, "--output", out]) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults, arena_pages() - arenas)
"""


@pytest.mark.skipif(getattr(cli._libc(), "mallopt", None) is None
                    or not hasattr(sys, "_debugmallocstats"),
                    reason="the C library has no mallopt, or Python no arena count")
def test_repeated_reads_keep_the_heap_they_faulted_in(tmp_path):
    """glibc's default hands the parse buffer back to the kernel after each
    command, and the next one faults it in again: 800-1000 minor faults per
    call on this document.  With the heap kept, a warm call takes fewer than
    100 besides those of Python's own new arenas."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    env.pop("PYTHONMALLOC", None)
    proc = subprocess.run([sys.executable, "-c", _ANALYZE_FAULTS, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    calls = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert len(calls) == 4
    assert all(faults - arenas < 100 for faults, arenas in calls[2:]), calls


class _Refusing:
    """A C library whose mallopt refuses every value, recording the calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 0


@pytest.mark.parametrize("libc", [None, object(), _Refusing()],
                         ids=["none", "no-mallopt", "refuses"])
def test_reports_do_not_depend_on_the_allocator(tmp_path, monkeypatch, libc):
    # the setting is a no-op where the C library cannot take it, and the
    # reports keep their bytes
    argv = ["represent", CORPUS / "dilation_m3.json", "--check-theorem21"]
    run([*argv, "--output", tmp_path / "kept.json"])
    monkeypatch.setattr(cli, "_libc", lambda: libc)
    cli._keep_heap.cache_clear()
    try:
        for name in ("first.json", "second.json"):
            run([*argv, "--output", tmp_path / name])
    finally:
        cli._keep_heap.cache_clear()
    kept = (tmp_path / "kept.json").read_bytes()
    assert (tmp_path / "first.json").read_bytes() == kept
    assert (tmp_path / "second.json").read_bytes() == kept
    if isinstance(libc, _Refusing):  # asked once per process, on the first call
        assert libc.calls == [(-3, cli.MMAP_THRESHOLD), (-2, cli.TOP_PAD)]
