import argparse
import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gframemod import cli
from gframemod.cli import main
from gframemod.frames import GFusionFrame
from gframemod.hilbert import ModuleOperator, ModuleVector, Submodule
from gframemod.serialize import dumps_canonical, frame_to_document, load_frame, write_atomic

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
    [], ["-h"], *([name, "-h"] for name in cli._NAMES),
    ["bogus"], ["ana", "x"], ["--seed", "1", "analyze", "x"],
    ["analyze", "x", "--tol", "1"], ["analyze"], ["analyze", "--output"],
    ["represent", "f", "--convention", "zz"], ["gen", "--kind", "fusion", "--n", "x", "o"],
]


@pytest.mark.parametrize("argv", PARSER_INVOCATIONS, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv)
    out = capsys.readouterr()
    full = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda only=None: full())
    assert main(argv) == code
    assert capsys.readouterr() == out


def test_one_command_parser_holds_that_command_alone():
    def commands(parser):
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return list(sub.choices)

    assert commands(cli._build_parser("analyze")) == ["analyze"]
    assert commands(cli._build_parser()) == list(cli._NAMES)
    assert cli._build_parser("gen").format_usage() == cli._build_parser().format_usage()


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


def test_certificate_requires_vector():
    assert run(["represent", CORPUS / "unitary_orbit_m4.json", "--tight-certificate"]) == 1


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


def _load_workloads():
    """perfbench/workloads.py, loaded by path (it imports only the standard
    library at load time)."""
    path = CORPUS.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_perturbation_pairs_are_certified(tmp_path):
    workloads = _load_workloads()
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


def test_linalg_error_exits_2_with_a_message(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    out = tmp_path / "report.json"
    assert run(["analyze", CORPUS / "fusion_parseval_m2.json", "--output", out]) == 2
    err = capsys.readouterr().err
    assert err == "gframemod: error: linear algebra failed: Eigenvalues did not converge\n"
    assert not out.exists()
