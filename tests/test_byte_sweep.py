"""The difference classes and derived documents of `tools/byte_sweep.py`."""

import importlib.util
import json
import struct
import sys
from pathlib import Path

import numpy as np

from gframemod.families import generate
from gframemod.serialize import document_to_frame, dumps_canonical, frame_to_document

TOOL = Path(__file__).resolve().parent.parent / "tools" / "byte_sweep.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("byte_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


byte_sweep = _load_tool()


def _classes(old: str, new: str) -> dict:
    values = byte_sweep._as_json(old.encode()), byte_sweep._as_json(new.encode())
    return {key: (kind, detail) for kind, key, detail in byte_sweep.classify(*values)}


def test_a_moved_pivot_is_structural_and_its_floats_carry_ulps():
    old = '{"c": [[1, 0], [-0.99999999999999967, 0]], "n": 1e-16}'
    new = '{"c": [[-0.99999999999999967, 0], [1, 0]], "n": 1.0000000000000001e-16}'
    found = _classes(old, new)
    assert found.pop("c") == ("structural", "exactly [1, 0] at [0] -> [1]")
    assert found.pop("n") == ("float", 1)
    assert {kind for kind, _ in found.values()} == {"float"}
    assert set(found) == {"c[0][0]", "c[1][0]"}


def test_integers_booleans_strings_and_lengths_are_structural():
    old = '{"b": 1, "ok": true, "s": "x", "l": [1], "k": 0, "z": 0}'
    new = '{"b": 2, "ok": false, "s": "y", "l": [1, 2], "z": -0}'
    found = _classes(old, new)
    assert {key: kind for key, (kind, _) in found.items()} == {
        "b": "structural", "ok": "structural", "s": "structural", "l": "structural",
        "k": "structural", "z": "structural"}
    # -0 and 0 are written differently, at no distance: a float, not an integer
    assert _classes('{"z": 0.0}', '{"z": -0.0}') == {"z": ("float", 0)}


def test_a_thread_count_reaches_every_blas_variable(monkeypatch):
    seen = {}

    def fake_run(args, capture_output, env, check):
        seen.update(env)
        return type("Done", (), {"returncode": 0, "stdout": b"", "stderr": b""})()

    monkeypatch.setattr(byte_sweep.subprocess, "run", fake_run)
    byte_sweep.run("src", ["-h"], threads=2)
    assert {name: seen[name] for name in byte_sweep.THREAD_VARIABLES} == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}


def _stepped(x: float, ulps: int) -> str:
    """The float `ulps` steps above a positive x, as JSON text."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0] + ulps
    return repr(struct.unpack("<d", struct.pack("<q", bits))[0])


def test_a_float_beyond_the_ulp_bound_is_a_large_float():
    limit = byte_sweep.LARGE_FLOAT_ULPS
    old = b'{"at": 1.5, "above": 1.5, "noise": 1.32e-15, "n": 2}'
    new = (f'{{"at": {_stepped(1.5, limit)}, "above": {_stepped(1.5, limit + 1)}, '
           f'"noise": 1.37e-15, "n": 2}}').encode()
    found = {key: (kind, ulps) for kind, key, ulps in
             byte_sweep._differences((0, old, b"", None), (0, new, b"", None))}
    assert found == {"stdout:at": ("float", limit), "stdout:above": ("large float", limit + 1),
                     "stdout:noise": ("large float", found["stdout:noise"][1])}
    assert found["stdout:noise"][1] > limit


def test_the_summary_counts_large_float_moves_apart(monkeypatch, capsys):
    outputs = {("old", "a"): b'{"x": 1.0}', ("new", "a"): b'{"x": 1.0000000000000002}',
               ("old", "b"): b'{"x": 1e-15}', ("new", "b"): b'{"x": 2e-15}',
               ("old", "c"): b'{"x": 1}', ("new", "c"): b'{"x": 1}'}
    monkeypatch.setattr(byte_sweep, "plan", lambda old_src, work: [(["a"], None), (["b"], None),
                                                                  (["c"], None)])
    monkeypatch.setattr(byte_sweep, "run", lambda src, argv, written, threads=1:
                        (0, outputs[src, argv[0]], b"", None))
    assert byte_sweep.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "    float: stdout:x (1 differ, at most 1 ulp)" in lines
    assert any(line.startswith("    large float: stdout:x (1 differ, at most ") for line in lines)
    assert lines[-1] == ("byte sweep: 3 invocations, 1 identical, 2 differ, "
                         "0 of them structurally, 1 with a large float move")


def test_a_difference_of_layout_alone_is_marked_as_such(monkeypatch, capsys):
    outputs = {("old", "a"): b'{"x": [\n  1.0,\n  0\n]}', ("new", "a"): b'{"x": [1.0, 0]}',
               ("old", "b"): b'{"x": [1.0, 0]}', ("new", "b"): b'{"x": [1.00, 0]}'}
    monkeypatch.setattr(byte_sweep, "plan", lambda old_src, work: [(["a"], None), (["b"], None)])
    monkeypatch.setattr(byte_sweep, "run", lambda src, argv, written, threads=1:
                        (0, outputs[src, argv[0]], b"", None))
    assert byte_sweep.main(["old", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # the whitespace move is layout only; a number written another way is not
    assert lines[:3] == ["DIFFERS (stdout; exit 0 -> 0): a", "    layout only (same JSON value)",
                         "DIFFERS (stdout; exit 0 -> 0): b"]
    assert lines[3] == "    float: stdout:x[] (1 differ, at most 0 ulp)"
    assert lines[-1] == ("byte sweep: 2 invocations, 0 identical, 2 differ, "
                         "0 of them structurally, 0 with a large float move")


def test_the_warm_pass_names_a_rerun_that_differs(monkeypatch, capsys):
    runs = []

    def fake_run(src, argv, written, threads=1):
        runs.append((src, argv[0]))
        rerun = runs.count(("new", argv[0])) == 2
        return 0, b'{"x": 1}', b"rerun\n" if rerun and argv[0] == "b" else b"", None

    monkeypatch.setattr(byte_sweep, "plan", lambda old_src, work: [(["a"], None), (["b"], None)])
    monkeypatch.setattr(byte_sweep, "run", fake_run)
    assert byte_sweep.main(["old", "new"]) == 1
    assert sorted(runs) == [("new", "a")] * 2 + [("new", "b")] * 2 + [("old", "a"), ("old", "b")]
    assert capsys.readouterr().out.splitlines() == [
        "WARM DIFFERS (stderr; exit 0 -> 0): b",
        "warm pass: 2 invocations, 1 identical, 1 differ",
        "byte sweep: 2 invocations, 2 identical, 0 differ, 0 of them structurally, "
        "0 with a large float move"]


def test_a_nudged_copy_moves_each_member_inside_its_submodule():
    doc = json.loads(dumps_canonical(frame_to_document(generate("random", 2, 2, 4, seed=1))))
    frame, nudged = (document_to_frame(d) for d in (doc, byte_sweep._nudged(doc, 1e-3, 1)))
    change = nudged.operators - frame.operators
    sizes = np.linalg.norm(change, 2, axis=(1, 2))
    assert np.all((sizes > 1e-4) & (sizes < 1e-2))
    assert np.abs(change @ frame.projections - change).max() < 1e-14
    assert byte_sweep._nudged(doc, 1e-3, 1) == byte_sweep._nudged(doc, 1e-3, 1)


def test_a_rounded_copy_keeps_the_given_significant_digits():
    doc = json.loads(dumps_canonical(frame_to_document(generate("random", 2, 2, 4, seed=296))))
    rounded = byte_sweep._rounded(doc, 9)
    frame, copy = (document_to_frame(d) for d in (doc, rounded))
    for old, new in zip(_parts(doc), _parts(rounded)):
        assert new == float(f"{old:.9g}") and abs(new - old) <= 5e-9 * abs(old)
    assert byte_sweep._rounded(rounded, 9) == rounded
    assert rounded["metadata"] == doc["metadata"] and rounded["n"] == doc["n"]
    # each member moves by rounding alone and stays well inside its submodule
    change = np.abs(copy.operators - frame.operators).max()
    assert 0.0 < change < 1e-8
    outside = copy.operators - copy.operators @ copy.projections
    assert np.all(np.linalg.norm(outside, 2, axis=(1, 2))
                  <= 1e-9 * np.linalg.norm(copy.operators, 2, axis=(1, 2)) * 2)


def _parts(doc: dict) -> list:
    """Every real and imaginary part of the document's matrices, in order."""
    return [part for el in doc["elements"] for key in ("projection", "operator")
            for row in el[key] for entry in row for part in entry]
