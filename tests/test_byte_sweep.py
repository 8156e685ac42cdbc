"""The difference classes of `tools/byte_sweep.py`."""

import importlib.util
import sys
from pathlib import Path

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
