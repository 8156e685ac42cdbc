"""The benchmark's tracer (`perfbench/spans.py`) rebinds library functions
and methods by name, and counts work from the arguments of some calls.  A
refactor that removes or renames one of them, or an attribute a counter
reads, must fail here, not later inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from gframemod.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CORPUS = ROOT / "corpus"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = []
    for module_name, attr in spans.SPANNED + spans.COUNTED:
        module = importlib.import_module(f"gframemod.{module_name}")
        try:
            owner, leaf = spans._resolve(module, attr)
            target = getattr(owner, leaf)
        except AttributeError:
            missing.append(f"{module_name}.{attr}")
            continue
        if not callable(target):
            missing.append(f"{module_name}.{attr} (not callable)")
    assert not missing, f"traced names missing from gframemod: {missing}"


def test_every_amount_counts_a_real_call(tmp_path):
    """Each AMOUNTS counter runs on the arguments of real calls, under the
    tracer that computes it, and counts some work."""
    spans = _load_spans()
    orbit = CORPUS / "unitary_orbit_m4.json"
    invocations = (
        ["gen", "--kind", "dilation", tmp_path / "gen.json"],  # a frame built pair by pair
        ["represent", orbit, "--tight-certificate", "--vector", CORPUS / "unit_vector_n2_d2.json",
         "--output", tmp_path / "represent.json"],
        ["perturb", orbit, orbit, "--samples", "8", "--output", tmp_path / "perturb.json"],
    )
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in invocations:
            tracer.begin_invocation(argv[0])
            assert main([str(a) for a in argv]) == 0
    _, counts = tracer.take()
    idle = [counter for counter, _ in spans.AMOUNTS.values() if not counts[counter] > 0]
    assert not idle, f"AMOUNTS counters that counted nothing: {idle}"
