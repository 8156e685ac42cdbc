"""The benchmark's tracer (`perfbench/spans.py`) rebinds library functions
and methods by name.  A refactor that removes or renames one of them must
fail here, not later inside a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
