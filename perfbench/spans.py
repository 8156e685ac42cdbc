"""Outside-in tracing of gframemod's layers.

`Tracer.installed()` rebinds the public functions and methods of each
module to timing wrappers, in every gframemod namespace that holds them
(`cli` imports most of them by name), and restores the originals on exit.
Each wrapped call records a span (name, start, end, parent, invocation);
spans stay in memory until the run writes them out.  `numpy.linalg` entry
points are counted against the layer of the innermost open span.

Nothing inside the program changes; the layers are the modules of
`src/gframemod`.
"""

import contextlib
import functools
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("cli", "serialize", "hilbert", "frames", "represent", "perturb", "algebra",
          "families")

# (module, attribute) pairs; "Class.method" names a method.  COUNTED ones are
# called too often, or are too small, to carry a span: only their calls are
# counted.
SPANNED = (
    ("cli", "main"),
    ("serialize", "_load_json"),
    ("serialize", "document_to_frame"),
    ("serialize", "json_to_matrix"),
    ("serialize", "frame_to_document"),
    ("serialize", "dumps_canonical"),
    ("serialize", "write_atomic"),
    ("hilbert", "Submodule.__init__"),
    ("hilbert", "right_shift"),
    ("hilbert", "span_of_submodules"),
    ("frames", "GFusionFrame.__init__"),
    ("frames", "frame_operator"),
    ("frames", "frame_bounds"),
    ("frames", "is_tight"),
    ("frames", "canonical_dual"),
    ("frames", "verify_dual"),
    ("frames", "reconstruction_residual"),
    ("frames", "analysis"),
    ("frames", "synthesis"),
    ("represent", "solve_representation"),
    ("represent", "verify_hypotheses"),
    ("represent", "check_representation_bounds"),
    ("represent", "sample_synthesis_kernel"),
    ("represent", "independence_analysis"),
    ("perturb", "check_perturbation_inequality"),
    ("perturb", "verify_perturbed_frame"),
    ("perturb", "independence_transfer"),
    ("algebra", "psd_leq"),
    ("families", "generate"),
)
COUNTED = (
    ("hilbert", "Submodule.contains"),
    ("perturb", "_batch_margins"),
)
LINALG = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
          "matrix_power", "matrix_rank", "multi_dot", "norm", "pinv", "qr", "slogdet",
          "solve", "svd")

# work counted from a call's arguments: span name -> (counter, amount)
AMOUNTS = {
    "serialize.json_to_matrix": ("serialize.entries_parsed",
                                 lambda args: args[1][0] * args[1][1]),
    "serialize.write_atomic": ("serialize.bytes_written",
                               lambda args: len(args[1].encode("utf-8"))),
    "frames.GFusionFrame.__init__": ("frames.elements_validated",
                                     lambda args: len(args[0].elements)),
    "perturb._batch_margins": ("perturb.margins_evaluated", lambda args: args[0].shape[0]),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, or -1
    invocation: int


def _resolve(module, attr):
    owner = module
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _rebind(owner, leaf, old, new):
    """Replace `old` by `new` on its owner and in every gframemod namespace
    that imported it by name."""
    setattr(owner, leaf, new)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gframemod" and module is not None:
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)


class Tracer:
    """Spans and counts of one traced stretch of invocations."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.invocation = 0
        self.command = ""
        self._stack = []  # open span indices
        self._layers = []  # layer of each open span

    def begin_invocation(self, command: str):
        self.invocation += 1
        self.command = command

    def take(self):
        """Spans and counts recorded since the last call, then reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _span_wrapper(self, name, fn):
        layer = name.split(".", 1)[0]
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            self._layers.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._layers.pop()
                self.spans[index] = Span(name, start, end, parent, self.invocation)
                self.counts[name] += 1
                self.counts[f"{name}@{self.command}"] += 1
            if amount is not None:
                self.counts[amount[0]] += amount[1](args)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if amount is not None:
                self.counts[amount[0]] += amount[1](args)
            return fn(*args, **kwargs)

        return wrapper

    def _linalg_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layers:
                self.counts[f"{self._layers[-1]}.linalg_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        import numpy

        bindings = []
        for targets, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module_name, attr in targets:
                module = sys.modules[f"gframemod.{module_name}"]
                owner, leaf = _resolve(module, attr)
                old = getattr(owner, leaf)
                bindings.append((owner, leaf, old, make(f"{module_name}.{attr}", old)))
        for name in LINALG:
            old = getattr(numpy.linalg, name)
            bindings.append((numpy.linalg, name, old, self._linalg_wrapper(old)))
        for owner, leaf, old, new in bindings:
            _rebind(owner, leaf, old, new)
        try:
            yield self
        finally:
            for owner, leaf, old, new in reversed(bindings):
                _rebind(owner, leaf, new, old)


@contextlib.contextmanager
def allocation_peaks(peaks: list):
    """Append the tracemalloc peak (MB) of every `check_representation_bounds`
    call made inside the block."""
    module = sys.modules["gframemod.represent"]
    old = module.check_representation_bounds

    @functools.wraps(old)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return old(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    _rebind(module, "check_representation_bounds", old, wrapper)
    try:
        yield
    finally:
        _rebind(module, "check_representation_bounds", wrapper, old)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced cycle


def cycle_metrics(spans, counts, invocations_per_command: Counter) -> dict:
    """Per-layer metrics of one cycle's spans and counts (all per cycle)."""
    inclusive = defaultdict(float)
    self_by_name = defaultdict(float)
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    for i, span in enumerate(spans):
        dur = span.end - span.start
        inclusive[span.name] += dur
        self_by_name[span.name] += dur - child_time[i]
    layer_self = defaultdict(float)
    for name, value in self_by_name.items():
        layer_self[name.split(".", 1)[0]] += value
    coverage = [child_time[i] / (s.end - s.start)
                for i, s in enumerate(spans) if s.name == "cli.main" and s.end > s.start]

    def calls(name):
        return counts.get(name, 0)

    metrics = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "serialize.load_s": inclusive["serialize._load_json"],
        "serialize.matrix_parse_s": inclusive["serialize.json_to_matrix"],
        "serialize.entries_parsed": calls("serialize.entries_parsed"),
        "serialize.emit_s": sum(inclusive[n] for n in (
            "serialize.frame_to_document", "serialize.dumps_canonical",
            "serialize.write_atomic")),
        "serialize.bytes_written": calls("serialize.bytes_written"),
        "hilbert.submodule_s": inclusive["hilbert.Submodule.__init__"],
        "hilbert.submodules_built": calls("hilbert.Submodule.__init__"),
        "hilbert.submodules_per_element": calls("hilbert.Submodule.__init__")
        / max(calls("frames.elements_validated"), 1),
        "hilbert.right_shift_s": inclusive["hilbert.right_shift"],
        "hilbert.contains_calls": calls("hilbert.Submodule.contains"),
        "frames.validate_s": inclusive["frames.GFusionFrame.__init__"],
        "frames.frames_built": calls("frames.GFusionFrame.__init__"),
        "frames.frame_operator_per_analyze": calls("frames.frame_operator@analyze")
        / max(invocations_per_command["analyze"], 1),
        "frames.bounds_s": inclusive["frames.frame_bounds"],
        "frames.dual_s": inclusive["frames.canonical_dual"],
        "frames.verify_dual_s": inclusive["frames.verify_dual"],
        "frames.synthesis_calls": calls("frames.synthesis"),
        "represent.solve_s": inclusive["represent.solve_representation"],
        "represent.check_bounds_s": self_by_name["represent.check_representation_bounds"],
        "represent.kernel_sample_s": inclusive["represent.sample_synthesis_kernel"],
        "represent.independence_s": inclusive["represent.independence_analysis"],
        "perturb.inequality_s": inclusive["perturb.check_perturbation_inequality"],
        "perturb.margins_evaluated": calls("perturb.margins_evaluated"),
        "perturb.verify_frame_s": inclusive["perturb.verify_perturbed_frame"],
        "perturb.transfer_s": inclusive["perturb.independence_transfer"],
        "algebra.psd_checks": calls("algebra.psd_leq"),
        "families.generate_s": inclusive["families.generate"],
        "trace.coverage": statistics.median(coverage) if coverage else 0.0,
    })
    metrics.update({f"{layer}.linalg_calls": calls(f"{layer}.linalg_calls")
                    for layer in LAYERS})
    return metrics
