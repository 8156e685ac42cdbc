"""A fixed reference kernel that measures how fast the machine is right now.

The shared machines this benchmark runs on change speed by half or more
within seconds, and the change hits all work in a process at once.  The
benchmark therefore runs this kernel right before every timed invocation and
once after the last one of a cycle, and scales each invocation's seconds by
`NOMINAL_S` over the mean of the two samples that bracket it.  A scaled time
reads as the seconds the invocation would take on a machine where one
reference sample takes exactly `NOMINAL_S`.

The kernel touches the same kinds of work as gframemod: `.17g` formatting,
JSON text and float parsing, small complex SVDs and Hermitian eigenvalue
problems, one medium complex product and SVD, and complex arithmetic in a
Python loop.  Its inputs are fixed, and it calls nothing of gframemod, so a
change to the program cannot change it.
"""

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.003  # one sample's seconds on the machine the scale refers to

_rng = np.random.default_rng(20231204)
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_HERMITIAN = _SMALL @ _SMALL.conj().T
_MEDIUM = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_VALUES = _rng.standard_normal(400).tolist()


def sample() -> float:
    """Seconds taken by one run of the kernel (about 3 ms)."""
    start = time.perf_counter()
    text = json.dumps([[format(v, ".17g"), v] for v in _VALUES])
    back = [float(a) + b for a, b in json.loads(text)]
    for _ in range(3):
        np.linalg.svd(_SMALL)
        np.linalg.eigvalsh(_HERMITIAN)
    np.linalg.svd(_MEDIUM @ _MEDIUM, compute_uv=False)
    total = 0j
    for v in back:
        total += complex(v, -v) * 1.5
    return time.perf_counter() - start


def settle() -> float:
    """The median of 20 samples; the first calls also warm the kernel up."""
    return statistics.median(sample() for _ in range(20))


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between reference samples `before` and `after`,
    scaled to the nominal machine."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
