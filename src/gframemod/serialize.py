"""Canonical JSON interchange for frames, vectors, and reports.

One format choice everywhere: objects are plain JSON with sorted keys, two-
space indentation, and floats printed with 17 significant digits (enough to
round-trip IEEE doubles exactly), so serialize(parse(x)) == x byte for byte
on canonical input and repeated runs produce identical files.

Complex matrices are arrays of rows, each entry a two-element [re, im]
array.  A frame document is

    { "d": int, "n": int, "index_convention": "linear"|"cyclic",
      "elements": [ { "projection": matrix, "operator": matrix }, ... ],
      "metadata": { string: string } }

where matrices are the flattened (n*d) x (n*d) forms.  A vector file is
{ "d": int, "n": int, "components": [ d x d matrix, ... ] }.
"""

import json
import math
import os
import tempfile

import numpy as np

from .exceptions import ParseError
from .frames import GFusionFrame
from .hilbert import ModuleOperator, ModuleVector, Submodule

FORMAT_VERSION = "1"
# largest accepted |re| or |im| of a matrix entry: squares and the sums of
# squares in Gram and frame-operator matrices stay far from overflow
MAX_ABS_ENTRY = 1e100


# ---------------------------------------------------------------------------
# canonical writer


def _write(obj, out, indent):
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite floats are not representable in reports")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for k, item in enumerate(obj):
            out.append(pad + "  ")
            _write(item, out, indent + 1)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for k, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValueError("report keys must be strings")
            out.append(pad + "  " + json.dumps(key, ensure_ascii=True) + ": ")
            _write(obj[key], out, indent + 1)
            out.append(",\n" if k + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    out = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_atomic(path, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gframemod-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(matrix) -> list:
    matrix = np.asarray(matrix, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def json_to_matrix(rows, shape, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise ParseError(f"{what}: expected {shape[0]} rows")
    matrix = np.empty(shape, dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ParseError(f"{what}: row {i} must have {shape[1]} entries")
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)):
                raise ParseError(f"{what}: entry ({i}, {j}) must be a [re, im] pair")
            matrix[i, j] = complex(entry[0], entry[1])
    parts = matrix.reshape(-1).view(np.float64)
    usable = np.abs(parts) <= MAX_ABS_ENTRY  # false for NaN and infinities too
    if not usable.all():
        k = int(np.argmin(usable))
        i, j = divmod(k // 2, shape[1])
        problem = (f"exceeds {MAX_ABS_ENTRY:.0e} in magnitude" if math.isfinite(parts[k])
                   else "is not finite")
        raise ParseError(f"{what}: entry ({i}, {j}) {problem}")
    return matrix


# ---------------------------------------------------------------------------
# frame documents


def _require_keys(doc: dict, keys, what: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    extra = [k for k in doc if k not in keys]
    if missing or extra:
        raise ParseError(f"{what}: missing keys {missing}, unexpected keys {extra}")


def frame_to_document(frame: GFusionFrame, metadata=None) -> dict:
    return {
        "d": frame.d,
        "n": frame.n,
        "index_convention": frame.index_convention,
        "elements": [
            {
                "projection": matrix_to_json(e.submodule.projection.matrix),
                "operator": matrix_to_json(e.operator.matrix),
            }
            for e in frame.elements
        ],
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }


def document_to_frame(doc: dict) -> GFusionFrame:
    _require_keys(doc, ("d", "n", "index_convention", "elements", "metadata"), "frame document")
    d, n = doc["d"], doc["n"]
    if not (isinstance(d, int) and isinstance(n, int) and d >= 1 and n >= 1):
        raise ParseError("d and n must be positive integers")
    if doc["index_convention"] not in ("linear", "cyclic"):
        raise ParseError("index_convention must be 'linear' or 'cyclic'")
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise ParseError("elements must be a nonempty list")
    if not isinstance(doc["metadata"], dict):
        raise ParseError("metadata must be an object")
    nd = n * d
    elements = []
    for k, entry in enumerate(doc["elements"]):
        _require_keys(entry, ("projection", "operator"), f"element {k}")
        proj = json_to_matrix(entry["projection"], (nd, nd), f"element {k} projection")
        oper = json_to_matrix(entry["operator"], (nd, nd), f"element {k} operator")
        try:
            sub = Submodule(ModuleOperator(proj, n, d))
        except ValueError as exc:
            raise ParseError(f"element {k}: {exc}") from exc
        elements.append((sub, ModuleOperator(oper, n, d)))
    try:
        return GFusionFrame(elements, doc["index_convention"])
    except Exception as exc:
        raise ParseError(f"document does not describe a valid frame: {exc}") from exc


def load_frame(path, sha=None) -> GFusionFrame:
    return document_to_frame(_load_json(path, sha))


def _load_json(path, sha=None):
    """Read `path` once and parse it.  When a hashlib object `sha` is given
    it is fed the same bytes, so its digest describes exactly what was
    parsed."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if sha is not None:
        sha.update(raw)
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# vectors


def vector_to_document(vector: ModuleVector) -> dict:
    return {
        "d": vector.d,
        "n": vector.n,
        "components": [matrix_to_json(vector.component(i)) for i in range(vector.n)],
    }


def document_to_vector(doc: dict) -> ModuleVector:
    _require_keys(doc, ("d", "n", "components"), "vector document")
    d, n = doc["d"], doc["n"]
    if not (isinstance(d, int) and isinstance(n, int) and d >= 1 and n >= 1):
        raise ParseError("d and n must be positive integers")
    if not isinstance(doc["components"], list) or len(doc["components"]) != n:
        raise ParseError(f"components must be a list of {n} blocks")
    blocks = [json_to_matrix(block, (d, d), f"component {i}")
              for i, block in enumerate(doc["components"])]
    return ModuleVector.from_components(blocks)


def load_vector(path, sha=None) -> ModuleVector:
    return document_to_vector(_load_json(path, sha))
