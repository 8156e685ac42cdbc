"""Canonical JSON interchange for frames, vectors, and reports.

One format choice everywhere: objects are plain JSON with sorted keys, two-
space indentation, and floats printed with 17 significant digits (enough to
round-trip IEEE doubles exactly), so serialize(parse(x)) == x byte for byte
on canonical input and repeated runs produce identical files.

Complex matrices are arrays of rows, each entry a two-element [re, im]
array.  A list of exactly two numbers, such as an entry, is written on one
line as `[a, b]`; every other list puts one item on each line.  The reader
accepts any JSON layout.  A frame document is

    { "d": int, "n": int, "index_convention": "linear"|"cyclic",
      "elements": [ { "projection": matrix, "operator": matrix }, ... ],
      "metadata": { string: string } }

where matrices are the flattened (n*d) x (n*d) forms.  A vector file is
{ "d": int, "n": int, "components": [ d x d matrix, ... ] }.

Documents are decoded by orjson; the bytes it refuses (NaN and Infinity
literals, integers whose float overflows, lone surrogates, invalid UTF-8)
go through the standard library's `json`, keeping its reading and messages.
orjson reads an integer beyond the 64-bit range as its nearest float, so
sizes stop below 2**64 for both.  The cyclic collector is paused while a
decoded document lives (see `_load`).  The writer formats each distinct
matrix of a `dumps_canonical` call once (see `_write_matrix`).

`load_frame` keeps a binary sidecar of each frame document it parses and
reads the frame from it while the document's bytes stay the same (see
`load_frame`); no report, exit code or message depends on it.

`frame_to_document` and `vector_to_document` build the in-memory form of
these documents for `dumps_canonical`: their matrices are complex ndarrays,
which the canonical writer prints as the nested [re, im] lists above, so
`json.dump` cannot take them.  A caller who wants plain JSON values reads
them back with `json.loads(dumps_canonical(doc))`.
"""

import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import sys
from itertools import chain

import numpy as np
import orjson

from .exceptions import ParseError
from .frames import GFusionFrame
from .hilbert import CONVENTIONS, ModuleVector

FORMAT_VERSION = "1"
# largest accepted |re| or |im| of a matrix entry: squares and the sums of
# squares in Gram and frame-operator matrices stay far from overflow
MAX_ABS_ENTRY = 1e100
# smallest accepted largest |re| or |im| over a frame's operators, unless
# all are zero: the frame operator's entries (products of two entries) stay
# far from underflow
MIN_OPERATOR_SCALE = 1e-100
# the types of a JSON number (bool, a subclass of int, is not one)
_NUMBER_TYPES = {int, float}
# a frame document's sidecar is CACHE_DIR/<file name>.frame in its directory
CACHE_DIR = "__gframemod_cache__"
# first field of a sidecar's header: change it whenever what a document
# decodes to, or which documents are refused, changes
CACHE_FORMAT = "gframemod-frame-1-" + sys.byteorder
_HEADER_MAX = 256  # bytes; a header takes under 200
_EMPTY_SHA256 = hashlib.sha256().digest()


# ---------------------------------------------------------------------------
# canonical writer


def _write(obj, out, indent, written):
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite floats are not representable in reports")
        out.append(format(obj + 0.0, ".17g"))  # -0.0 as 0, which reads back as 0.0
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        if len(obj) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                 for v in obj):
            out.append("[")
            _write(obj[0], out, indent, written)
            out.append(", ")
            _write(obj[1], out, indent, written)
            out.append("]")
            return
        out.append("[\n")
        for k, item in enumerate(obj):
            out.append(pad + "  ")
            _write(item, out, indent + 1, written)
            out.append(",\n" if k + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "c" and obj.size:
        _write_matrix(obj, out, indent, written)
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
            _write(obj[key], out, indent + 1, written)
            out.append(",\n" if k + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _write_matrix(matrix, out, indent, written):
    """A complex matrix as rows of [re, im] pairs, byte for byte what the
    generic path writes for its nested lists of floats: '%.17g' and
    format(x, '.17g') share one C routine.  `written` maps each matrix
    already written (its shape, indent and parts) to its text."""
    parts = np.stack((matrix.real, matrix.imag), axis=-1).ravel() + 0.0  # no -0
    key = (matrix.shape, indent, parts.tobytes())
    text = written.get(key)
    if text is None:
        if not np.isfinite(parts).all():
            raise ValueError("non-finite floats are not representable in reports")
        text = written[key] = _matrix_template(*matrix.shape, indent) % tuple(parts.tolist())
    out.append(text)


@functools.lru_cache(maxsize=32)
def _matrix_template(rows: int, cols: int, indent: int) -> str:
    """The generic writer's layout of a rows x cols matrix at `indent`,
    with a %.17g slot for every real and imaginary part."""
    pad = "  " * indent
    entry = "[%.17g, %.17g]"
    row = f"[\n{pad}    " + f",\n{pad}    ".join([entry] * cols) + f"\n{pad}  ]"
    return f"[\n{pad}  " + f",\n{pad}  ".join([row] * rows) + f"\n{pad}]"


def dumps_canonical(obj) -> str:
    out = []
    _write(obj, out, 0, {})
    out.append("\n")
    return "".join(out)


def write_atomic(path, text: str):
    """Write `text` to `path` through a new file beside it and one rename.
    A new file gets the mode `open(path, "w")` would give it (the kernel
    applies the umask to 0o666); an existing file keeps its own mode."""
    _replace(path, [text.encode("utf-8")])


def _replace(path, parts):
    """`write_atomic` of the bytes `parts`, written one after another."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, ".tmp-gframemod-" + os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            with contextlib.suppress(FileNotFoundError):  # a new file
                os.chmod(handle.fileno(), os.stat(path).st_mode & 0o7777)
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# matrices


def json_to_matrix(rows, shape, what: str) -> np.ndarray:
    """One complex matrix of `shape` from rows of [re, im] pairs; `what`
    names it in error messages."""
    return _parse_matrices([rows], shape, [what])[0][0]


def _parse_matrices(blocks, shape, names):
    """Stack of len(blocks) complex matrices of `shape` from rows of
    [re, im] pairs, and each matrix's largest |re| or |im|.

    The structure and number types are checked at C level over the chained
    entries, the numbers converted by one np.array call and their
    magnitudes tested over the whole stack.  Only when a check fails does
    `_first_fault` scan entry by entry to name the first bad one.
    """
    count, (r, c) = len(blocks), shape
    values = _flat_numbers(blocks, r, c)
    try:
        parts = None if values is None else np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        parts = None
    if parts is not None:
        peaks = np.abs(parts.reshape(count, -1)).max(axis=1)
        if (peaks <= MAX_ABS_ENTRY).all():  # false for NaN and infinities too
            return parts.view(np.complex128).reshape(count, r, c), peaks
    for rows, what in zip(blocks, names):
        problem = _first_fault(rows, r, c)
        if problem:
            raise ParseError(f"{what}: {problem}")
    raise AssertionError("a failed batch check left no entry to blame")


def _flat_numbers(blocks, r: int, c: int):
    """Every number of the blocks in order when each block is r lists of c
    lists of 2 JSON numbers, else None."""
    if not all(type(rows) is list and len(rows) == r for rows in blocks):
        return None
    level = list(chain.from_iterable(blocks))
    for width in (c, 2):
        if set(map(type, level)) != {list} or set(map(len, level)) != {width}:
            return None
        level = list(chain.from_iterable(level))
    return level if set(map(type, level)) <= _NUMBER_TYPES else None


def _first_fault(rows, r: int, c: int):
    """What is wrong with the first bad row or entry of one matrix, or None."""
    if type(rows) is not list or len(rows) != r:
        return f"expected {r} rows"
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != c:
            return f"row {i} must have {c} entries"
        for j, entry in enumerate(row):
            if (type(entry) is not list or len(entry) != 2
                    or not set(map(type, entry)) <= _NUMBER_TYPES):
                return f"entry ({i}, {j}) must be a [re, im] pair"
            for v in entry:
                if not abs(v) <= MAX_ABS_ENTRY:  # true for NaN
                    if isinstance(v, float) and not math.isfinite(v):
                        return f"entry ({i}, {j}) is not finite"
                    return f"entry ({i}, {j}) exceeds {MAX_ABS_ENTRY:.0e} in magnitude"
    return None


# ---------------------------------------------------------------------------
# frame documents


def _require_keys(doc: dict, keys, what: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in doc]
    extra = [k for k in doc if k not in keys]
    if missing or extra:
        raise ParseError(f"{what}: missing keys {missing}, unexpected keys {extra}")


def _positive_sizes(doc: dict):
    """The document's d and n, JSON integers from 1 to 2**64 - 1 (true is not
    one): orjson reads a larger integer as a float, `json` as an int."""
    d, n = doc["d"], doc["n"]
    if not (type(d) is int and type(n) is int and 1 <= d < 2**64 and 1 <= n < 2**64):
        raise ParseError("d and n must be positive integers")
    return d, n


def frame_to_document(frame: GFusionFrame, metadata=None) -> dict:
    """The frame's document for `dumps_canonical`; its matrices are the
    frame's read-only complex arrays, not JSON lists (see the module
    docstring)."""
    return {
        "d": frame.d,
        "n": frame.n,
        "index_convention": frame.index_convention,
        "elements": [
            {"projection": projection, "operator": operator}
            for projection, operator in zip(frame.projections, frame.operators)
        ],
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }


def document_to_frame(doc: dict) -> GFusionFrame:
    _require_keys(doc, ("d", "n", "index_convention", "elements", "metadata"), "frame document")
    d, n = _positive_sizes(doc)
    if doc["index_convention"] not in CONVENTIONS:
        raise ParseError("index_convention must be " + " or ".join(map(repr, CONVENTIONS)))
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise ParseError("elements must be a nonempty list")
    if not isinstance(doc["metadata"], dict):
        raise ParseError("metadata must be an object")
    nd, m = n * d, len(doc["elements"])
    blocks, names = [], []
    for k, entry in enumerate(doc["elements"]):
        _require_keys(entry, ("projection", "operator"), f"element {k}")
        blocks += (entry["projection"], entry["operator"])
        names += (f"element {k} projection", f"element {k} operator")
    stack, peaks = _parse_matrices(blocks, (nd, nd), names)
    # document order interleaves the two stacks; one copy separates them
    stacks = stack.reshape(m, 2, nd, nd).swapaxes(0, 1).copy()
    return _stacks_to_frame(stacks, float(peaks[1::2].max()), n, d, doc["index_convention"])


def _stacks_to_frame(stacks, largest: float, n: int, d: int, convention: str) -> GFusionFrame:
    """The frame of a (2, m, n*d, n*d) array holding the projection stack
    and the operator stack, whose largest operator |re| or |im| is
    `largest`; a ParseError when it is no valid frame."""
    if 0.0 < largest < MIN_OPERATOR_SCALE:
        raise ParseError(
            f"largest operator entry {largest:.3e} is below {MIN_OPERATOR_SCALE:.0e} in "
            "magnitude; the frame operator would underflow"
        )
    projections, operators = stacks
    try:
        return GFusionFrame.from_stacks(projections, operators, n, d, convention)
    except ValueError as exc:  # a projection fails; the message names its element
        raise ParseError(str(exc)) from exc
    except Exception as exc:
        raise ParseError(f"document does not describe a valid frame: {exc}") from exc


def load_frame(path, sha=None) -> GFusionFrame:
    """The frame of the document at `path`, read once; a hashlib object
    `sha` is fed its bytes.

    A frame parsed from a regular file is kept in a sidecar,
    CACHE_DIR/<file name>.frame in the document's directory: one ASCII
    header line (CACHE_FORMAT, the sha256 of the document's bytes and of
    the body, n, d, m and the index convention), then the body, the raw
    complex128 projection and operator stacks.  A later load whose document
    bytes have that digest, and whose body has its digest, rebuilds the
    frame from the body, through the same entry window and `from_stacks`
    checks as a parse, and skips the JSON decoding.  A sidecar that is
    missing, unreadable, stale, truncated, of another format or fails a
    check is ignored, and the document is parsed and its sidecar written
    anew; a directory that takes no sidecar keeps none.  So the frame, and
    every error, is the parse's either way."""
    # a sha256 fed nothing yet (a command's first document) has, once fed
    # the document, the document's own digest, which then costs no second pass
    own = sha is not None and sha.name == "sha256" and sha.digest() == _EMPTY_SHA256
    raw = _read(path, sha)
    sidecar = _sidecar_path(path)
    if sidecar is None:
        return _load(raw, path, document_to_frame)
    source = (sha if own else hashlib.sha256(raw)).hexdigest()
    frame = _cached_frame(sidecar, source)
    if frame is None:
        frame = _load(raw, path, document_to_frame)
        _write_sidecar(sidecar, source, frame)
    return frame


def _sidecar_path(path):
    """Where the sidecar of the document at `path` lives, or None when
    `path` is no regular file (a pipe, a device), which keeps none."""
    if not os.path.isfile(path):
        return None
    directory, name = os.path.split(os.fsdecode(path))
    return os.path.join(directory, CACHE_DIR, name + ".frame")


def _cached_frame(sidecar: str, source: str):
    """The frame that `sidecar` keeps for a document whose sha256 is
    `source`, or None when it keeps none that passes every check."""
    try:
        with open(sidecar, "rb") as handle:
            header = handle.readline(_HEADER_MAX)
            form, digest, body, *sizes, convention = header.decode("ascii").split()
            if form != CACHE_FORMAT or digest != source or not header.endswith(b"\n"):
                return None
            n, d, m = map(int, sizes)
            entries = 2 * m * (n * d) ** 2  # of the two stacks, 16 bytes each
            if min(n, d, m) < 1 or os.fstat(handle.fileno()).st_size != len(header) + 16 * entries:
                return None
            stacks = np.empty((2, m, n * d, n * d), np.complex128)
            if handle.readinto(stacks) != stacks.nbytes:
                return None
        if hashlib.sha256(stacks).hexdigest() != body:
            return None
        magnitudes = np.abs(stacks.view(np.float64))
        if not (magnitudes <= MAX_ABS_ENTRY).all():  # false for NaN and infinities too
            return None
        return _stacks_to_frame(stacks, float(magnitudes[1].max()), n, d, convention)
    except (OSError, ValueError, ParseError):  # UnicodeDecodeError is a ValueError
        return None


def _write_sidecar(sidecar: str, source: str, frame: GFusionFrame) -> None:
    """Keep `frame` in `sidecar` for a document whose sha256 is `source`,
    atomically; nothing when the directory takes no file."""
    try:
        with contextlib.suppress(FileExistsError):
            os.mkdir(os.path.dirname(sidecar))
        body = hashlib.sha256(frame.projections)
        body.update(frame.operators)
        header = (f"{CACHE_FORMAT} {source} {body.hexdigest()} {frame.n} {frame.d} {len(frame)} "
                  f"{frame.index_convention}\n")
        _replace(sidecar, [header.encode("ascii"), frame.projections, frame.operators])
    except OSError:
        pass


def _read(path, sha) -> bytes:
    """The bytes of `path`, read once; a hashlib object `sha` is fed them."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if sha is not None:
        sha.update(raw)
    return raw


def _load(raw: bytes, path, convert):
    """`convert` of the document that `_load_json` decodes from `raw`, with
    the cyclic garbage collector paused until the decoded tree is freed.

    The tree is fresh lists and dicts that hold only one another and
    numbers or strings, so it has no cycles, and reference counting frees
    it; yet its tens of thousands of tracked containers would set off
    dozens of collections that each search it in vain.  The collector's
    state is process-wide, so only what this call changed is undone: a
    caller who turned it off finds it still off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(_load_json(raw, path))
    finally:
        if enabled:
            gc.enable()


def _load_json(raw: bytes, path):
    """The JSON value of `raw`, the bytes of `path`: `json` reads only what
    orjson refuses (see the module docstring)."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} is not valid JSON: nesting too deep") from None


# ---------------------------------------------------------------------------
# vectors


def vector_to_document(vector: ModuleVector) -> dict:
    """The vector's document for `dumps_canonical`; its components are
    complex arrays, not JSON lists (see the module docstring)."""
    return {
        "d": vector.d,
        "n": vector.n,
        "components": vector.components(),
    }


def document_to_vector(doc: dict) -> ModuleVector:
    _require_keys(doc, ("d", "n", "components"), "vector document")
    d, n = _positive_sizes(doc)
    if not isinstance(doc["components"], list) or len(doc["components"]) != n:
        raise ParseError(f"components must be a list of {n} blocks")
    blocks = [json_to_matrix(block, (d, d), f"component {i}")
              for i, block in enumerate(doc["components"])]
    return ModuleVector.from_components(blocks)


def load_vector(path, sha=None) -> ModuleVector:
    return _load(_read(path, sha), path, document_to_vector)
