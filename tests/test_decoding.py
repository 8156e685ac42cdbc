"""Decoding documents: orjson reads what it accepts, and the standard
library's `json` reads only the bytes orjson refuses.  Every document must
come out as `oracles.stdlib_document` reads it: the same stacks bit for bit
and the same digest when accepted, the same ParseError message and exit
code when refused.  A size of 2**64 or more, which orjson reads as a float
and `json` as an integer, is pinned by its own test.  Loading runs with the
cyclic collector paused and leaves it as the caller set it."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import tempfile

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings, strategies as st

from gframemod.cli import main
from gframemod.exceptions import ParseError
from gframemod.families import KINDS, random_vector
from gframemod.serialize import (
    document_to_frame,
    document_to_vector,
    dumps_canonical,
    frame_to_document,
    load_frame,
    load_vector,
    vector_to_document,
)
from oracles import stdlib_document
from test_cli import CORPUS, _load_perfbench, run

ORBIT = CORPUS / "unitary_orbit_m4.json"
VECTOR = CORPUS / "unit_vector_n2_d2.json"
LOADERS = {"frame": (load_frame, document_to_frame), "vector": (load_vector, document_to_vector)}


def _bits(value) -> tuple:
    """Everything a parsed frame or vector holds, with its arrays as raw
    bytes, so that signed zeros count."""
    if hasattr(value, "operators"):
        return (value.n, value.d, value.index_convention,
                value.projections.tobytes(), value.operators.tobytes())
    return value.n, value.d, value.flat.tobytes()


def _outcomes(path, kind: str):
    """('ok', bits) or ('error', message) of loading `path` with the
    library, then with the standard-library reference."""
    load, parse = LOADERS[kind]
    found = []
    for read in (load, lambda p: parse(stdlib_document(p))):
        try:
            found.append(("ok", _bits(read(path))))
        except ParseError as exc:
            found.append(("error", str(exc)))
    return found


# ---------------------------------------------------------------------------
# accepted documents


@pytest.fixture(scope="module")
def accepted(tmp_path_factory):
    """(path, kind) of every corpus document, every `gen` kind at the
    benchmark's three sizes and the benchmark's perturbation pairs, which
    `json.dump` writes with ", " separators, repr floats and the base
    document's integer 0/1 projections."""
    docs = [(path, "vector" if path == VECTOR else "frame")
            for path in sorted(CORPUS.glob("*.json"))]
    workloads = _load_perfbench("workloads")
    for w in workloads.WORKLOADS.values():
        workdir = tmp_path_factory.mktemp(w.name)
        workloads.write_documents(main, w, 1, str(workdir))  # base documents and pairs
        for kind in KINDS:
            if kind != "fusion" or w.m <= w.n * w.d:  # a fusion needs m <= n*d
                args = ["--kind", kind, "--n", w.n, "--d", w.d, "--m", w.m, "--seed", 1]
                path = workloads.doc_path(str(workdir), kind)
                assert main([str(a) for a in ["gen", *args, path]]) == 0
        docs += [(path, "frame") for path in sorted((workdir / "docs").glob("*.json"))]
    return docs


def test_accepted_documents_parse_as_the_standard_library_reads_them(accepted):
    for path, kind in accepted:
        raw = path.read_bytes()
        orjson.loads(raw)  # the decoder under test takes it, not the fallback
        ours, reference = _outcomes(path, kind)
        assert ours[0] == "ok" and ours == reference, path
        sha = hashlib.sha256()
        LOADERS[kind][0](path, sha)
        assert sha.hexdigest() == hashlib.sha256(raw).hexdigest(), path


def test_a_document_in_the_earlier_layout_loads_as_its_rewrite_does(tmp_path):
    # the corpus orbit is in the earlier layout, each number of an [re, im]
    # entry on its own line; the writer puts an entry on one line, and only
    # the digest tells the two files apart
    rewritten = tmp_path / "orbit.json"
    rewritten.write_text(dumps_canonical(json.loads(ORBIT.read_text())))
    assert rewritten.stat().st_size < ORBIT.stat().st_size
    assert json.loads(rewritten.read_text()) == json.loads(ORBIT.read_text())
    shas = [hashlib.sha256(), hashlib.sha256()]
    loaded = [_bits(load_frame(path, sha)) for path, sha in zip((ORBIT, rewritten), shas)]
    assert loaded[0] == loaded[1]
    assert shas[0].hexdigest() != shas[1].hexdigest()
    frame = load_frame(ORBIT)
    metadata = json.loads(ORBIT.read_text())["metadata"]
    assert dumps_canonical(frame_to_document(frame, metadata)) == rewritten.read_text()


# ---------------------------------------------------------------------------
# refused documents


def _orbit_with_entry(literal: bytes) -> bytes:
    """The orbit document with one operator entry part written as `literal`."""
    doc = json.loads(ORBIT.read_text())
    doc["elements"][1]["operator"][2][3][1] = "ENTRY"
    return json.dumps(doc).encode().replace(b'"ENTRY"', literal)


ORBIT_BYTES = ORBIT.read_bytes()
REFUSED_FRAMES = {
    "NaN": _orbit_with_entry(b"NaN"),
    "Infinity": _orbit_with_entry(b"Infinity"),
    "-Infinity": _orbit_with_entry(b"-Infinity"),
    "1e400": _orbit_with_entry(b"1e400"),
    "10**400": _orbit_with_entry(str(10**400).encode()),
    "2e100": _orbit_with_entry(b"2e100"),
    "invalid UTF-8": ORBIT_BYTES.replace(b'"unitary-orbit"', b'"unitary\xff-orbit"'),
    "UTF-8 BOM": b"\xef\xbb\xbf" + ORBIT_BYTES,
    "trailing comma": ORBIT_BYTES.replace(b'"seed": "3"\n', b'"seed": "3",\n'),
    "lone surrogate": ORBIT_BYTES.replace(b'"seed": "3"', b'"seed": "\\ud800"'),
    "duplicate elements, last kept": b'{"elements": [],' + ORBIT_BYTES[1:],
    "duplicate elements, last empty": ORBIT_BYTES.replace(
        b'"index_convention"', b'"elements": [],\n  "index_convention"'),
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(REFUSED_FRAMES))
def test_documents_orjson_refuses_read_as_the_standard_library_reads_them(
        tmp_path, capsys, name):
    path = tmp_path / "doc.json"
    path.write_bytes(REFUSED_FRAMES[name])
    ours, reference = _outcomes(path, "frame")
    assert ours == reference
    code = run(["analyze", path, "--output", tmp_path / "report.json"])
    if ours[0] == "ok":  # the lone surrogate sits in metadata; the last elements win
        assert code == 0
    else:
        assert code == 1
        assert capsys.readouterr().err == f"gframemod: error: {ours[1]}\n"


def test_a_nan_vector_reads_as_the_standard_library_reads_it(tmp_path, capsys):
    path = tmp_path / "vector.json"
    doc = json.loads(VECTOR.read_text())
    doc["components"][0][0][0] = [float("nan"), 0]
    path.write_text(json.dumps(doc))  # NaN as json.dumps writes it
    ours, reference = _outcomes(path, "vector")
    assert ours == reference == ("error", "component 0: entry (0, 0) is not finite")
    assert run(["represent", ORBIT, "--tight-certificate", "--vector", path]) == 1
    assert capsys.readouterr().err == "gframemod: error: component 0: entry (0, 0) is not finite\n"


@pytest.mark.parametrize("kind,key", [("frame", "d"), ("vector", "n")])
def test_a_size_beyond_64_bits_is_not_a_positive_integer(tmp_path, capsys, kind, key):
    # orjson reads 2**64 as a float and the standard library as an integer;
    # the size check refuses both alike
    source = ORBIT if kind == "frame" else VECTOR
    doc = json.loads(source.read_text())
    doc[key] = 2**64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    ours, reference = _outcomes(path, kind)
    assert ours == reference == ("error", "d and n must be positive integers")
    argv = (["analyze", path] if kind == "frame"
            else ["represent", ORBIT, "--tight-certificate", "--vector", path])
    assert run(argv) == 1
    assert capsys.readouterr().err == "gframemod: error: d and n must be positive integers\n"


# ---------------------------------------------------------------------------
# the cyclic collector


@pytest.fixture
def collector():
    """The generation of each collection that starts during the test, in a
    list; the collector is turned back on or off as it was, afterwards."""
    enabled, starts = gc.isenabled(), []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    yield starts
    gc.callbacks.remove(count)
    (gc.enable if enabled else gc.disable)()


def _wide_document(directory, kind: str):
    """A frame document at the wide-family size (n=4, d=4, m=64), or a
    vector document of about as many JSON lists (n=1024, d=4)."""
    path = directory / f"{kind}.json"
    if kind == "frame":
        args = ["--kind", "unitary-orbit", "--n", 4, "--d", 4, "--m", 64, "--seed", 1]
        assert main([str(a) for a in ["gen", *args, path]]) == 0
    else:
        vector = random_vector(np.random.default_rng(1), 1024, 4)
        path.write_text(dumps_canonical(vector_to_document(vector)))
    return path


@pytest.mark.parametrize("kind", ["frame", "vector"])
def test_a_wide_document_loads_without_a_collection(tmp_path, collector, kind):
    path = _wide_document(tmp_path, kind)
    gc.enable()
    LOADERS[kind][1](orjson.loads(path.read_bytes()))
    assert len(collector) > 10  # with the collector running, it runs
    collector.clear()
    LOADERS[kind][0](path)
    assert collector == []
    assert gc.isenabled()


def _edited(source, edit) -> bytes:
    doc = json.loads(source.read_text())
    edit(doc)
    return json.dumps(doc).encode()  # NaN as the NaN literal


def _set_nan(block):
    block[0][0] = [float("nan"), 0]


def _double(rows):
    return [[[2 * re, 2 * im] for re, im in row] for row in rows]


LOADS = {
    "frame": {
        "accepted": ORBIT_BYTES,
        "invalid JSON": b"{",
        "NaN entry": _edited(ORBIT, lambda doc: _set_nan(doc["elements"][1]["operator"])),
        "non-projection": _edited(ORBIT, lambda doc: doc["elements"][0].update(
            projection=_double(doc["elements"][0]["projection"]))),
        "oversized d": _edited(ORBIT, lambda doc: doc.update(d=2**64)),
    },
    "vector": {
        "accepted": VECTOR.read_bytes(),
        "invalid JSON": b"{",
        "NaN entry": _edited(VECTOR, lambda doc: _set_nan(doc["components"][0])),
        "missing block": _edited(VECTOR, lambda doc: doc["components"].pop()),
        "oversized n": _edited(VECTOR, lambda doc: doc.update(n=2**64)),
    },
}


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("kind,case", [(k, c) for k in LOADS for c in LOADS[k]])
def test_a_load_leaves_the_collector_as_the_caller_set_it(
        tmp_path, collector, kind, case, enabled):
    path = tmp_path / "doc.json"
    path.write_bytes(LOADS[kind][case])
    (gc.enable if enabled else gc.disable)()
    try:
        LOADERS[kind][0](path)
        assert case == "accepted"
    except ParseError:
        assert case != "accepted"
    assert gc.isenabled() is enabled


DEEP = 100_000


@pytest.mark.parametrize("inner", [b"", b"NaN"], ids=["empty", "NaN"])
@pytest.mark.parametrize("kind", ["frame", "vector"])
def test_deeply_nested_documents_exit_1_with_a_message(tmp_path, capsys, kind, inner):
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * DEEP + inner + b"]" * DEEP)
    argv = (["analyze", path] if kind == "frame"
            else ["represent", ORBIT, "--tight-certificate", "--vector", path])
    assert run(argv) == 1
    err = capsys.readouterr().err
    if inner:  # orjson refuses the NaN, and `json` recurses too deep
        assert err == f"gframemod: error: {path} is not valid JSON: nesting too deep\n"
    else:  # orjson reads the nesting; a list is no document
        assert err.startswith("gframemod: error: ")


# ---------------------------------------------------------------------------
# numbers


def _float_bits(text: str):
    """The float64 bits np.array makes of one JSON number, as orjson and as
    `json` decode it."""
    return [np.array(decoded, dtype=np.float64).view(np.uint64)
            for decoded in (orjson.loads(text.encode()), json.loads(text))]


@settings(max_examples=2000, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_double_decodes_to_the_same_bits(x):
    for text in ("%.17g" % x, repr(x)):
        ours, reference = _float_bits(text)
        assert ours == reference, text


@settings(max_examples=1000, deadline=None)
@given(digits=st.integers(0, 10**40 - 1), exponent=st.integers(-380, 300),
       negative=st.booleans())
def test_decimal_strings_of_up_to_40_digits_decode_to_the_same_bits(digits, exponent, negative):
    text = f"{'-' if negative else ''}{digits}e{exponent}"
    assume(math.isfinite(json.loads(text)))  # an infinite one goes to `json` itself
    ours, reference = _float_bits(text)
    assert ours == reference, text


@settings(max_examples=1000, deadline=None)
@given(k=st.integers(-10**30, 10**30))
def test_every_integer_up_to_1e30_decodes_to_the_same_bits(k):
    ours, reference = _float_bits(str(k))
    assert ours == reference, k


# ---------------------------------------------------------------------------
# corrupted documents under every reading command

_CORRUPT_VALUES = {"true": True, "string": "1.0", "null": None, "nested list": [[1.0, 0.0]],
                   "10**400": 10**400, "NaN": float("nan")}
_READING_COMMANDS = (["analyze"], ["independence"], ["represent", "--check-theorem21"],
                     ["perturb"])


def _corrupted(corruption: str, element: int, matrix: str, at: tuple) -> dict:
    """The orbit document with one entry, number or row of one matrix
    replaced, a row dropped, or an unexpected key in one element."""
    doc = json.loads(ORBIT.read_text())
    rows = doc["elements"][element][matrix]
    if corruption == "dropped row":
        del rows[at[0]]
    elif corruption == "extra key":
        doc["elements"][element]["weight"] = 1.0
    else:
        *path, last = at
        target = rows
        for index in path:
            target = target[index]
        target[last] = _CORRUPT_VALUES[corruption]
    return doc


@settings(max_examples=100, deadline=None)
@given(corruption=st.sampled_from([*_CORRUPT_VALUES, "dropped row", "extra key"]),
       element=st.integers(0, 3), matrix=st.sampled_from(["projection", "operator"]),
       at=st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
       perturbed_first=st.booleans())
def test_a_corrupted_document_exits_1_under_every_command(corruption, element, matrix, at,
                                                          perturbed_first):
    # `at` picks a row, an entry (row, column) or a number (row, column, part)
    at = at[:2] + tuple(i % 2 for i in at[2:])
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "corrupted.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_corrupted(corruption, element, matrix, at), handle)  # NaN as `NaN`
        for command in _READING_COMMANDS:
            frames = [path]
            if command[0] == "perturb":
                frames = [path, ORBIT] if perturbed_first else [ORBIT, path]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], *map(str, frames), *command[1:]])
            lines = err.getvalue().splitlines()
            assert (code, out.getvalue(), len(lines)) == (1, "", 1), (command, err.getvalue())
            assert lines[0].startswith("gframemod: error: ") and "Traceback" not in lines[0]
