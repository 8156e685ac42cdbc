"""The binary sidecar that `serialize.load_frame` keeps beside each frame
document: a warm load rebuilds the parsed frame bit for bit, and no fault
of the sidecar changes a report, an exit code or a message."""

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from gframemod import serialize
from gframemod.cli import main
from gframemod.families import KINDS, generate
from gframemod.hilbert import CONVENTIONS
from gframemod.serialize import (
    CACHE_DIR,
    CACHE_FORMAT,
    document_to_frame,
    dumps_canonical,
    frame_to_document,
    load_frame,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FRAMES = sorted(p.name for p in CORPUS.glob("*.json") if "elements" in json.loads(p.read_text()))


def _sidecar(doc: Path) -> Path:
    return doc.parent / CACHE_DIR / (doc.name + ".frame")


def _assert_same_frame(a, b):
    assert (a.n, a.d, a.index_convention) == (b.n, b.d, b.index_convention)
    for x, y in ((a.projections, b.projections), (a.operators, b.operators)):
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


def _assert_warm_load_is_the_parse(doc: Path, monkeypatch):
    parsed = document_to_frame(json.loads(doc.read_bytes()))
    _assert_same_frame(load_frame(doc), parsed)  # parses, and writes the sidecar
    assert _sidecar(doc).is_file()

    def no_decoding(*args):
        raise AssertionError("a warm load decoded the document")

    monkeypatch.setattr(serialize, "_load_json", no_decoding)
    _assert_same_frame(load_frame(doc), parsed)


@pytest.mark.parametrize("name", FRAMES)
def test_a_warm_corpus_load_is_its_parse(tmp_path, monkeypatch, name):
    shutil.copyfile(CORPUS / name, tmp_path / name)
    _assert_warm_load_is_the_parse(tmp_path / name, monkeypatch)


@pytest.mark.parametrize("size", [(2, 2, 4), (16, 4, 4)], ids=["small", "dense"])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_warm_generated_load_is_its_parse(tmp_path, monkeypatch, kind, convention, size):
    doc = frame_to_document(generate(kind, *size, seed=1))
    path = tmp_path / "doc.json"
    path.write_text(dumps_canonical(dict(doc, index_convention=convention)))
    _assert_warm_load_is_the_parse(path, monkeypatch)


def test_a_document_read_from_a_pipe_keeps_no_sidecar(tmp_path):
    text = (CORPUS / "unitary_orbit_m4.json").read_bytes()
    fifo = tmp_path / "doc.json"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(text,))
    writer.start()
    frame = load_frame(fifo)
    writer.join()
    _assert_same_frame(frame, document_to_frame(json.loads(text)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_each_sidecar_is_keyed_by_its_own_documents_digest(tmp_path):
    # perturb's digest is fed the first document, then the second
    docs = [tmp_path / "orbit.json", tmp_path / "scaled.json"]
    shutil.copyfile(CORPUS / "unitary_orbit_m4.json", docs[0])
    docs[1].write_text(dumps_canonical(frame_to_document(document_to_frame(
        json.loads(docs[0].read_bytes())).scaled(1.05))))
    out = tmp_path / "report.json"
    for second in docs:  # the second run reads the first document warm
        argv = ["perturb", docs[0], second, "--eta", "0.1", "--samples", "8", "--output", out]
        assert main([str(a) for a in argv]) == 0
    both = hashlib.sha256(docs[0].read_bytes() + docs[1].read_bytes()).hexdigest()
    assert json.loads(out.read_text())["inputs_digest"] == both
    sha = hashlib.sha256(b"an earlier input")
    load_frame(docs[1], sha)  # warm, with a digest that was fed before
    assert sha.hexdigest() == hashlib.sha256(b"an earlier input" + docs[1].read_bytes()).hexdigest()
    for doc in docs:
        header = _sidecar(doc).read_bytes().split(b"\n")[0].split()
        assert header[1].decode() == hashlib.sha256(doc.read_bytes()).hexdigest()


def _flip_a_body_byte(sidecar: Path, tmp_path):
    data = bytearray(sidecar.read_bytes())
    data[-1] ^= 1
    sidecar.write_bytes(bytes(data))


def _truncate(sidecar: Path, tmp_path):
    sidecar.write_bytes(sidecar.read_bytes()[:-1])


def _wrong_version(sidecar: Path, tmp_path):
    data = sidecar.read_bytes()
    assert data.startswith(CACHE_FORMAT.encode())
    sidecar.write_bytes(b"gframemod-frame-0" + data[len("gframemod-frame-1"):])


def _another_documents(sidecar: Path, tmp_path):
    other = tmp_path / "other" / sidecar.name[:-len(".frame")]
    other.parent.mkdir()
    shutil.copyfile(CORPUS / "dilation_m3.json", other)
    load_frame(other)
    shutil.copyfile(_sidecar(other), sidecar)


def _forged(entry: int, value: complex):
    """A fault that sets one entry of the body, projections first, and
    writes the body's new digest into the header."""
    def forge(sidecar: Path, tmp_path):
        header, body = sidecar.read_bytes().split(b"\n", 1)
        stacks = np.frombuffer(body, np.complex128).copy()
        stacks[entry] = value
        fields = header.split()
        fields[2] = hashlib.sha256(stacks).hexdigest().encode()
        sidecar.write_bytes(b" ".join(fields) + b"\n" + stacks.tobytes())
    return forge


FAULTS = {
    "none": lambda sidecar, tmp_path: None,
    "flipped-byte": _flip_a_body_byte,
    "truncated": _truncate,
    "wrong-version": _wrong_version,
    "other-digest": _another_documents,
    # digests that hold over a body that no document would be accepted with
    "no-projection": _forged(0, 2.0),
    "huge-entry": _forged(-1, 1e101),
}
# (document, command, exit code): a report, a failed verification, and a
# refused precondition, whose message goes to standard error
CASES = [
    ("unitary_orbit_m4.json", ["analyze"], 0),
    ("graded_m3.json", ["represent", "--check-theorem21"], 3),
    ("single_submodule.json", ["analyze"], 2),
]


def _invoke(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0][:-5] for c in CASES])
def test_a_sidecar_fault_changes_no_output(tmp_path, capsys, fault, name, command, code):
    doc = tmp_path / name
    shutil.copyfile(CORPUS / name, doc)
    first = _invoke([command[0], doc, *command[1:]], capsys)
    assert first[0] == code and (first[1] == "") == (code == 2)
    kept = _sidecar(doc).read_bytes()
    FAULTS[fault](_sidecar(doc), tmp_path)
    assert _invoke([command[0], doc, *command[1:]], capsys) == first
    assert _sidecar(doc).read_bytes() == kept


@pytest.mark.parametrize("name, command, code", CASES, ids=[c[0][:-5] for c in CASES])
def test_a_file_named_like_the_cache_dir_changes_nothing(tmp_path, capsys, name, command,
                                                         code):
    free, blocked = tmp_path / "free", tmp_path / "blocked"
    for directory in (free, blocked):
        directory.mkdir()
        shutil.copyfile(CORPUS / name, directory / name)
    (blocked / CACHE_DIR).write_text("not a directory\n")
    first = _invoke([command[0], free / name, *command[1:]], capsys)
    assert first[0] == code
    for _ in range(2):
        assert _invoke([command[0], blocked / name, *command[1:]], capsys) == first
    assert (blocked / CACHE_DIR).read_text() == "not a directory\n"
    assert sorted(p.name for p in blocked.iterdir()) == [CACHE_DIR, name]


def test_a_refused_document_writes_no_sidecar_and_keeps_its_message(tmp_path, capsys):
    good = (CORPUS / "unitary_orbit_m4.json").read_text()
    doc = json.loads(good)
    doc["elements"][1]["operator"][0][0] = [float("nan"), 0.0]
    refused = json.dumps(doc)
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    fresh.mkdir()
    stale.mkdir()
    (fresh / "doc.json").write_text(refused)
    first = _invoke(["analyze", fresh / "doc.json"], capsys)
    assert first == (1, "", "gframemod: error: element 1 operator: entry (0, 0) is not finite\n")
    assert sorted(p.name for p in fresh.iterdir()) == ["doc.json"]
    # the sidecar of the document's earlier, accepted bytes does not answer for them
    (stale / "doc.json").write_text(good)
    assert _invoke(["analyze", stale / "doc.json"], capsys)[0] == 0
    kept = _sidecar(stale / "doc.json").read_bytes()
    (stale / "doc.json").write_text(refused)
    assert _invoke(["analyze", stale / "doc.json"], capsys) == first
    assert _sidecar(stale / "doc.json").read_bytes() == kept
