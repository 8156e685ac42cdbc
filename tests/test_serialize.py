import json
import os
import re
import stat

import numpy as np
import pytest

from gframemod import serialize
from gframemod.exceptions import ParseError
from gframemod.families import KINDS, generate, random_frame, random_vector, unitary_orbit_frame
from gframemod.hilbert import ModuleVector
from gframemod.serialize import (
    MAX_ABS_ENTRY,
    MIN_OPERATOR_SCALE,
    document_to_frame,
    document_to_vector,
    dumps_canonical,
    frame_to_document,
    json_to_matrix,
    vector_to_document,
    write_atomic,
)


def matrix_to_json(matrix) -> list:
    """The list-of-rows form that documents store, built entry by entry: the
    reference the array writer and the parser are checked against."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = json_to_matrix(matrix_to_json(m), (3, 3), "test")
    np.testing.assert_array_equal(back, m)


def test_canonical_floats_round_trip_exactly():
    values = [1 / 3, 1e-17, -0.0, 123456.789, 2.0**-52]
    text = dumps_canonical({"values": values})
    parsed = json.loads(text)["values"]
    assert all(float(a) == float(b) for a, b in zip(parsed, values))


def test_canonical_output_is_stable_under_reparse():
    # every kind at a small, a wide and a dense size; a fusion decomposition
    # needs m <= n*d, so it has no wide case
    for n, d, m in [(2, 2, 3), (2, 2, 16), (8, 2, 3)]:
        for kind in KINDS:
            if kind == "fusion" and m > n * d:
                continue
            frame = generate(kind, n, d, m, 7)
            # the array writer (matrices are ndarrays here) against the
            # generic writer (nested lists of floats after the reparse)
            text = dumps_canonical(frame_to_document(frame, {"kind": kind}))
            assert dumps_canonical(json.loads(text)) == text, (kind, n, d, m)
            rebuilt = document_to_frame(json.loads(text))
            assert dumps_canonical(frame_to_document(rebuilt, {"kind": kind})) == text


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e100, -1e100, 2.0, -3.0, 1e16, 1 / 3,
               2.0**-52, 123456.789, 2.2250738585072014e-308]


def test_array_writer_matches_list_writer_on_edge_floats():
    parts = np.array(EDGE_FLOATS + EDGE_FLOATS[::-1] + EDGE_FLOATS[:10])  # 36 = 3 x 6 x 2
    matrix = parts.view(np.complex128).reshape(3, 6)
    as_lists = [[[float(re), float(im)] for re, im in row] for row in parts.reshape(3, 6, 2)]
    # at indents 0, 1 and 3
    for wrap in (lambda x: x, lambda x: {"m": x}, lambda x: {"a": [{"m": x}]}):
        assert dumps_canonical(wrap(matrix)) == dumps_canonical(wrap(as_lists))
    # non-contiguous component views write as their values do
    vector = ModuleVector(matrix, 2, 3)
    listed = dict(vector_to_document(vector),
                  components=[matrix_to_json(c) for c in vector.components()])
    assert dumps_canonical(vector_to_document(vector)) == dumps_canonical(listed)


def test_array_writer_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        matrix = np.eye(2, dtype=complex)
        matrix[1, 0] = complex(0.0, bad)
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical({"m": matrix})


def test_a_matrix_at_indent_1_writes_each_entry_on_one_line():
    matrix = np.array([[1.0 + 0.5j, -0.0 - 2.0j], [1 / 3, 5e-324 - 1e100j]])
    golden = ('{\n'
              '  "m": [\n'
              '    [\n'
              '      [1, 0.5],\n'
              '      [0, -2]\n'
              '    ],\n'
              '    [\n'
              '      [0.33333333333333331, 0],\n'
              '      [4.9406564584124654e-324, -1e+100]\n'
              '    ]\n'
              '  ]\n'
              '}\n')
    assert dumps_canonical({"m": matrix}) == golden
    assert dumps_canonical({"m": matrix_to_json(matrix)}) == golden


def test_a_report_list_of_pairs_writes_each_pair_on_one_line():
    report = {"coefficients": [[1.0, 0.0], [-0.5, 0.25]], "pair": [3, -0.0]}
    golden = ('{\n'
              '  "coefficients": [\n'
              '    [1, 0],\n'
              '    [-0.5, 0.25]\n'
              '  ],\n'
              '  "pair": [3, 0]\n'
              '}\n')
    assert dumps_canonical(report) == golden


def test_a_pair_of_numpy_floats_writes_as_a_pair_of_floats():
    values = [[0.1, -0.0], [1e-300, 2.0]]
    as_numpy = [[np.float64(v) for v in pair] for pair in values]
    assert dumps_canonical({"x": as_numpy}) == dumps_canonical({"x": values})
    assert dumps_canonical((np.float64(0.1), 2)) == "[0.10000000000000001, 2]\n"


def test_other_lists_keep_one_item_per_line():
    # booleans are not numbers; lists of 1 or 3 numbers and mixed pairs
    # are not pairs of numbers
    for obj, text in [([True, False], "[\n  true,\n  false\n]\n"),
                      ([1.0, True], "[\n  1,\n  true\n]\n"),
                      ([1.0], "[\n  1\n]\n"),
                      ([1, 2, 3], "[\n  1,\n  2,\n  3\n]\n"),
                      ([1.0, None], "[\n  1,\n  null\n]\n"),
                      ([[1.0, 0.0], "x"], '[\n  [1, 0],\n  "x"\n]\n')]:
        assert dumps_canonical(obj) == text, obj


def _list_written(obj) -> str:
    """What the list writer prints for `obj` (its matrices as nested lists)."""
    return dumps_canonical(json.loads(dumps_canonical(obj)))


def test_repeated_matrices_write_as_the_list_writer_does(rng):
    # the writer formats each distinct (shape, indent, parts) once and reuses
    # the text; every repeat must print what the list writer prints
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    square = a[:, :3]
    signed = np.array([[0.0, -0.0], [1.5, -0.0]]) + 1j * np.array([[-0.0, 0.0], [-0.0, 2.5]])
    unsigned = signed + 0.0  # the same values with every -0 as 0
    cases = {
        "same object": [a, a],
        "equal copy": [a, a.copy()],
        "signed zeros": [signed, unsigned, signed.copy()],
        "two indents": {"a": a, "b": [{"c": a}]},
        "views": [a, a.T, a.conj(), a.T.conj(), a.copy().T],
        "square views": [square, square.T, square.conj(), np.ascontiguousarray(square.T)],
        "one shape, two layouts": [a.reshape(4, 3), a.reshape(2, 6), a.reshape(4, 3)],
    }
    for name, obj in cases.items():
        text = dumps_canonical(obj)
        assert text == _list_written(obj), name
        assert dumps_canonical({"x": obj}) == _list_written({"x": obj}), name


def test_a_non_finite_matrix_raises_after_a_finite_one_of_its_shape():
    finite = np.eye(2, dtype=complex)
    for bad in (np.nan, np.inf, -np.inf):
        matrix = finite.copy()
        matrix[0, 1] = complex(bad, 0.0)
        for order in ([finite, matrix], [finite, finite, matrix, finite]):
            with pytest.raises(ValueError, match="non-finite"):
                dumps_canonical({"m": order})


def test_a_repeated_matrix_is_formatted_once(monkeypatch):
    # the unitary orbit writes the identity as every projection and as Y_0:
    # 65 of its 128 matrices, and the template is filled for it once
    fills = []

    class Counting(str):
        def __mod__(self, values):
            fills.append(values)
            return str.__mod__(self, values)

    template = serialize._matrix_template
    monkeypatch.setattr(serialize, "_matrix_template", lambda *a: Counting(template(*a)))
    frame = unitary_orbit_frame(2, 2, 64, seed=1)
    text = dumps_canonical(frame_to_document(frame))
    identity = tuple(np.stack((np.eye(4), np.zeros((4, 4))), axis=-1).ravel().tolist())
    assert fills.count(identity) == 1
    distinct = {(y + 0.0).tobytes() for y in (*frame.projections, *frame.operators)}
    assert len(fills) == len(distinct) < 2 * len(frame)
    monkeypatch.undo()
    assert text == dumps_canonical(frame_to_document(frame)) == _list_written(frame_to_document(frame))


def test_frame_document_round_trip_bit_identical():
    frame = unitary_orbit_frame(2, 2, 4, seed=1)
    doc = frame_to_document(frame, {"kind": "orbit", "seed": "1"})
    text = dumps_canonical(doc)
    rebuilt = document_to_frame(json.loads(text))
    assert dumps_canonical(frame_to_document(rebuilt, doc["metadata"])) == text
    for a, b in zip(frame.elements, rebuilt.elements):
        np.testing.assert_array_equal(a.operator.matrix, b.operator.matrix)
        np.testing.assert_array_equal(a.submodule.projection.matrix, b.submodule.projection.matrix)


def test_negative_zero_round_trips():
    # json.loads reads a written "-0" as the integer 0, so both writers print
    # a negative zero as 0
    doc = json.loads(dumps_canonical(frame_to_document(unitary_orbit_frame(2, 2, 4, seed=1))))
    doc["elements"][0]["operator"][0][1] = [-0.0, 0.0]
    text = dumps_canonical(doc)  # the list writer
    frame = document_to_frame(doc)
    assert np.signbit(frame.operators[0, 0, 1].real)
    assert dumps_canonical(frame_to_document(frame)) == text  # the array writer
    assert dumps_canonical(frame_to_document(document_to_frame(json.loads(text)))) == text


def test_vector_document_round_trip(rng):
    v = random_vector(rng, 3, 2)
    doc = vector_to_document(v)
    back = document_to_vector(json.loads(dumps_canonical(doc)))
    np.testing.assert_array_equal(back.flat, v.flat)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("elements"),
    lambda d: d.update(extra=1),
    lambda d: d.update(d=0),
    lambda d: d.update(index_convention="sideways"),
    lambda d: d["elements"][0].pop("projection"),
    lambda d: d["elements"][0]["operator"][0].pop(0),
    lambda d: d["elements"][0]["operator"][0].__setitem__(0, [1.0]),
    # np.array alone would read each of these as a number
    lambda d: d["elements"][0]["operator"][0].__setitem__(0, [True, 0.0]),
    lambda d: d["elements"][0]["operator"][0].__setitem__(0, ["1", 0]),
    lambda d: d["elements"][0]["operator"][0].__setitem__(0, None),
    lambda d: d["elements"][0]["operator"][0].__setitem__(0, [0.0, None]),
    lambda d: d["elements"][1]["projection"].__setitem__(1, "ab"),
    lambda d: d["elements"][1]["projection"].__setitem__(1, {"0": [0.0, 0.0], "1": [1.0, 0.0]}),
])
def test_malformed_documents_raise_parse_error(mutate):
    frame = random_frame(2, 1, 2, seed=2)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    mutate(doc)
    with pytest.raises(ParseError):
        document_to_frame(doc)


@pytest.mark.parametrize("key", ["d", "n"])
@pytest.mark.parametrize("kind", ["frame", "vector"])
def test_boolean_sizes_raise_parse_error(kind, key):
    # the key is 1, the integer that true would otherwise pass for
    n, d = (2, 1) if key == "d" else (1, 2)
    if kind == "frame":
        doc, parse = frame_to_document(random_frame(n, d, 2, seed=2)), document_to_frame
    else:
        doc, parse = vector_to_document(random_vector(np.random.default_rng(0), n, d)), document_to_vector
    doc = json.loads(dumps_canonical(doc))
    parse(doc)
    doc[key] = True
    with pytest.raises(ParseError, match="^d and n must be positive integers$"):
        parse(doc)


def test_invalid_projection_raises_parse_error():
    frame = random_frame(2, 1, 2, seed=3)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    doc["elements"][0]["projection"][0][1] = [0.7, 0.0]
    with pytest.raises(ParseError):
        document_to_frame(doc)


def test_non_finite_floats_rejected():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


@pytest.mark.parametrize("value,problem", [(float("nan"), "is not finite"),
                                           (float("-inf"), "is not finite"),
                                           (-1e101, "exceeds 1e+100 in magnitude")])
def test_unusable_entries_named_by_position(value, problem):
    rows = matrix_to_json(np.eye(3))
    rows[1][2] = [0.0, value]
    with pytest.raises(ParseError, match=re.escape(f"block: entry (1, 2) {problem}")):
        json_to_matrix(rows, (3, 3), "block")


def test_entries_at_the_magnitude_bound_are_accepted():
    rows = [[[MAX_ABS_ENTRY, -MAX_ABS_ENTRY]]]
    assert json_to_matrix(rows, (1, 1), "block")[0, 0] == complex(MAX_ABS_ENTRY, -MAX_ABS_ENTRY)


@pytest.mark.parametrize("bad,problem", [
    ([0.5, True], "entry (1, 3) must be a [re, im] pair"),
    ([float("nan"), 0.0], "entry (1, 3) is not finite"),
    ([0.0, -2e100], "entry (1, 3) exceeds 1e+100 in magnitude"),
    ([10**400, 0], "entry (1, 3) exceeds 1e+100 in magnitude"),
])
def test_bad_entry_in_a_later_element_is_named(bad, problem):
    frame = random_frame(2, 2, 3, seed=5)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    doc["elements"][2]["operator"][1][3] = bad
    with pytest.raises(ParseError, match=re.escape(f"element 2 operator: {problem}")):
        document_to_frame(doc)


def test_row_of_wrong_length_in_a_later_element_is_named():
    frame = random_frame(2, 2, 3, seed=5)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    doc["elements"][1]["projection"][2].append([0.0, 0.0])
    with pytest.raises(ParseError, match=re.escape("element 1 projection: row 2 must have 4 entries")):
        document_to_frame(doc)


def test_invalid_projection_in_a_later_element_is_named():
    frame = random_frame(2, 1, 3, seed=3)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    doc["elements"][2]["projection"] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ParseError, match=re.escape(
            "element 2: projection is not self-adjoint within tolerance")):
        document_to_frame(doc)


def _scaled_operators(doc, factor):
    for element in doc["elements"]:
        element["operator"] = [[[factor * re, factor * im] for re, im in row]
                               for row in element["operator"]]
    return doc


def test_operators_below_the_floor_are_rejected():
    doc = json.loads(dumps_canonical(frame_to_document(unitary_orbit_frame(2, 2, 4, seed=1))))
    with pytest.raises(ParseError, match=re.escape(f"below {MIN_OPERATOR_SCALE:.0e}")):
        document_to_frame(_scaled_operators(doc, 1e-200))


def test_operators_at_the_floor_and_all_zero_are_accepted():
    doc = json.loads(dumps_canonical(frame_to_document(unitary_orbit_frame(2, 2, 4, seed=1))))
    largest = max(abs(v) for e in doc["elements"] for row in e["operator"]
                  for entry in row for v in entry)
    at_floor = document_to_frame(_scaled_operators(json.loads(json.dumps(doc)),
                                                   MIN_OPERATOR_SCALE / largest))
    assert at_floor.max_operator_norm() > 0.0
    zero = document_to_frame(_scaled_operators(doc, 0.0))
    assert not zero.operators.any()


def test_parsed_stacks_become_the_frame_arrays():
    frame = random_frame(2, 2, 4, seed=6)
    rebuilt = document_to_frame(json.loads(dumps_canonical(frame_to_document(frame))))
    assert rebuilt.operators.flags.c_contiguous and rebuilt.projections.flags.c_contiguous
    np.testing.assert_array_equal(rebuilt.operators, frame.operators)
    np.testing.assert_array_equal(rebuilt.projections, frame.projections)
    for k, (sub, op) in enumerate(rebuilt.elements):
        np.testing.assert_array_equal(op.matrix, rebuilt.operators[k])
        np.testing.assert_array_equal(sub.projection.matrix, rebuilt.projections[k])
        np.testing.assert_array_equal(sub.basis_rows, frame.elements[k].submodule.basis_rows)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_a_written_file_gets_the_mode_open_would_give_it(tmp_path, umask_022):
    path = tmp_path / "new.json"
    write_atomic(path, "{}\n")
    assert (path.read_text(), _mode(path)) == ("{}\n", 0o644)
    path.chmod(0o640)
    write_atomic(path, "[]\n")  # an overwritten file keeps its own mode
    assert (path.read_text(), _mode(path)) == ("[]\n", 0o640)
    assert os.listdir(tmp_path) == ["new.json"]


def test_a_failed_write_leaves_the_target_and_no_temporary_file(tmp_path):
    path = tmp_path / "old.json"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "\ud800")  # a lone surrogate has no UTF-8 form
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["old.json"]
