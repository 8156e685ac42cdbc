import json
import re

import numpy as np
import pytest

from gframemod.exceptions import ParseError
from gframemod.families import random_frame, random_vector, unitary_orbit_frame
from gframemod.serialize import (
    MAX_ABS_ENTRY,
    document_to_frame,
    document_to_vector,
    dumps_canonical,
    frame_to_document,
    json_to_matrix,
    matrix_to_json,
    vector_to_document,
)


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
    frame = random_frame(2, 2, 3, seed=0)
    doc = frame_to_document(frame, {"kind": "test"})
    text = dumps_canonical(doc)
    text2 = dumps_canonical(json.loads(text))
    assert text == text2


def test_frame_document_round_trip_bit_identical():
    frame = unitary_orbit_frame(2, 2, 4, seed=1)
    doc = frame_to_document(frame, {"kind": "orbit", "seed": "1"})
    text = dumps_canonical(doc)
    rebuilt = document_to_frame(json.loads(text))
    assert dumps_canonical(frame_to_document(rebuilt, doc["metadata"])) == text
    for a, b in zip(frame.elements, rebuilt.elements):
        np.testing.assert_array_equal(a.operator.matrix, b.operator.matrix)
        np.testing.assert_array_equal(a.submodule.projection.matrix, b.submodule.projection.matrix)


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
])
def test_malformed_documents_raise_parse_error(mutate):
    frame = random_frame(2, 1, 2, seed=2)
    doc = json.loads(dumps_canonical(frame_to_document(frame)))
    mutate(doc)
    with pytest.raises(ParseError):
        document_to_frame(doc)


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
