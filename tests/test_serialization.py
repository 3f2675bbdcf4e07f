"""File format round trips and parse failures."""

import json

import numpy as np
import pytest

from trivolve.errors import ParseError
from trivolve.serialization import (
    algebra_to_json,
    array_from_json,
    array_to_json,
    dumps_report,
    jsonable,
    load_algebra,
    load_element,
    load_map,
    map_to_json,
)


def test_array_round_trip():
    arr = np.array([[1 + 2j, 0.0], [3.0, -1j]])
    again = array_from_json(array_to_json(arr), (2, 2))
    assert np.array_equal(arr, again)


def test_algebra_round_trip(z2, tmp_path):
    data = algebra_to_json(z2)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(data))
    again = load_algebra(path)
    assert again.dim == z2.dim
    assert np.allclose(again.structure, z2.structure)
    assert again.basis_labels == z2.basis_labels


def test_group_table_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"group": {"order": 2, "table": [[0, 1], [1, 0]]}}))
    algebra = load_algebra(path)
    assert algebra.dim == 2
    assert algebra.is_unital()


def test_map_round_trip(c2, remark_tau, tmp_path):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(map_to_json(remark_tau)))
    again = load_map(path, default_source=c2)
    assert again.conjugating
    assert np.allclose(again.matrix, remark_tau.matrix)


def test_map_with_source_reference(c2, tmp_path):
    algebra_path = tmp_path / "alg.json"
    algebra_path.write_text(json.dumps(algebra_to_json(c2)))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"matrix": array_to_json(np.eye(2)),
                                    "conjugating": True,
                                    "source": "alg.json"}))
    loaded = load_map(map_path, default_source=c2)
    assert loaded.source.dim == 2


@pytest.mark.parametrize("tag", ["source", "target"])
def test_map_naming_missing_algebra_file(c2, tmp_path, tag):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"matrix": array_to_json(np.eye(2)),
                                    "conjugating": True, tag: "absent.json"}))
    with pytest.raises(ParseError, match="absent.json"):
        load_map(map_path, default_source=c2)


def test_element_inline_and_file(c2, tmp_path):
    inline = load_element("[[1, 0], [0, 1]]", c2)
    assert np.allclose(inline.coords, [1.0, 1j])
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"coords": [[2, 0], [0, 0]]}))
    from_file = load_element(path, c2)
    assert np.allclose(from_file.coords, [2.0, 0.0])


def test_parse_errors(tmp_path, c2):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_algebra(bad)
    with pytest.raises(ParseError):
        load_element("[[1,0]]", c2)  # wrong length
    with pytest.raises(ParseError):
        load_algebra({"dim": 2, "structure": [[1, 2], [3, 4]]})


@pytest.mark.parametrize("number", [float("nan"), float("inf"), [0.0, float("-inf")],
                                    ["nan", 0.0]])
def test_non_finite_number_is_parse_error(number):
    with pytest.raises(ParseError):
        array_from_json(number, ())


def test_nonassociative_file_is_parse_error(tmp_path):
    structure = np.zeros((2, 2, 2))
    structure[0, 0, 0] = 1.0
    structure[0, 1, 0] = 1.0
    structure[1, 0, 0] = 2.0
    path = tmp_path / "bad_alg.json"
    path.write_text(json.dumps({"dim": 2, "structure": array_to_json(structure)}))
    with pytest.raises(ParseError):
        load_algebra(path)


def test_report_determinism():
    report = {"b": 1.5, "a": [1 + 2j, 3.0], "nested": {"z": True, "y": np.float64(2.0)}}
    assert dumps_report(report) == dumps_report(json.loads(json.dumps({
        "b": 1.5, "a": [[1.0, 2.0], [3.0, 0.0]], "nested": {"z": True, "y": 2.0}})))


def test_complex_vector_encoding_boundaries():
    values = [1 + 2j, 3.0]
    encoded = jsonable(values)
    assert encoded == jsonable(np.array(values)) == [[1.0, 2.0], [3.0, 0.0]]
    assert jsonable(tuple(values)) == encoded
    assert jsonable([np.complex128(1 + 2j), 3.0]) == encoded
    assert jsonable([2, np.complex128(-1j)]) == jsonable(np.array([2, -1j]))
    assert np.array_equal(array_from_json(encoded, (2,)), np.array(values))
    # Lists without a complex entry, and lists that are not all numbers, keep their old form.
    assert jsonable([1, 2]) == [1, 2]
    assert jsonable([True, 1.0]) == [True, 1.0]
    assert jsonable([True, 1j]) == [True, [0.0, 1.0]]
    assert jsonable([]) == []
    assert jsonable([{"x": 1j}]) == [{"x": [0.0, 1.0]}]
