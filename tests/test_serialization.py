"""File format round trips and parse failures."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trivolve import serialization
from trivolve.cli import build_parser, run
from trivolve.errors import ParseError, UsageError
from trivolve.serialization import (
    array_from_json,
    dumps_report,
    load_algebra,
    load_element,
    load_map,
)

from spec_writers import SAMPLE_COMMANDS, algebra_to_json, array_to_json, jsonable, map_to_json


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
    assert np.allclose(inline, [1.0, 1j])
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"coords": [[2, 0], [0, 0]]}))
    from_file = load_element(path, c2)
    assert np.allclose(from_file, [2.0, 0.0])


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


def encoded(value):
    """``value`` as ``dumps_report`` writes it, read back."""
    return json.loads(dumps_report({"v": value}))["v"]


def test_complex_vector_encoding_boundaries():
    values = [1 + 2j, 3.0]
    assert encoded(values) == encoded(np.array(values)) == [[1.0, 2.0], [3.0, 0.0]]
    assert encoded(tuple(values)) == encoded(values)
    assert encoded([np.complex128(1 + 2j), 3.0]) == encoded(values)
    assert encoded([2, np.complex128(-1j)]) == encoded(np.array([2, -1j]))
    assert np.array_equal(array_from_json(encoded(values), (2,)), np.array(values))
    # Lists without a complex entry, and lists that are not all numbers, keep their old form.
    assert encoded([1, 2]) == [1, 2]
    assert encoded([True, 1.0]) == [True, 1.0]
    assert encoded([True, 1j]) == [True, [0.0, 1.0]]
    assert encoded([]) == []
    assert encoded([{"x": 1j}]) == [{"x": [0.0, 1.0]}]


def reference(report) -> str:
    """The stdlib encoding that ``dumps_report`` must reproduce byte for byte."""
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


SHARED = np.arange(8).reshape(2, 2, 2) * (0.5 - 1j)

EDGE_REPORTS = {
    "0-d arrays": {"r": np.array(2.5), "c": np.array(1 - 2j), "i": np.array(3),
                   "b": np.array(True)},
    "empty arrays": {"a": np.zeros(0), "b": np.zeros((2, 0)), "c": np.zeros((2, 0), complex),
                     "d": np.zeros((0, 3))},
    "array dtypes": {"b": np.array([[True, False]]), "i": np.arange(-3, 3).reshape(2, 3),
                     "u": np.arange(4, dtype=np.uint8),
                     "f": np.linspace(-1, 1, 24).reshape(2, 3, 4),
                     "f32": np.array([0.1, 1e30], dtype=np.float32),
                     "c": np.arange(12).reshape(3, 4) * (0.5 - 1.5j),
                     "nested": [[np.ones((1, 1, 2, 1), complex)]]},
    "signed zeros and subnormals": {"z": -0.0, "a": np.array([-0.0, 5e-324, -2.2e-308]),
                                    "c": np.array([complex(-0.0, 5e-324)]), "s": 5e-324},
    "big ints": {"i": 10 ** 30, "neg": -(10 ** 30), "np": np.int64(-(2 ** 63))},
    "strings": {"é\n\"\\": "ünïcødé \u2603 \U0001F600", "tab": "a\tb\x00", "": ""},
    "tuples and complex vectors": {"t": (1, 2.5), "v": [1 + 2j, 3.0],
                                   "w": (2, np.complex128(-1j)), "mixed": [True, 1j],
                                   "empty": [], "deep": [[], {}, [[]]]},
    "numpy scalars": {"f": np.float64(0.1), "f32": np.float32(0.1), "i": np.int32(-7),
                      "b": np.bool_(False), "c": np.complex64(1 + 1j), "n": None},
    "non-str keys": {1: "one", 2.5: [1], None: {True: False}, "z": 0},
    "mostly +0.0": {"a": np.array([[0.0, -0.0, 0.0], [5e-324, 0.0, 0.0]]),
                    "c": np.array([[0.0, -0.0j, 0.0], [0.0, 1e300 + 0.0j, 0.0]]),
                    "t": np.zeros((3, 2)).T, "f32": np.array([0.0, 0.0, 0.1], np.float32),
                    "half": np.array([0.0, 1.5, -0.0, 0.0])},
    "repeated arrays": {"box": SHARED, "diamond": SHARED, "deeper": {"box": SHARED},
                        "items": [SHARED, SHARED.real]},
}


@pytest.mark.parametrize("report", EDGE_REPORTS.values(), ids=EDGE_REPORTS.keys())
def test_dumps_report_matches_the_reference_on_edge_cases(report):
    assert dumps_report(report) == reference(report)


def test_a_repeated_array_is_encoded_once_per_level(monkeypatch):
    # one array object under box and diamond is encoded once; one level deeper its indent
    # differs, so it is encoded again there, and an equal array that is another object too
    encoded_arrays = []
    original = serialization._encode_array

    def counted(arr, level, seen):
        encoded_arrays.append((arr, level))
        return original(arr, level, seen)

    monkeypatch.setattr(serialization, "_encode_array", counted)
    report = {"box": SHARED, "diamond": SHARED, "deeper": {"box": SHARED}, "copy": SHARED.copy()}
    assert dumps_report(report) == reference(report)
    assert [(arr is SHARED, level) for arr, level in encoded_arrays] == [
        (True, 1), (True, 2), (False, 1)]
    encoded_arrays.clear()
    assert dumps_report(report) == reference(report)  # nothing is kept between reports
    assert len(encoded_arrays) == 3


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(10 ** 30), 10 ** 30), st.text(max_size=5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
               elements={"allow_nan": False, "allow_infinity": False}),
)
_reports = st.dictionaries(st.text(max_size=4), st.recursive(
    _leaves, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.lists(inner, max_size=3).map(tuple),
                                     st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12), max_size=5)


@given(report=_reports)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_dumps_report_matches_the_reference_on_nested_reports(report):
    assert dumps_report(report) == reference(report)


@pytest.mark.parametrize("argv", SAMPLE_COMMANDS.values(), ids=SAMPLE_COMMANDS.keys())
def test_dumps_report_matches_the_reference_on_cli_reports(argv):
    _, report = run(build_parser().parse_args(argv))
    assert dumps_report(report) == reference(report)


@pytest.mark.parametrize("report", [{"b": float("nan"), "a": float("inf")},
                                    {"b": np.array([float("nan")]), "a": np.array([np.inf])},
                                    {"b": {"y": float("nan")}, "a": float("inf")},
                                    {"b": [1.0, float("nan")], "a": float("inf")}])
def test_non_finite_report_names_the_first_number_in_insertion_order(report):
    # a walk in sorted key order would meet inf first; members are encoded, then sorted
    with pytest.raises(UsageError) as caught:
        dumps_report(report)
    assert str(caught.value) == "the inputs overflow float64: the report would hold nan"
