"""Spec readers: the vectorised array rule, the flat reader and mutated specs."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve.algebra import cyclic_group_table, function_algebra, group_algebra
from trivolve.cli import main
from trivolve.errors import ParseError
from trivolve.serialization import (_flat_array, _spec_object, array_from_json, load_algebra,
                                    load_map, read_json)

from spec_writers import algebra_to_json


def walk_array_from_json(data, shape):
    """The per-entry reader that ``array_from_json`` replaced, kept as a reference."""
    flat = []

    def real(node):
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            raise ParseError(f"expected a number, got {node!r}")
        return node

    def number(node):
        if isinstance(node, (list, tuple)) and len(node) == 2:
            z = complex(float(real(node[0])), float(real(node[1])))
        else:
            z = complex(real(node))
        if not np.isfinite(z):
            raise ParseError(f"expected a finite number, got {node!r}")
        return z

    def walk(node, depth):
        if depth == len(shape):
            flat.append(number(node))
            return
        if not isinstance(node, (list, tuple)) or len(node) != shape[depth]:
            raise ParseError(f"expected a list of length {shape[depth]} at depth {depth}")
        for child in node:
            walk(child, depth + 1)

    walk(data, 0)
    return np.array(flat, dtype=complex).reshape(shape)


def nest(flat, shape):
    if not shape:
        return flat.pop(0)
    return [nest(flat, shape[1:]) for _ in range(shape[0])]


spec_numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-2**70, 2**70), st.booleans(), st.just(-0.0))


@given(shape=st.lists(st.integers(1, 3), max_size=3).map(tuple), pairs=st.booleans(),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_array_from_json_matches_the_walk_bit_for_bit(shape, pairs, data):
    size = int(np.prod(shape)) * (2 if pairs else 1)
    flat = data.draw(st.lists(spec_numbers, min_size=size, max_size=size))
    if pairs:
        flat = [flat[i:i + 2] for i in range(0, size, 2)]
    nested = nest(list(flat), shape)
    expected = parse_error_or(lambda: walk_array_from_json(nested, shape))
    got = parse_error_or(lambda: array_from_json(nested, shape))
    if isinstance(expected, str):  # a boolean: both reject it
        leaves = [v for item in flat for v in (item if pairs else [item])]
        assert isinstance(got, str) and any(isinstance(v, bool) for v in leaves)
    else:
        assert got.tobytes() == expected.tobytes()


def test_array_from_json_keeps_negative_zero():
    for data in ([[-0.0, -0.0], [1, 0]], [-0.0, 2]):
        got = array_from_json(data, (2,))
        assert got.tobytes() == walk_array_from_json(data, (2,)).tobytes()
        assert np.signbit(got[0].real)
    assert np.signbit(array_from_json([[-0.0, -0.0]], (1,))[0].imag)


@pytest.mark.parametrize("data", [
    [1, [0, 1]], [[1, 0], 2], ["1", 0], [[1, "0"], [0, 0]], [None, 1], [10**400, 1],
    [[1, 0, 0], [0, 1, 0]], [1, 2, 3], [], {"re": 1}, [True, False], [True, 1.5],
    [[1, 0], [0, True]], [True, 2**70], np.array([True, False]),
], ids=["real-then-pair", "pair-then-real", "string", "string-in-pair", "null", "overflow",
        "triples", "too-long", "empty", "object", "booleans", "boolean-and-float",
        "boolean-in-pair", "boolean-and-big-integer", "boolean-array"])
def test_array_from_json_rejects(data):
    with pytest.raises(ParseError):
        array_from_json(data, (2,))


def test_array_from_json_reads_empty_leading_axis():
    assert array_from_json([], (0, 3)).shape == (0, 3)


# ---------------------------------------------------------------------------
# mutated specs through the CLI
# ---------------------------------------------------------------------------

C2 = {"dim": 2, "labels": ["e1", "e2"], "norm": "ell1", "identity": [1, 1],
      "structure": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                    [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}
Z2_TABLE = [[0, 1], [1, 0]]
TAU = {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "conjugating": True}

# kind -> (valid spec, argv with SPEC for the mutated file); c2, z2 and tau are valid files
KINDS = {
    "algebra": (C2, ["check", "--algebra", "SPEC", "--map", "tau"]),
    "group": ({"group": {"order": 2, "table": Z2_TABLE}, "labels": ["e", "g"]},
              ["check", "--algebra", "SPEC", "--map", "tau"]),
    "map": (TAU, ["check", "--algebra", "c2", "--map", "SPEC"]),
    "element": ({"coords": [[2, 1], [5, 0]]},
                ["spectra", "--algebra", "c2", "--map", "tau", "--element", "SPEC"]),
    "inline element": ([[2, 1], [5, 0]], ["spectra", "--algebra", "c2", "--element", "INLINE"]),
    "params": ({"table": Z2_TABLE, "normal_subgroups": [[0], [0, 1]]},
               ["search", "--algebra", "z2", "--family", "group", "--params", "SPEC"]),
    "dual basis": ({"basis": [[1, 1], [1, -1]]},
                   ["arens", "--algebra", "z2", "--dual-basis", "SPEC"]),
}

REPLACEMENTS = {"null": None, "string": "x", "object": {}, "empty": [], "nan": float("nan"),
                "inf": float("inf"), "huge": 10**400, "big": 1e300, "true": True,
                "fraction": 1.5, "digit string": "1"}
OPS = (*REPLACEMENTS, "drop", "truncate", "extend", "mixed", "cut")

# mutations that may leave a spec valid, by the kind of spec and the keys on the path
# to the mutated node
LENIENT = {
    "element": {"big"},
    "inline element": {"big", "fraction"},
    "dual basis": {"big", "fraction"},
    "labels": set(OPS) - {"cut"},
    "identity": {"drop", "null"},
    "norm": {"drop"},
    "order": {"drop"},
    "conjugating": {"drop", "true"},
    "matrix": {"fraction"},  # a map's matrix and an element's coordinates hold any number
    "coords": {"fraction"},
    "normal_subgroups": {"drop", "truncate", "extend", "empty"},
}


def nodes(spec, path=()):
    """Every ``(path, node)`` of a JSON value, the root first."""
    yield path, spec
    if isinstance(spec, (dict, list)):
        for key, child in spec.items() if isinstance(spec, dict) else enumerate(spec):
            yield from nodes(child, path + (key,))


def is_number(node):
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def applies(op, path, node):
    if op == "cut":
        return path == ()
    if op == "drop":
        return bool(path) and isinstance(path[-1], str)
    if op in ("truncate", "extend"):
        return isinstance(node, list) and len(node) > 0
    if op == "mixed":  # a real where pairs are, or a pair where reals are
        return is_number(node) or (isinstance(node, list) and len(node) == 2
                                   and all(is_number(v) for v in node))
    return True


def mutate(spec, op, path):
    """The spec with the node at ``path`` mutated by ``op``; ``cut`` gives JSON text."""
    if op == "cut":
        text = json.dumps(spec)
        return text[: len(text) // 2]
    box = [json.loads(json.dumps(spec))]  # so that the root has a parent too
    path = (0,) + path
    parent = box
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if op == "drop":
        del parent[path[-1]]
    elif op == "truncate":
        node.pop()
    elif op == "extend":
        node.append(node[-1])
    elif op == "mixed":
        parent[path[-1]] = [node, 0] if is_number(node) else node[0]
    else:
        parent[path[-1]] = REPLACEMENTS[op]
    return box[0]


def must_reject(kind, op, path):
    keys = [kind] + [key for key in path if isinstance(key, str)]
    if any(op in LENIENT.get(key, ()) for key in keys):
        return False
    # rows of a dual basis may be dropped or repeated, and a bare list of rows is a basis too
    return not (kind == "dual basis" and path in ((), ("basis",))
                and op in ("truncate", "extend", "empty"))


def reject_constant(constant):
    raise ValueError(f"report holds {constant}")


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("specs")
    for name, spec in (("c2", C2), ("z2", KINDS["group"][0]), ("tau", TAU)):
        (directory / f"{name}.json").write_text(json.dumps(spec))
    return directory


def run_spec(directory, argv, text):
    """``main`` on ``argv`` with SPEC (or INLINE) standing for ``text``: (exit code, report)."""
    (directory / "spec.json").write_text(text)
    files = {name: str(directory / f"{name}.json") for name in ("c2", "z2", "tau")}
    files.update(SPEC=str(directory / "spec.json"), INLINE=text)
    out = directory / "report.json"
    code = main([files.get(arg, arg) for arg in argv] + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text(), parse_constant=reject_constant)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_mutated_spec_never_escapes_a_report(spec_dir, kind, data):
    spec, argv = KINDS[kind]
    op, path = data.draw(st.sampled_from([(op, p) for op in OPS for p, node in nodes(spec)
                                          if applies(op, p, node)]), label="mutation")
    mutated = mutate(spec, op, path)
    code, report = run_spec(spec_dir, argv, mutated if op == "cut" else json.dumps(mutated))
    assert code in (0, 1, 2)
    if code == 2:
        assert report["error"]
    if code == 1:
        assert report["law"]
    if must_reject(kind, op, path):
        assert code == 2, (op, path, report)


C1 = {"dim": 1, "structure": [[[1]]]}
REJECTED_ALGEBRAS = {
    "zero algebra": {"dim": 0, "structure": []},
    "negative dim": {"dim": -1, "structure": []},
    "dim true": {**C1, "dim": True},
    "dim 1.0": {**C1, "dim": 1.0},
    "dim 1.5": {**C1, "dim": 1.5},
    "dim string": {**C1, "dim": "1"},
    "order 2.7": {"group": {"order": 2.7, "table": Z2_TABLE}},
    "order 2.0": {"group": {"order": 2.0, "table": Z2_TABLE}},
    "order string": {"group": {"order": "2", "table": Z2_TABLE}},
    "true in table": {"group": {"table": [[0, True], [True, 0]]}},
    "true in structure": {"dim": 1, "structure": [[[True]]]},
    "true in a pair": {"dim": 1, "structure": [[[[1, False]]]]},
    "true in identity": {**C1, "identity": [True]},
}


@pytest.mark.parametrize("command", ["check", "arens", "tim"])
@pytest.mark.parametrize("spec", REJECTED_ALGEBRAS.values(), ids=REJECTED_ALGEBRAS)
def test_coerced_or_empty_algebra_is_rejected(spec_dir, spec, command):
    argv = [command, "--algebra", "SPEC"] + (["--map", "tau"] if command == "check" else [])
    code, report = run_spec(spec_dir, argv, json.dumps(spec))
    assert code == 2 and report["error"] == "ParseError", report


@pytest.mark.parametrize("matrix", [[[True, 0], [0, 0]], [[[1, 0], [0, 0]], [[0, 0], [0, True]]]],
                         ids=["reals", "pairs"])
def test_true_in_a_matrix_is_rejected(spec_dir, matrix):
    code, report = run_spec(spec_dir, ["check", "--algebra", "c2", "--map", "SPEC"],
                            json.dumps({"matrix": matrix, "conjugating": True}))
    assert code == 2 and report["error"] == "ParseError", report


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_spec_passes(spec_dir, kind):
    spec, argv = KINDS[kind]
    code, report = run_spec(spec_dir, argv, json.dumps(spec))
    assert code == 0, report


# ---------------------------------------------------------------------------
# the flat reader against ``read_json`` and the nested lists it decodes
# ---------------------------------------------------------------------------

NUMBER_TEXTS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "0", "-0.0", "1e5", "1E400", "-1E400", "2.5E-3", "1.0",
                     str(2**64 + 1), str(-2**65)]))
# the texts of 0 and 1 that a valid algebra, C^n, may be written with
ZERO_TEXTS = st.sampled_from(["0", "-0", "0.0", "-0.0", "0e3"])
ONE_TEXTS = st.sampled_from(["1", "1.0", "1e0", "10E-1", "0.1e1"])
# mostly ``0.0``, which skips ``json``, next to the zeros and near-zeros that do not
ZERO_HEAVY_TEXTS = st.one_of(st.just("0.0"), st.just("0.0"), st.sampled_from(
    ["-0.0", "0", "0.00", "0e0", "00.0", "0 .0", "0.0\n", "\t0.0"]), NUMBER_TEXTS)
SPACES = st.text(" \t\n\r", max_size=2)
BAD_ARRAYS = ["[1[,2]]", "[1 2]", "[[1, 2], [3]]", "[[1], [2, 3]]", "[]", "[[]]", "[[]1]",
              "[1[]]", "[[1,2][3,4]]", "[[1,2],[3,4]]]", "[1,]", "[,1]", "[1,,2]", "[01]",
              "[+1]", "[1.]", "[.5]", "[1e]", "[--1]", "[NaN, 1]", "[Infinity, -Infinity]",
              "[1, [0, 1]]", "[true, 1]", "[\f1]", "[1\u00a0]", "[\"1\"]"]
MUTATIONS = ("none", "none", "none", "drop comma", "extra comma", "drop bracket",
             "extra bracket", "bad array", "truncate", "trailing", "odd space", "non-finite",
             "duplicate key", "nested key")
NUMBER = re.compile(r"-?[0-9][-+.0-9eE]*")


def array_text(draw, numbers, shape):
    """A nested JSON array of number texts, with drawn whitespace around each item."""
    items = iter(numbers)

    def node(depth):
        if depth == len(shape):
            return next(items)
        return "[" + ",".join(draw(SPACES) + node(depth + 1) + draw(SPACES)
                              for _ in range(shape[depth])) + "]"
    return node(0)


@st.composite
def spec_texts(draw):
    """(kind, dim, text): an algebra or map spec, written freely, then maybe mutated."""
    kind, n = draw(st.sampled_from(["algebra", "map"])), draw(st.integers(1, 3))
    pairs = (2,) if draw(st.booleans()) else ()
    shape = ((n, n, n) if kind == "algebra" else (n, n)) + pairs
    size = int(np.prod(shape))
    if kind == "algebra" and draw(st.booleans()):  # C^n: e_i e_i = e_i
        values = np.zeros((n, n, n) + pairs)
        values[(range(n), range(n), range(n)) + ((0,) if pairs else ())] = 1
        numbers = [draw(ONE_TEXTS if v else ZERO_TEXTS) for v in values.ravel()]
    else:
        texts = draw(st.sampled_from([NUMBER_TEXTS, ZERO_HEAVY_TEXTS]))
        numbers = draw(st.lists(texts, min_size=size, max_size=size))
    array = array_text(draw, numbers, shape)
    if kind == "algebra":
        members = [("dim", str(n)), ("structure", array)]
        if draw(st.booleans()):
            members.append(("identity", array_text(draw, ["1"] * n, (n,))))
        members += [("labels", json.dumps([f"e{i}" for i in range(n)])), ("norm", '"ell1"')]
    else:
        members = [("matrix", array), ("conjugating", draw(st.sampled_from(["true", "false"])))]
    members = draw(st.permutations(members))

    op = draw(st.sampled_from(MUTATIONS), label="mutation")
    if op == "bad array":
        name = "structure" if kind == "algebra" else "matrix"
        members = [(k, draw(st.sampled_from(BAD_ARRAYS)) if k == name else v)
                   for k, v in members]
    elif op == "duplicate key":
        name = "structure" if kind == "algebra" else "matrix"
        other = array_text(draw, draw(st.lists(NUMBER_TEXTS, min_size=size, max_size=size)),
                           shape)
        members.insert(draw(st.integers(0, len(members))), (name, other))
    elif op == "nested key":
        members.insert(draw(st.integers(0, len(members))),
                       ("meta", '{"structure": [1, 2], "matrix": [[0]]}'))
    text = (draw(SPACES) + "{" + ",".join(draw(SPACES) + json.dumps(k) + draw(SPACES) + ":"
                                          + draw(SPACES) + v + draw(SPACES)
                                          for k, v in members)
            + "}" + draw(SPACES))

    edits = {"drop comma": (",", lambda match: ""),
             "extra comma": ("[,\\]]", lambda match: "," + match.group()),
             "drop bracket": ("[][{}]", lambda match: ""),
             "extra bracket": ("[][{}]", lambda match: match.group() * 2),
             "non-finite": (NUMBER, lambda match: draw(st.sampled_from(
                 ["NaN", "Infinity", "-Infinity"])))}
    if op in edits:
        pattern, edit = edits[op]
        found = list(re.finditer(pattern, text))
        if found:
            match = draw(st.sampled_from(found))
            text = text[:match.start()] + edit(match) + text[match.end():]
    elif op == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif op == "trailing":
        text += draw(st.sampled_from(["}", "]", ",", "0", "{}", "x"]))
    elif op == "odd space":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.sampled_from(["\f", "\u00a0"])) + text[cut:]
    return kind, n, text


def parse_error_or(read):
    """``read()``'s value, or the message of the ``ParseError`` it raises."""
    try:
        return read()
    except ParseError as exc:
        return f"ParseError: {exc}"


def array_or_error(data, shape):
    got = parse_error_or(lambda: array_from_json(data, shape))
    return got if isinstance(got, str) else got.tobytes()


def outcome(read):
    """What a spec reads as: its arrays' bits and flags, or the ParseError message."""
    got = parse_error_or(read)
    if isinstance(got, str):
        return got
    if hasattr(got, "matrix"):
        return got.matrix.tobytes(), got.conjugating, got.source.dim
    identity = None if got.identity_coords is None else got.identity_coords.tobytes()
    return got.structure.tobytes(), identity, got.basis_labels


def reference_members(kind, path):
    """The reader before flat arrays: what ``read_json`` decodes, or the message."""
    data = parse_error_or(lambda: read_json(path))
    if isinstance(data, (str, dict)):
        return data
    return f"ParseError: malformed {kind} spec: expected an object, got {type(data).__name__}"


def reference_outcome(kind, n, path):
    """What the reader before flat arrays made of the spec: nested lists everywhere."""
    data = reference_members(kind, path)
    if isinstance(data, str):
        return data
    if kind == "algebra":
        return outcome(lambda: load_algebra(data))
    return outcome(lambda: load_map(data, function_algebra(n), base_dir=path.parent))


ARRAY_SHAPES = {"algebra": {"structure": "nnn", "identity": "n"}, "map": {"matrix": "nn"}}


@given(spec=spec_texts())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_flat_reader_matches_the_json_reader(spec_dir, spec):
    kind, n, text = spec
    with np.errstate(over="ignore", invalid="ignore"):  # as in ``cli.main``
        check_against_json_reader(spec_dir / "differential.json", kind, n, text)


def check_against_json_reader(path, kind, n, text):
    path.write_text(text, encoding="utf-8")
    shapes = ARRAY_SHAPES[kind]
    # the members: the same keys, and arrays that read to the same bits or the same error
    members = parse_error_or(lambda: _spec_object(path, kind, tuple(shapes)))
    expected = reference_members(kind, path)
    if isinstance(members, str) or isinstance(expected, str):
        assert members == expected
    else:
        assert list(members) == list(expected)
        for key in members:
            if key in shapes:
                shape = (n,) * len(shapes[key])
                assert array_or_error(members[key], shape) == array_or_error(expected[key],
                                                                             shape)
            else:
                assert repr(members[key]) == repr(expected[key])
    # the whole spec: the same algebra or map, or the same message
    if kind == "algebra":
        got = outcome(lambda: load_algebra(path))
    else:
        got = outcome(lambda: load_map(path, function_algebra(n)))
    assert got == reference_outcome(kind, n, path)


@pytest.mark.parametrize("array", BAD_ARRAYS + ["[[1, 0], [0, 1]]", "[\n[ 1 ,0 ] ,[0,1]\r]"])
def test_flat_reader_on_hand_written_arrays(spec_dir, array):
    path = spec_dir / "bad.json"
    path.write_text('{"matrix": %s, "conjugating": true}' % array, encoding="utf-8")
    c2 = function_algebra(2)
    assert outcome(lambda: load_map(path, c2)) == reference_outcome("map", 2, path)


ZERO_ARRAYS = {
    "lone zero": (1, "[[0.0]]"),
    "lone zero pair": (1, "[[[0.0, 0.0]]]"),
    "all zeros": (2, "[[0.0, 0.0], [0.0, 0.0]]"),
    "all zero pairs": (2, "[[[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]"),
    "signed and integer zeros": (2, "[[0.0, -0.0], [0, 0.00]]"),
    "zero exponent": (2, "[[0e0, 0.0], [0.0, -0]]"),
    "leading zero": (2, "[[00.0, 0.0], [0.0, 0.0]]"),
    "split zero": (2, "[[0 .0, 0.0], [0.0, 0.0]]"),
    "whitespace around zeros": (2, "[[0.0\n, \t0.0], [ 0.0\r\n,0.0 ]]"),
    "zeros and integers": (2, "[[0.0, 1], [-2, 3]]"),
    "zeros and an overflow": (2, "[[0.0, 1E400], [0, 0]]"),
    "zeros and a big integer": (2, "[[0.0, 18446744073709551617], [0, 0]]"),
    "empty token": (2, "[[0.0, ], [0.0, 0.0]]"),
}


@pytest.mark.parametrize("n, array", ZERO_ARRAYS.values(), ids=ZERO_ARRAYS)
def test_flat_reader_on_zero_tokens(spec_dir, n, array):
    # the array that np.asarray makes of what json decodes, its dtype included
    try:
        expected = np.asarray(json.loads(array))
    except ValueError:
        assert _flat_array(array, 0) is None
    else:
        got, _ = _flat_array(array, 0)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        assert expected.dtype == object or got.tobytes() == expected.tobytes()
    text = '{"matrix": %s, "conjugating": true}' % array
    with np.errstate(over="ignore", invalid="ignore"):
        check_against_json_reader(spec_dir / "zeros.json", "map", n, text)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_zero_skipping_finds_a_lone_number(where):
    # one non-zero among 10^5 0.0 tokens; the last one ends just before "]]"
    tokens = ["0.0"] * 10**5
    index = {"first": 0, "middle": len(tokens) // 2, "last": len(tokens) - 1}[where]
    tokens[index] = "3"
    text = "[[" + ", ".join(tokens) + "]]"
    decoded, end = _flat_array(text, 0)
    expected = np.asarray(json.loads(text))
    assert end == len(text)
    assert decoded.dtype == expected.dtype and decoded.tobytes() == expected.tobytes()
    assert np.flatnonzero(decoded).tolist() == [index]


def test_flat_reader_decodes_regular_arrays_without_lists(spec_dir):
    path = spec_dir / "flat.json"
    path.write_text('{"labels": [[1]], "matrix": [[[1, -0.0], [0, 0]], [[0, 0], [1E400, 0]]], '
                    '"meta": {"matrix": [1]}, "rows": [1, 2]}')
    data = _spec_object(path, "map", ("matrix",))
    assert isinstance(data["matrix"], np.ndarray) and data["matrix"].shape == (2, 2, 2)
    assert np.signbit(data["matrix"][0, 0, 1]) and data["matrix"][1, 1, 0] == np.inf
    # only the named top-level members: labels may be numbers, and are read as json reads them
    assert data["labels"] == [[1]] and data["meta"] == {"matrix": [1]} and data["rows"] == [1, 2]


def test_flat_reader_builds_no_skeleton_longer_than_the_text(spec_dir):
    # the first row, plane and block claim 300^3 numbers: a 27 MB skeleton for 3 kB of text
    row = "[" + ",".join(["0"] * 300) + "]"
    path = spec_dir / "ragged.json"
    path.write_text('{"matrix": [[%s%s]%s]}' % (row, ",[0]" * 299, ",[[0]]" * 299))
    tracemalloc.start()
    try:
        data = _spec_object(path, "map", ("matrix",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(data["matrix"], list) and peak < 2**20


def test_reading_a_large_structure_tensor_stays_small(tmp_path):
    # json.load builds 266k lists and 524k floats for C[Z64]: 56 MiB at the peak
    path = tmp_path / "z64.json"
    path.write_text(json.dumps(algebra_to_json(group_algebra(cyclic_group_table(64)))))
    tracemalloc.start()
    try:
        algebra = load_algebra(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra.dim == 64 and algebra.is_unital()
    assert peak < 40 * 2**20
