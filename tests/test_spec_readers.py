"""Spec readers: the vectorised array rule and mutated specs of every file kind."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve.cli import main
from trivolve.errors import ParseError
from trivolve.serialization import array_from_json


def walk_array_from_json(data, shape):
    """The per-entry reader that ``array_from_json`` replaced, kept as a reference."""
    flat = []

    def number(node):
        if isinstance(node, (int, float)):
            z = complex(node)
        elif isinstance(node, (list, tuple)) and len(node) == 2:
            z = complex(float(node[0]), float(node[1]))
        else:
            raise ParseError(f"expected [re, im] pair, got {node!r}")
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
    assert array_from_json(nested, shape).tobytes() == walk_array_from_json(nested, shape).tobytes()


def test_array_from_json_keeps_negative_zero():
    for data in ([[-0.0, -0.0], [1, 0]], [-0.0, 2]):
        got = array_from_json(data, (2,))
        assert got.tobytes() == walk_array_from_json(data, (2,)).tobytes()
        assert np.signbit(got[0].real)
    assert np.signbit(array_from_json([[-0.0, -0.0]], (1,))[0].imag)


@pytest.mark.parametrize("data", [
    [1, [0, 1]], [[1, 0], 2], ["1", 0], [[1, "0"], [0, 0]], [None, 1], [10**400, 1],
    [[1, 0, 0], [0, 1, 0]], [1, 2, 3], [], {"re": 1},
], ids=["real-then-pair", "pair-then-real", "string", "string-in-pair", "null", "overflow",
        "triples", "too-long", "empty", "object"])
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
                "inf": float("inf"), "huge": 10**400, "big": 1e300}
OPS = (*REPLACEMENTS, "drop", "truncate", "extend", "mixed", "cut")

# mutations that may leave a spec valid, by the kind of spec and the keys on the path
# to the mutated node
LENIENT = {
    "element": {"big"},
    "inline element": {"big"},
    "dual basis": {"big"},
    "labels": set(OPS) - {"cut"},
    "identity": {"drop", "null"},
    "norm": {"drop"},
    "order": {"drop"},
    "conjugating": {"drop"},
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


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_spec_passes(spec_dir, kind):
    spec, argv = KINDS[kind]
    code, report = run_spec(spec_dir, argv, json.dumps(spec))
    assert code == 0, report
