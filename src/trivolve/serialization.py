"""JSON file formats and deterministic report encoding.

Complex numbers are always ``[re, im]`` pairs.  A list or tuple of numbers
with at least one complex entry is a complex vector and is written wholly as
pairs, real entries included, exactly as the same values in a complex
``ndarray`` would be; lists without a complex entry are written as they are.
Algebra files carry the structure tensor (or a group table); map files carry
the matrix and the conjugation flag.  Reports are emitted with sorted keys so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import cmath
import json
from pathlib import Path

import numpy as np

from .algebra import NORM_ELL1, NORM_OPNORM, Algebra, Element, group_algebra, make_algebra
from .errors import CertificationFailure, ParseError
from .starmap import AlgMap, make_map

_NORM_TAGS = {"ell1": NORM_ELL1, "opnorm": NORM_OPNORM}


def pair_to_complex(pair) -> complex:
    """A spec number: a real or an ``[re, im]`` pair, finite in both parts."""
    if isinstance(pair, (int, float)):
        z = complex(pair)
    elif isinstance(pair, (list, tuple)) and len(pair) == 2:
        z = complex(float(pair[0]), float(pair[1]))
    else:
        raise ParseError(f"expected [re, im] pair, got {pair!r}")
    if not cmath.isfinite(z):
        raise ParseError(f"expected a finite number, got {pair!r}")
    return z


def complex_to_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def array_from_json(data, shape: tuple[int, ...]) -> np.ndarray:
    flat: list[complex] = []

    def walk(node, depth):
        if depth == len(shape):
            flat.append(pair_to_complex(node))
            return
        if not isinstance(node, (list, tuple)) or len(node) != shape[depth]:
            raise ParseError(f"expected a list of length {shape[depth]} at depth {depth}")
        for child in node:
            walk(child, depth + 1)

    walk(data, 0)
    return np.array(flat, dtype=complex).reshape(shape)


def array_to_json(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        return complex_to_pair(arr[()])
    return [array_to_json(sub) for sub in arr]


def _is_complex_vector(items) -> bool:
    """True for a non-empty sequence of numbers (bools excluded) with a complex entry."""
    has_complex = False
    for v in items:
        if isinstance(v, bool) or not isinstance(v, (int, float, complex, np.number)):
            return False
        has_complex = has_complex or isinstance(v, (complex, np.complexfloating))
    return has_complex


def jsonable(value):
    """Recursively convert numpy/complex values into JSON-safe structures.

    A list or tuple of numbers holding any complex entry is a complex vector:
    every entry becomes an ``[re, im]`` pair, so ``jsonable(list(v))`` equals
    ``jsonable(np.array(v))``.  Any other list is converted item by item;
    nested lists are not treated as complex arrays.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _is_complex_vector(value):
            return [complex_to_pair(v) for v in value]
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return array_to_json(value)
        return value.tolist()
    if isinstance(value, complex):
        return complex_to_pair(value)
    if isinstance(value, (np.complexfloating,)):
        return complex_to_pair(complex(value))
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def dumps_report(report: dict) -> str:
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def read_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def load_algebra(source: str | Path | dict) -> Algebra:
    """Load an algebra spec file (structure tensor or group table)."""
    data = source if isinstance(source, dict) else read_json(source)
    try:
        if "group" in data:
            group = data["group"]
            table = np.asarray(group["table"], dtype=int)
            if "order" in group and int(group["order"]) != table.shape[0]:
                raise ParseError("declared group order does not match the table")
            return group_algebra(table, data.get("labels"))
        dim = int(data["dim"])
        structure = array_from_json(data["structure"], (dim, dim, dim))
        labels = data.get("labels")
        identity = None
        if data.get("identity") is not None:
            identity = array_from_json(data["identity"], (dim,))
        norm_tag = data.get("norm", "ell1")
        if norm_tag not in _NORM_TAGS:
            raise ParseError(f"unknown norm tag {norm_tag!r}")
        return make_algebra(dim, structure, labels, declared_identity=identity,
                            norm_kind=_NORM_TAGS[norm_tag])
    except ParseError:
        raise
    except CertificationFailure as exc:
        raise ParseError(f"algebra file failed validation: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra spec: {exc}") from exc


def algebra_to_json(algebra: Algebra) -> dict:
    out = {
        "dim": algebra.dim,
        "labels": list(algebra.basis_labels),
        "structure": array_to_json(algebra.structure),
        "norm": "ell1" if algebra.norm_kind == NORM_ELL1 else "opnorm",
    }
    if algebra.identity_coords is not None:
        out["identity"] = array_to_json(algebra.identity_coords)
    return out


def load_map(source: str | Path | dict, default_source: Algebra,
             default_target: Algebra | None = None,
             base_dir: str | Path | None = None) -> AlgMap:
    """Load a map spec; ``source``/``target`` entries may name algebra files.

    A named file must exist and parse; the defaults apply only when the
    entry is absent.
    """
    data = source if isinstance(source, dict) else read_json(source)
    if not isinstance(data, dict):
        raise ParseError(f"malformed map spec: expected an object, got {type(data).__name__}")
    if base_dir is None and not isinstance(source, dict):
        base_dir = Path(source).parent

    def resolve(tag, fallback):
        name = data.get(tag)
        if isinstance(name, str):
            candidate = Path(name)
            if base_dir is not None and not candidate.is_absolute():
                candidate = Path(base_dir) / candidate
            return load_algebra(candidate)  # a missing file is a ParseError, not a fallback
        return fallback

    src = resolve("source", default_source)
    tgt = resolve("target", default_target or src)
    try:
        matrix_rows = data["matrix"]
        matrix = array_from_json(matrix_rows, (tgt.dim, src.dim))
        conjugating = bool(data.get("conjugating", False))
        return make_map(matrix, conjugating=conjugating, source=src, target=tgt)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed map spec: {exc}") from exc


def map_to_json(f: AlgMap) -> dict:
    return {"matrix": array_to_json(f.matrix), "conjugating": f.conjugating}


def load_element(source, algebra: Algebra) -> Element:
    """Element coordinates from a file path, inline JSON text, or a list."""
    data = source
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            data = read_json(path)
        else:
            try:
                data = json.loads(str(source))
            except json.JSONDecodeError as exc:
                raise ParseError(f"element is neither a file nor inline JSON: {source!r}") from exc
    if isinstance(data, dict):
        data = data.get("coords", data)
    try:
        coords = array_from_json(data, (algebra.dim,))
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed element coordinates: {exc}") from exc
    return algebra.element(coords)
