"""Helpers for the tests: spec file writers (the inverses of ``load_algebra``
and ``load_map``), the reference report encoding and the sample commands."""

import math
from pathlib import Path

import numpy as np

from trivolve.algebra import Algebra
from trivolve.errors import UsageError
from trivolve.starmap import AlgMap


def array_to_json(arr) -> list:
    """An array as spec files hold it: ``[re, im]`` pairs in the array's shape."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def algebra_to_json(algebra: Algebra) -> dict:
    out = {
        "dim": algebra.dim,
        "labels": list(algebra.basis_labels),
        "structure": array_to_json(algebra.structure),
        "norm": "ell1",
    }
    if algebra.identity_coords is not None:
        out["identity"] = array_to_json(algebra.identity_coords)
    return out


def map_to_json(f: AlgMap) -> dict:
    return {"matrix": array_to_json(f.matrix), "conjugating": f.conjugating}


def _finite(x: float) -> float:
    if not math.isfinite(x):
        raise UsageError(f"the inputs overflow float64: the report would hold {x}")
    return x


def _pair(z) -> list[float]:
    z = complex(z)
    return [_finite(z.real), _finite(z.imag)]


def jsonable(value):
    """The reference encoding: a report as the plain values ``json`` writes.

    ``json.dumps(jsonable(r), sort_keys=True, indent=2) + "\\n"`` is the text
    ``dumps_report(r)`` must write.  A list or tuple of numbers (bools
    excluded) holding a complex entry is a complex vector: every entry
    becomes an ``[re, im]`` pair, as in a complex ``ndarray``.  Any other
    list is converted item by item.  A non-finite number raises the
    ``UsageError`` of ``dumps_report``, after a walk in insertion order.
    """
    if isinstance(value, (float, np.floating)):
        return _finite(float(value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        numbers = all(isinstance(v, (int, float, complex, np.number)) and not isinstance(v, bool)
                      for v in value)
        if value and numbers and any(isinstance(v, (complex, np.complexfloating)) for v in value):
            return [_pair(v) for v in value]
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(array_to_json(value) if np.iscomplexobj(value) else value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return _pair(value)
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


SAMPLE_SPECS = Path(__file__).resolve().parent.parent / "sample_specs"
_C2, _TAU, _Z2, _X_Z2, _X_ZERO = (str(SAMPLE_SPECS / name) for name in (
    "c2.json", "tau.json", "z2.json", "x_z2.json", "x_zero.json"))
SAMPLE_COMMANDS = {
    "check": ["check", "--algebra", _C2, "--map", _TAU],
    "check z2": ["check", "--algebra", _Z2, "--map", _TAU],
    "decompose": ["decompose", "--algebra", _C2, "--map", _TAU],
    "factor": ["factor", "--algebra", _C2, "--map", _TAU],
    "hom": ["hom", "--algebra", _C2, "--map", _TAU, "--map3", _TAU],
    "extend": ["extend", "--algebra", _C2, "--map", _TAU],
    "spectra": ["spectra", "--algebra", _C2, "--element", "[[2, 1], [5, 0]]", "--map", _TAU],
    "arens": ["arens", "--algebra", _Z2],
    "tim": ["tim", "--algebra", _Z2],
    # X = the trivial character's line, a proper dual subspace: X* = A / (augmentation ideal)
    "arens subspace": ["arens", "--algebra", _Z2, "--dual-basis", _X_Z2],
    "tim subspace": ["tim", "--algebra", _Z2, "--dual-basis", _X_Z2],
    # X = 0: X^perp is all of A and X* the zero algebra
    "arens zero": ["arens", "--algebra", _Z2, "--dual-basis", _X_ZERO],
    "tim zero": ["tim", "--algebra", _Z2, "--dual-basis", _X_ZERO],
    "search": ["search", "--algebra", _C2, "--family", "function"],
    "suite": ["suite", "--seed", "0"],
}
