"""Spec file writers for the tests: the inverses of ``load_algebra`` and ``load_map``."""

from trivolve.algebra import NORM_ELL1, Algebra
from trivolve.serialization import array_to_json
from trivolve.starmap import AlgMap


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


def map_to_json(f: AlgMap) -> dict:
    return {"matrix": array_to_json(f.matrix), "conjugating": f.conjugating}
