"""Checks one CLI report against the facts its op was built from.

``check_report`` returns a list of problems; an empty list means the op
is correct.  Every expected value comes from ``workloads`` (the
construction), and the comparisons are plain numpy.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-8
SPECTRUM_TOL = 1e-6


def cplx(data, shape: tuple[int, ...]) -> np.ndarray:
    """Nested ``[re, im]`` pairs as a complex array of the given shape."""
    arr = np.asarray(data, dtype=float)
    if int(np.prod(shape)) == 0:
        return np.zeros(shape, dtype=complex)
    if arr.shape != shape + (2,):
        raise ValueError(f"expected shape {shape + (2,)}, got {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _close(problems: list, name: str, got, want, tol: float = TOL) -> None:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        problems.append(f"{name}: shape {got.shape} != {want.shape}")
    elif got.size and float(np.max(np.abs(got - want))) > tol:
        problems.append(f"{name}: off by {float(np.max(np.abs(got - want))):.3e}")


def _equal(problems: list, name: str, got, want) -> None:
    if got != want:
        problems.append(f"{name}: {got!r} != {want!r}")


def _matches_multiset(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    if got.shape != want.shape:
        return False
    remaining = list(got)
    for value in want:
        k = int(np.argmin([abs(value - r) for r in remaining]))
        if abs(value - remaining[k]) > tol:
            return False
        remaining.pop(k)
    return True


def _map(problems: list, name: str, report_map, shape, want, conjugating: bool) -> None:
    if report_map.get("conjugating") != conjugating:
        problems.append(f"{name}: conjugating flag {report_map.get('conjugating')!r}")
    _close(problems, name, cplx(report_map["matrix"], shape), want)


def _check(r: dict, e: dict, problems: list) -> None:
    _equal(problems, "classification", r["classification"], e["kind"])
    _equal(problems, "algebra_dim", r["algebra_dim"], e["dim"])
    for flag in ("is_conjugate_linear", "is_anti_hom", "cubes_to_self"):
        _equal(problems, flag, r[flag], True)
    _equal(problems, "is_injective", r["is_injective"], e["kind"] == "involution")
    _close(problems, "norm_of_map", r["norm_of_map"], e["norm"])


def _decompose(r: dict, e: dict, problems: list) -> None:
    n, dim_b = e["dim"], e["dim_b"]
    dim_i = n - dim_b
    tau = e["tau"]
    d = r["decomposition"]
    _equal(problems, "classification", r["classification"], e["kind"])
    i_cols = cplx(d["I_basis"], (n, dim_i))
    b_cols = cplx(d["B_basis"], (n, dim_b))
    p = tau @ np.conj(tau)
    _close(problems, "p", cplx(d["p"], (n, n)), p)
    _close(problems, "tau(I)", tau @ np.conj(i_cols), np.zeros((n, dim_i)))
    _close(problems, "p(B) = B", p @ b_cols, b_cols)
    if np.linalg.matrix_rank(np.hstack([i_cols, b_cols])) != n:
        problems.append("I and B do not span the algebra")
    rho = cplx(d["rho"], (dim_b, dim_b))
    _close(problems, "rho^2", rho @ np.conj(rho), np.eye(dim_b))


def _factor(r: dict, e: dict, problems: list) -> None:
    n, tau, j = e["dim"], e["tau"], e["j"]
    p = tau @ np.conj(tau)
    zero = np.zeros((n, n))
    _equal(problems, "c_dim", r["c_dim"], 2 * n)
    _map(problems, "lambda", r["lambda"], (2 * n, n), np.vstack([p, zero]), False)
    _map(problems, "mu", r["mu"], (n, 2 * n), np.hstack([p, zero]), False)
    j_pr1 = j @ np.conj(np.eye(n) - p)
    _map(problems, "sigma", r["sigma"], (2 * n, 2 * n),
         np.block([[tau, j_pr1], [j_pr1, tau]]), True)


def _hom(r: dict, e: dict, problems: list) -> None:
    dim_i, dim_b = e["dim_i"], e["dim_b"]
    pi11 = np.zeros((dim_i, dim_i)) if e["pi_is_p"] else np.eye(dim_i)
    _map(problems, "pi11", r["pi11"], (dim_i, dim_i), pi11, False)
    _map(problems, "pi22", r["pi22"], (dim_b, dim_b), np.eye(dim_b), False)


def _extend(r: dict, e: dict, problems: list) -> None:
    families = [x["family"] for x in r["extensions"]]
    _equal(problems, "count", r["count"], e["type_I"] + e["type_II"])
    _equal(problems, "type_I", families.count("type_I"), e["type_I"])
    _equal(problems, "type_II", families.count("type_II"), e["type_II"])
    if any(x["best_effort"] for x in r["extensions"]):
        problems.append("an extension is flagged best_effort")


def _spectra(r: dict, e: dict, problems: list) -> None:
    want = np.asarray(e["spectrum"], dtype=complex)
    got = cplx(r["spectrum"], (len(r["spectrum"]),))
    if not _matches_multiset(got, want, SPECTRUM_TOL):
        problems.append("spectrum differs from the construction")
    _equal(problems, "computed_in", r["computed_in"], "algebra")
    if e["inclusion"]:
        _equal(problems, "inclusion.included", r["inclusion"]["included"], True)


def _arens(r: dict, e: dict, problems: list) -> None:
    c = e["structure"]
    n = c.shape[0]
    _equal(problems, "x_dim", r["x_dim"], n)
    for flag, value in r["flags"].items():
        _equal(problems, flag, value, True)
    # on the full dual both Arens products are the product of A itself
    _close(problems, "box", cplx(r["box"], c.shape), c)
    _close(problems, "diamond", cplx(r["diamond"], c.shape), c)
    _equal(problems, "regular", r["regular"], True)
    if e["theta"] is not None:
        _map(problems, "extension", r["extension"], (n, n), e["theta"], True)


def _tim(r: dict, e: dict, problems: list) -> None:
    chars = e["characters"]
    n = len(chars[0][0])
    _equal(problems, "characters", r["characters"], len(chars))
    _equal(problems, "possibly_incomplete", r["possibly_incomplete"], False)
    unmatched = list(chars)
    for entry in r["means"]:
        phi = cplx(entry["character"], (n,))
        k = int(np.argmin([np.max(np.abs(phi - c)) for c, _ in unmatched]))
        want_phi, want_mean = unmatched.pop(k)
        _close(problems, "character", phi, want_phi, 1e-6)
        _equal(problems, "affine_dim", entry["affine_dim"], 0)
        if entry["particular"] is None:
            problems.append("no invariant mean")
        else:
            _close(problems, "invariant mean", cplx(entry["particular"], (n,)), want_mean, 1e-6)
        if e["obstruction"]:
            ob = entry["obstruction"]
            _equal(problems, "obstruction", (ob["unique"], ob["vacuous"]), (True, False))


def _search(r: dict, e: dict, problems: list) -> None:
    _equal(problems, "count", r["count"], e["count"])


def _suite(r: dict, e: dict, problems: list) -> None:
    _equal(problems, "passed", r["passed"], True)
    failed = [s["name"] for s in r["sections"] if not s["passed"]]
    if failed:
        problems.append(f"failed sections {failed}")


_CHECKS = {"check": _check, "decompose": _decompose, "factor": _factor, "hom": _hom,
           "extend": _extend, "spectra": _spectra, "arens": _arens, "tim": _tim,
           "search": _search, "suite": _suite}


def check_report(op, code: int, text: str) -> list[str]:
    """Problems with one op's exit code and report text; empty when correct."""
    e = op.expect
    if code != e["exit"]:
        return [f"exit code {code}, expected {e['exit']}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    if code != 0:
        return [] if "error" in report else ["error report without an error field"]
    problems: list[str] = []
    try:
        _CHECKS[op.command](report, e, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
