"""Batch command-line surface.

Exit codes separate mathematical failures from usage failures so CI can
tell a law regression from a bad input: 0 means every certification
passed, 1 means a mathematical certification failed (the report's
``error`` is ``CertificationFailure``, with the violated ``law`` and its
``residual``), 2 means the inputs did not parse, or overflowed float64
so that the report would hold a non-finite number, or the report could
not be written to ``--out``.

Reports are deterministic: identical inputs and seed produce
byte-identical JSON.  ``--format text``, the default, is rendered from
the values that JSON holds, so both formats show the same numbers.  A
``--seed`` must be non-negative.  Every law is decided at ``linalg.EPS``
and every rank at ``linalg.EPS_RANK``; no flag sets either.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algebra import Algebra
from .duality import (
    arens_products,
    check_introverted,
    extend_involution,
    find_characters,
    full_dual,
    search_trivolutions,
    tim_obstruction_check,
    tim_set,
    verify_character,
)
from .errors import CertificationFailure, UsageError
from .linalg import EPS, as_complex
from .serialization import (
    dumps_report,
    load_algebra,
    load_dual_basis,
    load_element,
    load_group_params,
    load_map,
    plain,
)
from .spectra import spectrum, verify_spectral_inclusion
from .starmap import AlgMap, conjugation_map, map_norm
from .suite import run_suite
from .trivolution import canonical_decomposition, classify_star_map, factor_through_involution, check_trivolutive_hom
from .unitization import find_type1_solutions


def _map_record(f: AlgMap) -> dict:
    """A map in a report; its matrix is written as ``[re, im]`` pairs."""
    return {"matrix": as_complex(f.matrix), "conjugating": f.conjugating}


def _need(args: argparse.Namespace, attr: str) -> str:
    value = getattr(args, attr)
    if value is None:
        raise UsageError(f"command {args.command!r} requires --{attr.replace('_', '-')}")
    return value


def _load_pair(args: argparse.Namespace):
    algebra = load_algebra(_need(args, "algebra"))
    tau = load_map(_need(args, "map"), default_source=algebra)
    return algebra, tau


def _load_space(args: argparse.Namespace, algebra: Algebra):
    if args.dual_basis is None:
        return full_dual(algebra)
    basis = load_dual_basis(args.dual_basis, algebra.dim)
    return check_introverted(algebra, basis)


def _cmd_check(args: argparse.Namespace) -> dict:
    algebra, tau = _load_pair(args)
    verdict = classify_star_map(algebra, tau)
    return {
        "classification": verdict.kind,
        "is_conjugate_linear": verdict.is_conjugate_linear,
        "is_anti_hom": verdict.is_anti_hom,
        "cubes_to_self": verdict.cubes_to_self,
        "is_injective": verdict.is_injective,
        "norm_of_map": map_norm(tau),
        "residuals": {"anti": verdict.anti_residual, "cube": verdict.cube_residual},
        "algebra_dim": algebra.dim,
    }


def _cmd_decompose(args: argparse.Namespace) -> dict:
    algebra, tau = _load_pair(args)
    dec = canonical_decomposition(algebra, tau)
    return {
        "classification": dec.verdict.kind,
        "decomposition": {
            "I_basis": as_complex(dec.ideal_I.canonical_columns()),
            "B_basis": as_complex(dec.embedding),
            "p": as_complex(dec.projection_p.matrix),
            "rho": as_complex(dec.involution_rho.matrix),
        },
        "residuals": dec.residuals,
    }


def _cmd_factor(args: argparse.Namespace) -> dict:
    algebra, tau = _load_pair(args)
    if args.map2 is not None:
        j = load_map(args.map2, default_source=algebra)
    else:
        j = conjugation_map(algebra)
    fact = factor_through_involution(algebra, tau, j)
    return {
        "c_dim": fact.c.dim,
        "lambda": _map_record(fact.lam),
        "sigma": _map_record(fact.sigma),
        "mu": _map_record(fact.mu),
        "residuals": fact.residuals,
    }


def _cmd_hom(args: argparse.Namespace) -> dict:
    a1 = load_algebra(_need(args, "algebra"))
    a2 = load_algebra(args.algebra2) if args.algebra2 else a1
    tau1 = load_map(_need(args, "map"), default_source=a1)
    tau2 = (load_map(args.map2 or args.map, default_source=a2)
            if args.map2 or args.algebra2 else tau1)
    pi = load_map(_need(args, "map3"), default_source=a1, default_target=a2)
    blocks = check_trivolutive_hom(a1, tau1, a2, tau2, pi)
    return {
        "pi11": _map_record(blocks.pi11),
        "pi22": _map_record(blocks.pi22),
        "residuals": blocks.residuals,
    }


def _extension_record(spec, best_effort: bool) -> dict:
    """An extension in a report; ``best_effort`` says its solver was the Newton search."""
    return {
        "family": spec.family,
        "lambda0": [spec.lambda0.real, spec.lambda0.imag],
        "x0": spec.x0,
        "norm_of_extension": spec.norm_of_extension,
        "contractive": spec.contractive,
        "best_effort": best_effort,
        "residuals": spec.residuals,
    }


def _cmd_extend(args: argparse.Namespace) -> dict:
    algebra, tau = _load_pair(args)
    solutions = find_type1_solutions(algebra, tau, seed=args.seed)
    records = [_extension_record(spec, solutions.best_effort) for spec in solutions.specs]
    if solutions.type2 is not None:
        records.append(_extension_record(solutions.type2, False))
    return {"extensions": records, "count": len(records)}


def _cmd_spectra(args: argparse.Namespace) -> dict:
    algebra = load_algebra(_need(args, "algebra"))
    x = load_element(_need(args, "element"), algebra)
    spec = spectrum(algebra, x)
    report = {
        "spectrum": [[v.real, v.imag] for v in spec.values],
        "computed_in": spec.computed_in,
    }
    if args.map is not None:
        tau = load_map(args.map, default_source=algebra)
        inclusion = verify_spectral_inclusion(algebra, tau, x)
        report["inclusion"] = {
            "range_spectrum": [[v.real, v.imag] for v in inclusion.spectrum_in_range.values],
            "max_mismatch": inclusion.max_mismatch,
            "included": inclusion.included,
            "inverse_checked": inclusion.inverse_checked,
            "inverse_residual": inclusion.inverse_residual,
        }
        if not inclusion.included:
            raise CertificationFailure("spectral inclusion failed",
                                       law="spec_B(t(x)) inside conj spec_A(x)",
                                       residual=inclusion.max_mismatch,
                                       details=report)
    return report


def _cmd_arens(args: argparse.Namespace) -> dict:
    algebra = load_algebra(_need(args, "algebra"))
    space = _load_space(args, algebra)
    structure = arens_products(algebra, space)
    report = {
        "x_dim": space.basis.dim,
        "flags": {  # one flag in finite dimension, under the three keys of the report
            "submodule": space.introverted,
            "left_introverted": space.introverted,
            "right_introverted": space.introverted,
            "faithful": space.faithful,
        },
        "box": as_complex(structure.box),
        "diamond": as_complex(structure.diamond),
        "regular": structure.regular,
        "residuals": structure.residuals,
    }
    if args.map is not None:
        theta = load_map(args.map, default_source=algebra)
        extension = extend_involution(algebra, theta, structure)
        report["extension"] = _map_record(extension)
    return report


def _cmd_tim(args: argparse.Namespace) -> dict:
    algebra = load_algebra(_need(args, "algebra"))
    space = _load_space(args, algebra)
    space.require_introverted()  # also when no character lies in X and tim_set never runs
    if args.character is not None:
        characters = [verify_character(algebra, load_element(args.character, algebra), EPS)]
        possibly_incomplete = False
    else:
        search = find_characters(algebra, args.seed)
        # a mean needs its character in X; the characters of A outside X have none to solve for
        coords = np.array(search.characters).reshape(-1, algebra.dim)
        in_x = space.basis.residuals(coords.T) <= EPS
        characters = [phi for phi, keep in zip(search.characters, in_x) if keep]
        possibly_incomplete = search.possibly_incomplete

    star = None
    if args.map is not None:
        theta = load_map(args.map, default_source=algebra)
        arens = arens_products(algebra, space)
        star = extend_involution(algebra, theta, arens)

    results = []
    for phi in characters:
        means = tim_set(algebra, space, phi)
        entry = {
            "character": phi,
            "particular": None if means.particular is None else as_complex(means.particular),
            "homogeneous_basis": as_complex(means.homogeneous),
            "affine_dim": means.affine_dim,
        }
        if star is not None:
            obstruction = tim_obstruction_check(algebra, means, phi, star, arens)
            entry["obstruction"] = {
                "vacuous": obstruction.vacuous,
                "unique": obstruction.unique,
                "chain_residuals": obstruction.chain_residuals,
            }
        results.append(entry)
    return {"characters": len(characters),
            "possibly_incomplete": possibly_incomplete,
            "means": results}


def _cmd_search(args: argparse.Namespace) -> dict:
    algebra = load_algebra(_need(args, "algebra"))
    family = _need(args, "family")
    if family == "function":
        family_spec: dict = {"family": "function_indicator"}
    elif family == "group":
        params = load_group_params(_need(args, "params"))
        family_spec = {"family": "group_quotient", **params}
    else:
        raise UsageError(f"unsupported CLI family {family!r}; use 'function' or 'group'")
    found = search_trivolutions(algebra, family_spec)
    return {"family": family_spec["family"], "count": len(found),
            "maps": [_map_record(f) for f in found]}


def _cmd_suite(args: argparse.Namespace) -> tuple[int, dict]:
    passed, report = run_suite(args.seed)
    return (0 if passed else 1), report


HANDLERS = {
    "check": _cmd_check,
    "decompose": _cmd_decompose,
    "factor": _cmd_factor,
    "hom": _cmd_hom,
    "extend": _cmd_extend,
    "spectra": _cmd_spectra,
    "arens": _cmd_arens,
    "tim": _cmd_tim,
    "search": _cmd_search,
}


def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Execute one parsed command; returns (exit_code, report)."""
    try:
        if args.command == "suite":
            return _cmd_suite(args)
        report = HANDLERS[args.command](args)
        report["command"] = args.command
        return 0, report
    except UsageError as exc:
        return 2, _usage_report(args, exc)
    except CertificationFailure as exc:
        report = exc.report()
        report["command"] = args.command
        return 1, report


def _usage_report(args: argparse.Namespace, exc: UsageError) -> dict:
    return {"command": args.command, "error": type(exc).__name__, "message": str(exc)}


def _render(report: dict, output_format: str) -> str:
    """The report as text; ``UsageError`` when it holds a non-finite number."""
    if output_format == "json":
        return dumps_report(report)
    return _render_text(plain(report)) + "\n"


def _render_text(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                lines.append(f"{pad}  [{i}]")
                lines.append(_render_text(item, indent + 2))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trivolve",
                                     description="workbench for involutions and trivolutions "
                                                 "on finite-dimensional complex algebras")
    parser.add_argument("command", choices=(*HANDLERS, "suite"))
    parser.add_argument("--algebra", help="algebra spec file (JSON)")
    parser.add_argument("--algebra2", help="second algebra spec file (hom)")
    parser.add_argument("--map", help="map spec file (JSON)")
    parser.add_argument("--map2", help="second map file (factor: kernel involution; hom: tau2)")
    parser.add_argument("--map3", help="third map file (hom: the homomorphism)")
    parser.add_argument("--element", help="element coordinates (file or inline JSON)")
    parser.add_argument("--character", help="character coordinates (file or inline JSON)")
    parser.add_argument("--dual-basis", dest="dual_basis",
                        help="dual subspace basis file (rows of functionals)")
    parser.add_argument("--family", help="search family: function | group")
    parser.add_argument("--params", help="family parameters (JSON file)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", dest="output_format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    return parser


_PARSER = build_parser()  # one per process: ``parse_args`` leaves it as it is


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.seed < 0:  # numpy's generators take no negative seed
        print(f"error: the seed must be non-negative, got {args.seed}", file=sys.stderr)
        return 2
    # an overflow is reported as exit 2 when the report is rendered, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        code, report = run(args)
        try:
            text = _render(report, args.output_format)
        except UsageError as exc:
            code, text = 2, _render(_usage_report(args, exc), args.output_format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
