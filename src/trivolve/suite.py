"""Full property battery over the built-in instances.

Each section exercises one family of laws and reports the worst residual
it saw.  The battery is deterministic given the seed, which is what the
CLI ``suite`` command relies on for byte-identical reports.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import comb

import numpy as np

from .algebra import (
    Subspace,
    function_algebra,
    group_algebra,
    cyclic_group_table,
    induced_subalgebra,
)
from .duality import (
    extend_involution,
    find_characters,
    full_dual,
    search_trivolutions,
    tim_obstruction_check,
    tim_set,
)
from .errors import CertificationFailure
from .instances import (
    TrivolutionInstance,
    c4_indicator_pair,
    first_column_algebra,
    instance_battery,
    remark_pair,
    standard_group_involution,
)
from .linalg import max_abs
from .starmap import adjoint, apply, identity_map, kernel_image, make_map
from .trivolution import (
    canonical_decomposition,
    check_trivolutive_hom,
    classify_star_map,
    element_classes,
    factor_through_involution,
    hermitian_decomposition,
    hermitian_functional_check,
    make_trivolution,
    right_identity_trivolution,
)
from .spectra import verify_spectral_inclusion
from .unitization import (
    contractive_extensions,
    find_type1_solutions,
    range_identity,
    verify_extension,
)


def _sample(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def _section_round_trip(battery: list[TrivolutionInstance]) -> dict:
    worst = 0.0
    for k, inst in enumerate(_sample(battery, 60)):
        dec = canonical_decomposition(inst.algebra, inst.tau)
        worst = max(worst, dec.residuals["reconstruction"], dec.residuals["rho_squared"])
        if k % 8 == 0:  # the converse: the pair (p, rho) builds tau again
            rebuilt = make_trivolution(inst.algebra, dec.projection_p, dec.involution_rho)
            worst = max(worst, max_abs(rebuilt.matrix - inst.tau.matrix))
    return {"name": "round_trip", "instances": len(_sample(battery, 60)),
            "max_residual": worst, "passed": worst <= 1e-8}


def _section_factorization(battery: list[TrivolutionInstance]) -> dict:
    proper = [inst for inst in battery
              if inst.kernel_involution is not None][:12]
    worst = 0.0
    for inst in proper:
        fact = factor_through_involution(inst.algebra, inst.tau, inst.kernel_involution)
        worst = max(worst, fact.residuals["sigma_squared"], fact.residuals["factorization"])
    return {"name": "factorization", "instances": len(proper),
            "max_residual": worst, "passed": worst <= 1e-8}


def _section_homs(battery: list[TrivolutionInstance], seed: int) -> dict:
    rng = np.random.default_rng(seed + 17)
    sample = _sample(battery, 10)
    worst = 0.0
    rejected = 0
    attempted = 0
    for inst in sample:
        dec = canonical_decomposition(inst.algebra, inst.tau)
        for pi in (identity_map(inst.algebra), dec.projection_p):
            blocks = check_trivolutive_hom(inst.algebra, inst.tau, inst.algebra,
                                           inst.tau, pi)
            worst = max(worst, blocks.residuals["off_diagonal"],
                        blocks.residuals["pi22_involutive"])
        n = inst.algebra.dim
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        perturbed = make_map(dec.projection_p.matrix + 1e-3 * noise,
                             conjugating=False, source=inst.algebra)
        attempted += 1
        try:
            check_trivolutive_hom(inst.algebra, inst.tau, inst.algebra, inst.tau, perturbed)
        except CertificationFailure as exc:
            if exc.law != "pi o tau1 = tau2 o pi":
                raise
            rejected += 1
    return {"name": "trivolutive_homs", "instances": len(sample),
            "max_residual": worst, "perturbed_rejected": rejected,
            "perturbed_attempted": attempted,
            "passed": worst <= 1e-8 and rejected == attempted}


def _section_extension_scan() -> dict:
    algebra, tau = remark_pair()
    grid = [-1.0, 0.0, 1.0]
    points = list(iter_product((0.0, 0.5, 1.0), grid, grid, grid, grid))
    lambdas = np.array([point[0] for point in points], dtype=complex)
    x0s = np.array([[complex(re1, im1), complex(re2, im2)]
                    for _, re1, im1, re2, im2 in points]).T
    _, image = kernel_image(tau)
    e_b = range_identity(algebra, image)
    specs, disagreements = verify_extension(algebra, tau, lambdas, x0s, e_b=e_b, image=image)
    c4, tau4 = c4_indicator_pair()
    sols = find_type1_solutions(c4, tau4)
    expected = {(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0),
                (0.0, 0.0, 0.0, -1.0), (0.0, 0.0, -1.0, -1.0)}
    got = {tuple(np.round(x.real, 9)) for x in sols.solutions}
    solver_ok = (not sols.best_effort) and got == expected
    return {"name": "extension_scan", "grid_checked": len(specs),
            "disagreements": len(disagreements), "type1_count": len(sols.solutions),
            "passed": not disagreements and solver_ok}


def _section_contractive() -> dict:
    algebra, tau = remark_pair()
    result = contractive_extensions(algebra, tau)
    excluded_norm = result.excluded[0].norm_of_extension if result.excluded else float("nan")
    ok = (len(result.included) == 2 and len(result.excluded) == 1
          and abs(excluded_norm - 2.0) <= 1e-9)
    return {"name": "contractive_extensions", "included": len(result.included),
            "excluded": len(result.excluded), "excluded_norm": excluded_norm,
            "passed": ok}


def _section_spectra(battery: list[TrivolutionInstance], seed: int) -> dict:
    rng = np.random.default_rng(seed + 5)
    sample = _sample(battery, 25)
    worst = 0.0
    count = 0
    for inst in sample:
        for _ in range(4):
            coords = rng.standard_normal(inst.algebra.dim) \
                + 1j * rng.standard_normal(inst.algebra.dim)
            report = verify_spectral_inclusion(inst.algebra, inst.tau, coords)
            worst = max(worst, report.max_mismatch)
            count += 1
    return {"name": "spectral_inclusion", "elements": count,
            "max_mismatch": worst, "passed": worst <= 1e-6}


def _section_arens(battery: list[TrivolutionInstance]) -> dict:
    seen: set[int] = set()
    worst_tensor = 0.0
    worst_theta = 0.0
    count = 0
    for inst in battery:
        if inst.algebra.dim > 8 or id(inst.algebra) in seen:
            continue
        if inst.natural_involution is None:
            continue
        seen.add(id(inst.algebra))
        space = full_dual(inst.algebra)
        worst_tensor = max(worst_tensor, max_abs(space.quotient.structure - inst.algebra.structure))
        theta = inst.natural_involution
        extension = extend_involution(inst.algebra, theta, space)
        worst_theta = max(worst_theta, max_abs(extension.matrix - theta.matrix))
        count += 1
        if count >= 12:
            break
    return {"name": "arens_oracle", "algebras": count,
            "max_tensor_gap": worst_tensor, "max_extension_gap": worst_theta,
            "passed": worst_tensor <= 1e-8 and worst_theta <= 1e-8}


def _section_tim() -> dict:
    report: dict = {"name": "invariant_means"}
    worst = 0.0
    ok = True

    z2 = group_algebra(cyclic_group_table(2), labels=["e", "g"])
    space = full_dual(z2)
    chars = find_characters(z2).characters
    augmentation = next(c for c in chars if max_abs(c - np.ones(2)) <= 1e-6)
    means = tim_set(z2, space, augmentation)
    ok &= means.is_unique and means.particular is not None
    if means.particular is not None:
        worst = max(worst, max_abs(means.particular - 0.5 * np.ones(2)))
    theta = standard_group_involution(z2, cyclic_group_table(2))
    star = extend_involution(z2, theta, space)
    obstruction = tim_obstruction_check(means, augmentation, star, space)
    ok &= obstruction.unique and not obstruction.vacuous
    worst = max(worst, max(obstruction.chain_residuals.values(), default=0.0))

    z3 = group_algebra(cyclic_group_table(3), labels=["e", "g", "g2"])
    space3 = full_dual(z3)
    chars3 = find_characters(z3).characters
    trivial = next(c for c in chars3 if max_abs(c - np.ones(3)) <= 1e-6)
    means3 = tim_set(z3, space3, trivial)
    ok &= means3.is_unique and means3.particular is not None
    if means3.particular is not None:
        worst = max(worst, max_abs(means3.particular - np.ones(3) / 3.0))

    report.update({"max_residual": worst, "passed": bool(ok) and worst <= 1e-9})
    return report


def _section_search() -> dict:
    c3 = function_algebra(3)
    found = search_trivolutions(c3, {"family": "function_indicator"})
    # independent count: subsets of each size, one map per transposition count
    combinatorial = sum(comb(3, size) * (size // 2 + 1) for size in (1, 2, 3))
    return {"name": "search_function_family", "found": len(found),
            "expected": combinatorial, "passed": len(found) == combinatorial == 11}


def _section_misc_laws(battery: list[TrivolutionInstance], seed: int) -> dict:
    rng = np.random.default_rng(seed + 31)
    worst = 0.0
    ok = True

    # right identities: the first-column algebra has a family of them
    col = first_column_algebra()
    for t in (0.0, 0.5):
        e = np.array([1.0, t], dtype=complex)
        sub = Subspace((np.array([[1.0], [t]], dtype=complex)), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(col, e, sub, inner)
        verdict = classify_star_map(col, tau1)
        ok &= verdict.kind == "trivolution_proper"
        # tau(e) = e for the right identity inside the range
        worst = max(worst, max_abs(apply(tau1, e) - e))

    # f^{tau tau tau} = f^{tau} on random functionals
    for inst in _sample(battery, 8):
        adj = adjoint(inst.tau).matrix
        f = rng.standard_normal(inst.algebra.dim) + 1j * rng.standard_normal(inst.algebra.dim)
        def f_tau(v):
            return adj @ np.conj(v)
        worst = max(worst, max_abs(f_tau(f_tau(f_tau(f))) - f_tau(f)))

    # unitary elements of involutive M_2 form a group
    m2_instances = [inst for inst in battery if inst.name == "M2_conj_transpose"]
    if m2_instances:
        inst = m2_instances[0]
        for _ in range(5):
            q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            x = q1.reshape(-1)
            flags_x = element_classes(inst.algebra, inst.tau, x)
            product = (q1 @ q2).reshape(-1)
            flags_prod = element_classes(inst.algebra, inst.tau, product)
            flags_tau = element_classes(inst.algebra, inst.tau, apply(inst.tau, x))
            ok &= flags_x.unitary and flags_prod.unitary and flags_tau.unitary

    # hermitian functionals: vanish on the kernel, real on hermitians
    algebra, tau = remark_pair()
    ok &= hermitian_functional_check(algebra, tau, [1.0, 0.0]).is_hermitian
    ok &= not hermitian_functional_check(algebra, tau, [1.0, 1.0]).is_hermitian

    # each x in tau(A) is x1 + i x2 with x1, x2 hermitian, and the pair is unique
    for inst in _sample(battery, 8):
        x = apply(inst.tau, np.ones(inst.algebra.dim, dtype=complex))
        try:
            hermitian_decomposition(inst.algebra, inst.tau, x)
        except CertificationFailure:
            ok = False

    return {"name": "misc_laws", "max_residual": worst,
            "passed": bool(ok) and worst <= 1e-8}


def run_suite(seed: int = 0) -> tuple[bool, dict]:
    """Run every section; returns (all_passed, report).

    Each section certifies against its own fixed threshold, so that a
    seed gives one report.
    """
    battery = instance_battery(seed)
    sections = [
        _section_round_trip(battery),
        _section_factorization(battery),
        _section_homs(battery, seed),
        _section_extension_scan(),
        _section_contractive(),
        _section_spectra(battery, seed),
        _section_arens(battery),
        _section_tim(),
        _section_search(),
        _section_misc_laws(battery, seed),
    ]
    passed = all(section["passed"] for section in sections)
    report = {
        "suite": "trivolve-property-battery",
        "seed": seed,
        "battery_size": len(battery),
        "sections": sections,
        "passed": passed,
    }
    return passed, report
