"""Full property battery over the built-in instances.

A section makes certified calls for one family of the paper's laws and
returns its counts and the residuals those calls returned.  Each law is
decided by the library's pass rule (``errors.certify`` at ``EPS``, the
spectral inclusion at ``spectra.SPECTRUM_TOL``), and a condition with no
residual raises ``CertificationFailure`` under its law, so a section
passes when it returns.  The statements, with their laws in quotes:

- round_trip: a trivolution is "tau = rho o p", and conversely the pair
  ``(p, rho)`` builds one of tau's kind ("conjugate-linear anti-homomorphism
  with t^3 = t").
- factorization: tau factors through an involutive algebra,
  "tau = mu o sigma o lambda" with "sigma^2 = id".
- trivolutive_homs: the identity and ``p`` are trivolutive homomorphisms,
  and a perturbed ``p`` is rejected under "pi o tau1 = tau2 o pi".
- extension_scan: "t# is a trivolution iff (lambda0, x0) is of family I or
  II" on 243 candidates, and the family-I solutions on C^4 are "x0 = -y for
  the idempotents y of ann t(A) in ker t".
- contractive_extensions: "contractive extensions are the canonical and
  the family-II ones", and the third has "||t#|| = 2".
- spectral_inclusion: "spec_B(t(x)) inside conj spec_A(x)".
- invariant_means: "C[Z_n] has an invariant mean", with "m = 1/n", on C[Z2]
  and C[Z3]; on C[Z2] the mean is star-fixed, by the chain that ends in
  "m = m*".
- search_function_family: "search finds every trivolution of the family".
- misc_laws: "tau1 = tau o ell_e is a proper trivolution" with
  "tau1(e) = e"; "unitaries are closed under products and tau";
  "f^tau = f iff f real on hermitians and zero on ker tau"; each x in
  tau(A) is "x = x1 + i x2" with hermitian parts.

The battery is deterministic given the seed, which is what the CLI
``suite`` command relies on for byte-identical reports.
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
    full_dual,
    search_trivolutions,
    tim_obstruction_check,
    tim_set,
    verify_character,
)
from .errors import CertificationFailure, certify
from .instances import (
    TrivolutionInstance,
    c4_indicator_pair,
    first_column_algebra,
    instance_battery,
    remark_pair,
    standard_group_involution,
)
from .linalg import EPS, max_abs
from .starmap import apply, identity_map, kernel_image, make_map
from .trivolution import (
    canonical_decomposition,
    check_trivolutive_hom,
    classify_star_map,
    element_classes,
    factor_through_involution,
    hermitian_decomposition,
    hermitian_functional_check,
    make_trivolution,
    require_trivolution,
    right_identity_trivolution,
)
from .spectra import verify_spectral_inclusion
from .unitization import (
    contractive_extensions,
    disagreement,
    find_type1_solutions,
    range_identity,
    verify_extension,
)


def _require(condition: bool, law: str, message: str, residual: float | None = None) -> None:
    """Raise a failure of ``law``, with ``residual``, unless ``condition`` holds."""
    if not condition:
        raise CertificationFailure(message, law=law, residual=residual)


def _sample(items: list, count: int) -> list:
    if len(items) <= count:
        return list(items)
    step = len(items) / count
    return [items[int(i * step)] for i in range(count)]


def _section_round_trip(battery: list[TrivolutionInstance]) -> dict:
    sample = _sample(battery, 60)
    worst = 0.0
    for k, inst in enumerate(sample):
        dec = canonical_decomposition(inst.algebra, inst.tau)
        worst = max(worst, dec.residuals["reconstruction"], dec.residuals["rho_squared"])
        if k % 8 == 0:  # the converse: the pair (p, rho) builds a trivolution of tau's kind
            rebuilt = make_trivolution(inst.algebra, dec.projection_p, dec.involution_rho)
            kind = require_trivolution(inst.algebra, rebuilt).kind
            _require(kind == dec.verdict.kind, "tau = rho o p",
                     f"rho o p is a {kind}, tau a {dec.verdict.kind}")
    return {"instances": len(sample), "max_residual": worst}


def _section_factorization(battery: list[TrivolutionInstance]) -> dict:
    proper = [inst for inst in battery if inst.kernel_involution is not None][:12]
    worst = 0.0
    for inst in proper:
        fact = factor_through_involution(inst.algebra, inst.tau, inst.kernel_involution)
        worst = max(worst, fact.residuals["sigma_squared"], fact.residuals["factorization"])
    return {"instances": len(proper), "max_residual": worst}


def _section_homs(battery: list[TrivolutionInstance], seed: int) -> dict:
    rng = np.random.default_rng(seed + 17)
    sample = _sample(battery, 10)
    worst = 0.0
    for inst in sample:
        dec = canonical_decomposition(inst.algebra, inst.tau)
        for pi in (identity_map(inst.algebra), dec.projection_p):
            blocks = check_trivolutive_hom(inst.algebra, inst.tau, inst.algebra, inst.tau, pi)
            worst = max(worst, blocks.residuals["off_diagonal"],
                        blocks.residuals["pi22_involutive"])
        n = inst.algebra.dim
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        perturbed = make_map(dec.projection_p.matrix + 1e-3 * noise,
                             conjugating=False, source=inst.algebra)
        try:
            check_trivolutive_hom(inst.algebra, inst.tau, inst.algebra, inst.tau, perturbed)
        except CertificationFailure as exc:
            if exc.law != "pi o tau1 = tau2 o pi":
                raise
        else:
            raise CertificationFailure("a perturbed p passed as a trivolutive homomorphism",
                                       law="pi o tau1 = tau2 o pi")
    return {"instances": len(sample), "max_residual": worst}


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
    if disagreements:
        raise disagreement(specs[disagreements[0]])
    c4, tau4 = c4_indicator_pair()
    sols = find_type1_solutions(c4, tau4)
    _require(not sols.best_effort, "x0 = -y for the idempotents y of ann t(A) in ker t",
             "the idempotents came from the Newton search")
    expected = -np.array([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]], dtype=complex)
    gaps = np.abs(np.array(sols.solutions)[:, None, :] - expected).max(axis=2)
    # the Hausdorff distance between the two sets: each point is EPS-close to one of the other
    certify(max(gaps.min(axis=0).max(), gaps.min(axis=1).max()), EPS,
            "x0 = -y for the idempotents y of ann t(A) in ker t",
            "the family-I solutions differ from the expected four (distance {residual:.3e})")
    return {"grid_checked": len(specs), "type1_count": len(sols.solutions)}


def _section_contractive() -> dict:
    algebra, tau = remark_pair()
    result = contractive_extensions(algebra, tau)
    _require(len(result.included) == 2 and len(result.excluded) == 1,
             "contractive extensions are the canonical and the family-II ones",
             f"{len(result.included)} contractive, {len(result.excluded)} excluded")
    excluded_norm = result.excluded[0].norm_of_extension
    certify(abs(excluded_norm - 2.0), EPS, "||t#|| = 2",
            "the excluded extension's norm is not 2 (residual {residual:.3e})")
    return {"included": len(result.included), "excluded": len(result.excluded),
            "excluded_norm": excluded_norm}


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
            _require(report.included, "spec_B(t(x)) inside conj spec_A(x)",
                     "spectral inclusion failed", report.max_mismatch)
            worst = max(worst, report.max_mismatch)
            count += 1
    return {"elements": count, "max_mismatch": worst}


def _unique_mean(n: int) -> tuple:
    """C[Z_n], its full dual, the trivial character and its mean, certified ``1/n``."""
    algebra = group_algebra(cyclic_group_table(n))
    space = full_dual(algebra)
    trivial = verify_character(algebra, np.ones(n))
    mean = tim_set(space, trivial)
    _require(mean is not None, "C[Z_n] has an invariant mean", f"C[Z{n}] has no invariant mean")
    residual = certify(max_abs(mean - np.ones(n) / n), EPS, "m = 1/n",
                       "the invariant mean is not 1/n (residual {residual:.3e})")
    return algebra, space, trivial, mean, residual


def _section_tim() -> dict:
    z2, space, augmentation, mean, worst = _unique_mean(2)
    star = extend_involution(z2, standard_group_involution(z2, cyclic_group_table(2)), space)
    chain = tim_obstruction_check(mean, augmentation, star, space)
    worst = max(worst, max(chain.values()), _unique_mean(3)[-1])
    return {"max_residual": worst}


def _section_search() -> dict:
    c3 = function_algebra(3)
    found = search_trivolutions(c3, {"family": "function_indicator"})
    # independent count: subsets of each size, one map per transposition count
    combinatorial = sum(comb(3, size) * (size // 2 + 1) for size in (1, 2, 3))
    _require(len(found) == combinatorial, "search finds every trivolution of the family",
             f"search found {len(found)} of {combinatorial}")
    return {"found": len(found)}


def _section_misc_laws(battery: list[TrivolutionInstance], seed: int) -> dict:
    rng = np.random.default_rng(seed + 31)
    worst = 0.0

    # right identities: the first-column algebra has a family of them
    col = first_column_algebra()
    for t in (0.0, 0.5):
        e = np.array([1.0, t], dtype=complex)
        sub = Subspace((np.array([[1.0], [t]], dtype=complex)), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(col, e, sub, inner)
        kind = classify_star_map(col, tau1).kind
        _require(kind == "trivolution_proper", "tau1 = tau o ell_e is a proper trivolution",
                 f"tau o ell_e is a {kind}")
        worst = max(worst, certify(max_abs(apply(tau1, e) - e), EPS, "tau1(e) = e",
                                   "tau1 moves the right identity (residual {residual:.3e})"))

    # unitary elements of involutive M_2 form a group
    inst = next(inst for inst in battery if inst.name == "M2_conj_transpose")
    for _ in range(5):
        q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        x = q1.reshape(-1)
        _require(all(element_classes(inst.algebra, inst.tau, y).unitary
                     for y in (x, (q1 @ q2).reshape(-1), apply(inst.tau, x))),
                 "unitaries are closed under products and tau",
                 "a product or an image of unitaries is not unitary")

    # hermitian functionals: vanish on the kernel, real on hermitians
    algebra, tau = remark_pair()
    _require(hermitian_functional_check(algebra, tau, [1.0, 0.0]).is_hermitian
             and not hermitian_functional_check(algebra, tau, [1.0, 1.0]).is_hermitian,
             "f^tau = f iff f real on hermitians and zero on ker tau",
             "a hermitian-functional verdict is wrong")

    # each x in tau(A) is x1 + i x2 with x1, x2 hermitian
    for inst in _sample(battery, 8):
        hermitian_decomposition(inst.algebra, inst.tau,
                                apply(inst.tau, np.ones(inst.algebra.dim, dtype=complex)))

    return {"max_residual": worst}


def run_suite(seed: int = 0) -> tuple[bool, dict]:
    """Run every section; returns (all_passed, report).

    A section passes when its certified calls return.  One that raises
    ``CertificationFailure`` is reported with ``passed: false`` and the
    failure's report (its ``law`` and ``residual`` among them), and the
    other sections still run.  A seed gives one report.
    """
    battery = instance_battery(seed)
    sections = {
        "round_trip": lambda: _section_round_trip(battery),
        "factorization": lambda: _section_factorization(battery),
        "trivolutive_homs": lambda: _section_homs(battery, seed),
        "extension_scan": _section_extension_scan,
        "contractive_extensions": _section_contractive,
        "spectral_inclusion": lambda: _section_spectra(battery, seed),
        "invariant_means": _section_tim,
        "search_function_family": _section_search,
        "misc_laws": lambda: _section_misc_laws(battery, seed),
    }
    reports = []
    for name, section in sections.items():
        try:
            reports.append({"name": name, **section(), "passed": True})
        except CertificationFailure as exc:
            reports.append({"name": name, **exc.report(), "passed": False})
    passed = all(section["passed"] for section in reports)
    report = {
        "suite": "trivolve-property-battery",
        "seed": seed,
        "battery_size": len(battery),
        "sections": reports,
        "passed": passed,
    }
    return passed, report
