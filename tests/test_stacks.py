"""Families of maps and candidates decided in one stacked contraction, and results kept per object.

The references below are the one-map routes that came before the stacks,
written out with the same matrix products, so a stacked verdict must equal
them bit for bit.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest

from trivolve import suite, unitization
from trivolve.algebra import (
    basis_products,
    cyclic_group_table,
    function_algebra,
    group_algebra,
    induced_subalgebra,
    is_commutative,
    left_mult_matrix,
    make_algebra,
    multiply,
    right_mult_matrix,
)
from trivolve.errors import CertificationFailure, certify
from trivolve.duality import (
    extend_involution,
    find_characters,
    full_dual,
    search_trivolutions,
    tim_obstruction_check,
    tim_set,
    verify_character,
)
from trivolve.instances import (
    _involutive_permutations_canonical,
    indicator_trivolution,
    instance_battery,
    standard_group_involution,
)
from trivolve.linalg import EPS, EPS_RANK, max_abs
from trivolve.starmap import (
    AlgMap,
    classify_multiplicativity,
    conjugation_map,
    kernel_image,
    make_map,
)
from trivolve.trivolution import (
    KIND_INVOLUTION,
    KIND_NOT_STAR,
    KIND_TRIVOLUTION_PROPER,
    canonical_decomposition,
    classify_star_map,
)
from trivolve.unitization import find_type1_solutions, range_identity, verify_extension

from spec_writers import count_calls


def old_column_products(structure, left, right):
    n_a, _, n_k = structure.shape
    partial = right.T @ structure
    n_i, n_j = left.shape[1], right.shape[1]
    return (left.T @ partial.reshape(n_a, n_j * n_k)).reshape(n_i, n_j, n_k)


def old_max_abs(a):
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def reference_multiplicativity(f):
    """``(hom_residual, anti_residual)`` of one map, as the one-map route computed them."""
    src = np.conj(f.source.structure) if f.conjugating else f.source.structure
    n = src.shape[0]
    lhs = (src.reshape(n * n, n) @ f.matrix.T).reshape(n, n, f.matrix.shape[0])
    rhs = old_column_products(f.target.structure, f.matrix, f.matrix)
    return old_max_abs(lhs - rhs), old_max_abs(lhs - rhs.transpose(1, 0, 2))


def reference_star_class(f):
    """The fields of one map's ``StarClass``, as the one-map route computed them."""
    hom, anti = reference_multiplicativity(f)
    square = f.matrix @ (np.conj(f.matrix) if f.conjugating else f.matrix)
    cubed = square @ (np.conj(f.matrix) if not f.conjugating else f.matrix)
    cube = old_max_abs(cubed - f.matrix)
    cubes = cube <= EPS
    injective = np.linalg.matrix_rank(f.matrix, EPS_RANK) == f.source.dim
    if not (old_max_abs(f.matrix) > EPS and f.conjugating and anti <= EPS and cubes):
        kind = KIND_NOT_STAR
    else:
        kind = KIND_INVOLUTION if injective else KIND_TRIVOLUTION_PROPER
    return (kind, f.conjugating, anti <= EPS, cubes, bool(injective), anti, cube)


def family(maps):
    """The maps, which share an algebra and a flag, as one ``(B, n, n)`` stack."""
    first = maps[0]
    return AlgMap(matrix=np.stack([f.matrix for f in maps]), conjugating=first.conjugating,
                  source=first.source, target=first.target)


def assert_family_matches_reference(maps):
    """Each map's verdict and flags, alone and in the stack, equal the one-map route's bits."""
    fresh = [make_map(f.matrix, f.conjugating, f.source, f.target) for f in maps]
    stacked = classify_star_map(fresh[0].source, family(fresh))
    flags = classify_multiplicativity(family(fresh))
    assert len(stacked) == len(flags) == len(maps)
    for f, verdict, flag in zip(fresh, stacked, flags):
        want = reference_star_class(f)
        assert dataclasses.astuple(verdict) == want
        assert dataclasses.astuple(classify_star_map(f.source, f)) == want
        hom, anti = reference_multiplicativity(f)
        assert (flag.hom_residual, flag.anti_residual) == (hom, anti)
        assert (flag.homomorphism, flag.anti_homomorphism) == (hom <= EPS, anti <= EPS)


def test_battery_maps_classify_alike_in_a_stack_and_alone(battery):
    # tau and p = tau^2 in one stack per algebra and flag, rho in a stack with its double
    groups: dict[tuple[int, bool], list] = {}
    for inst in battery:
        dec = canonical_decomposition(inst.algebra, inst.tau)
        for f in (inst.tau, dec.projection_p):
            groups.setdefault((id(f.source), f.conjugating), []).append(f)
        rho = dec.involution_rho
        assert_family_matches_reference([rho, make_map(2 * rho.matrix, True, rho.source)])
    assert sum(map(len, groups.values())) == 2 * len(battery)
    for maps in groups.values():
        assert_family_matches_reference(maps)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_function_indicator_family_classifies_alike_in_a_stack_and_alone(n):
    algebra = function_algebra(n)
    candidates = [indicator_trivolution(algebra, k_set, perm)
                  for size in range(1, n + 1) for k_set in combinations(range(n), size)
                  for perm in _involutive_permutations_canonical(k_set)]
    assert_family_matches_reference(candidates)
    found = search_trivolutions(algebra, {"family": "function_indicator"})
    kept = [f for f in candidates if reference_star_class(f)[0] != KIND_NOT_STAR]
    assert [f.matrix.tolist() for f in found] == [f.matrix.tolist() for f in kept]


def reference_extension(algebra, tau, lambda0, x0, e_b, image):
    """Residuals and verdict fields of one candidate, as the one-candidate route computed them."""
    q = image.canonical_columns()
    col = x0[:, None]
    residuals = {
        "x0_negated_idempotent": old_max_abs(
            old_column_products(algebra.structure, col, col)[0, 0] + x0),
        "x0_annihilates_range": max(old_max_abs(old_column_products(algebra.structure, col, q)),
                                    old_max_abs(old_column_products(algebra.structure, q, col))),
        "tau_x0": old_max_abs(tau.matrix @ np.conj(x0)),
    }
    if e_b is not None:
        residuals["x0_vs_range_identity"] = old_max_abs(x0 - e_b)
    sharp = algebra.unitization
    matrix = np.zeros((algebra.dim + 1, algebra.dim + 1), dtype=complex)
    matrix[0, 0], matrix[1:, 0], matrix[1:, 1:] = lambda0, x0, tau.matrix
    verdict = reference_star_class(make_map(matrix, True, sharp))
    residuals["anti"], residuals["cube"] = verdict[-2:]
    return residuals, verdict


def test_solver_candidate_sets_verify_alike_in_a_stack_and_alone():
    # every family-I solution and the family-II candidate of each battery instance
    checked = 0
    for inst in instance_battery(0):
        result = find_type1_solutions(inst.algebra, inst.tau)
        image = kernel_image(inst.tau)[1]
        e_b = range_identity(inst.algebra, image)
        specs = result.specs + ([result.type2] if result.type2 is not None else [])
        for spec in specs:
            residuals, verdict = reference_extension(inst.algebra, inst.tau, spec.lambda0,
                                                     spec.x0, e_b, image)
            assert spec.residuals == residuals
            assert dataclasses.astuple(spec.verdict) == verdict
            alone = verify_extension(inst.algebra, inst.tau, spec.lambda0, spec.x0,
                                     e_b=e_b, image=image)
            assert alone.residuals == residuals and alone.family == spec.family
            checked += 1
    assert checked == 1626


def flip_verdict(monkeypatch, index):
    """Make ``verify_extension``'s classification of a family flip the verdict of one member."""
    original = unitization.classify_star_map

    def flipped(algebra, f):
        verdicts = original(algebra, f)
        if f.matrix.ndim == 2:
            return verdicts
        verdicts = list(verdicts)  # the verdicts kept on f stay as they are
        verdict = verdicts[index]
        verdicts[index] = dataclasses.replace(
            verdict, kind=KIND_NOT_STAR if verdict.is_trivolution else KIND_INVOLUTION)
        return verdicts

    monkeypatch.setattr(unitization, "classify_star_map", flipped)


DISAGREE = "t# is a trivolution iff (lambda0, x0) is of family I or II"


def test_a_stack_reports_each_disagreement_and_one_candidate_raises(monkeypatch, remark):
    algebra, tau = remark
    image = kernel_image(tau)[1]
    e_b = range_identity(algebra, image)
    columns = np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]], dtype=complex).T
    lambdas = [1.0, 1.0, 0.0, 1.0]
    specs, disagreements = verify_extension(algebra, tau, lambdas, columns, e_b=e_b, image=image)
    assert [spec.family for spec in specs] == ["type_I", "type_I", "type_II", "invalid"]
    assert disagreements == [] and all(not spec.x0.flags.writeable for spec in specs)

    flip_verdict(monkeypatch, 1)
    flipped, disagreements = verify_extension(algebra, tau, lambdas, columns,
                                              e_b=e_b, image=image)
    assert disagreements == [1] and [spec.family for spec in flipped] == [
        spec.family for spec in specs]
    with pytest.raises(CertificationFailure) as info:
        find_type1_solutions(algebra, tau)  # candidates 0 and (0, -1), then (0, e_B)
    assert info.value.law == DISAGREE
    assert info.value.details == {"family": "type_I", "classified": KIND_NOT_STAR}
    monkeypatch.undo()
    flip_verdict(monkeypatch, 0)
    with pytest.raises(CertificationFailure) as info:
        verify_extension(algebra, tau, 1.0, columns[:, 3], e_b=e_b, image=image)
    assert info.value.law == DISAGREE
    assert info.value.details == {"family": "invalid", "classified": KIND_INVOLUTION}


def test_verify_character_takes_one_matrix_vector_product(battery):
    # the product table <phi, b_i b_j> of every battery character: the (n,) route gives the
    # bits of the (1, n) route it replaces, and verify_character returns the coordinates
    compared = 0
    seen = set()
    for inst in battery:
        algebra = inst.algebra
        if id(algebra) in seen or not is_commutative(algebra):
            continue
        seen.add(id(algebra))
        for phi in find_characters(algebra).characters:
            vector = basis_products(algebra.structure, phi)
            row = basis_products(algebra.structure, phi[None, :])[:, :, 0]
            assert np.array_equal(vector, row)
            assert np.array_equal(verify_character(algebra, phi), phi)
            compared += 1
    assert compared == 89  # 19 commutative battery algebras


def test_a_map_is_classified_once(monkeypatch, c3):
    tau = make_map(np.diag([1.0, 1.0, 0.0]), True, c3)
    columns = count_calls(monkeypatch, "column_products")
    bases = count_calls(monkeypatch, "basis_products")
    first = classify_star_map(c3, tau)
    assert first.kind == KIND_TRIVOLUTION_PROPER and len(columns) == len(bases) == 1
    assert classify_star_map(c3, tau) is first
    assert len(columns) == len(bases) == 1


def test_a_family_is_contracted_in_blocks(monkeypatch):
    # a map of C[Z16] gives 16^3 = 4096 products, so a block holds 2^16 / 4096 = 16 maps
    algebra = group_algebra(cyclic_group_table(16))
    rng = np.random.default_rng(5)
    maps = [make_map(rng.standard_normal((16, 16)), True, algebra) for _ in range(40)]
    columns = count_calls(monkeypatch, "column_products")
    flags = classify_multiplicativity(family(maps))
    assert [len(call[1]) for call in columns] == [16, 16, 8]
    assert [(flag.hom_residual, flag.anti_residual) for flag in flags] == [
        reference_multiplicativity(f) for f in maps]


def test_a_search_family_is_one_stack(monkeypatch):
    # C^6: 6^3 = 216 products per map, so one block holds the whole family
    algebra = function_algebra(6)
    columns = count_calls(monkeypatch, "column_products")
    found = search_trivolutions(algebra, {"family": "function_indicator"})
    assert len(found) == 143 and len(columns) == 1 and len(columns[0][1]) >= len(found)


def test_results_are_kept_on_the_map_and_the_subspace(monkeypatch, c2):
    tau = make_map([[1.0, 0.0], [0.0, 0.0]], True, c2)
    svds = count_calls(monkeypatch, "column_space_and_nullspace")
    _, image = kernel_image(tau)
    assert kernel_image(tau)[1] is image and len(svds) == 1
    sub, embedding = induced_subalgebra(c2, image)
    assert induced_subalgebra(c2, image)[0] is sub and not embedding.flags.writeable
    copy = make_algebra(2, c2.structure, c2.basis_labels, c2.identity_coords)
    assert induced_subalgebra(copy, image)[0] is not sub  # kept only on the subspace's algebra
    dec = canonical_decomposition(c2, tau)
    assert canonical_decomposition(c2, tau) is dec and dec.subalgebra is sub
    assert canonical_decomposition(copy, tau) is not dec
    assert canonical_decomposition(c2, make_map(tau.matrix, True, c2)) is not dec


def test_spectra_section_builds_one_range_algebra_per_map(monkeypatch):
    # 25 sampled maps, four elements each: tau, its range and the range algebra are certified
    # once per map, not once per element
    battery = instance_battery(0)
    built = count_calls(monkeypatch, "make_algebra")
    assert suite._section_spectra(battery, 0)["elements"] == 100  # a section passes when it returns
    assert len(built) == 25


def reference_tim_set(space, phi):
    """``(mean, steps)`` of one character by the one-character route, and its refinement steps."""
    space.require_introverted()
    certify(space.basis.residual(phi), EPS, "phi in X", "the character does not lie in X")
    phi_f = phi[space.free]
    s0, t = space.action_gram
    h = (np.conj(phi_f)[:, None, None] * t).sum(axis=0)
    gram = (s0 - h - h.conj().T + 2 * np.sum(np.abs(phi_f) ** 2) * np.eye(len(phi_f))
            + np.outer(np.conj(phi_f), phi_f))
    values, vectors = np.linalg.eigh(gram)
    keep = values > EPS_RANK ** 2
    basis = vectors[:, keep]

    def solve(rhs):
        return basis @ ((basis.conj().T @ rhs) / values[keep])

    def residuals(u):
        blocks = space.actions @ u - phi_f[:, None, None] * u
        last = phi_f @ u - 1.0
        return blocks, last, max(max_abs(blocks), max_abs(last))

    u = solve(np.conj(phi_f))
    blocks, last, residual = residuals(u)
    steps = 0
    for _ in range(5):
        if residual <= EPS:
            break
        adjoint = ((blocks[..., None] * space.actions.conj()).sum(axis=(0, 1, 2))
                   - (np.conj(phi_f)[:, None, None] * blocks).sum(axis=(0, 1))
                   + np.conj(phi_f) * last)
        refined = u - solve(adjoint)
        refined_blocks, refined_last, refined_residual = residuals(refined)
        steps += 1
        if not refined_residual <= residual / 2:
            break
        u, blocks, last, residual = refined, refined_blocks, refined_last, refined_residual
    return (None if residual > EPS else space.embed_coords(u)), steps


def reference_chain(mean, phi, star, space):
    """One character's chain residuals by the one-character route."""
    quot, q = space.quotient, space.quotient_map.matrix
    phi_f = phi[space.free]
    certify(max_abs(phi_f @ (star.matrix @ np.conj(q)) - np.conj(phi_f @ q)), EPS,
            "<phi, a*> = conj <phi, a>", "star is not compatible with the character")
    if mean is None:
        return {}
    m = mean[space.free]
    m_star = star.matrix @ np.conj(m)
    scaled = np.outer(phi_f, m_star).T
    left_gap = max_abs(right_mult_matrix(quot, m_star) - scaled)
    residuals = {"star_invariance": max(left_gap,
                                        max_abs(left_mult_matrix(quot, m_star) - scaled)),
                 "absorption": left_gap,
                 "double_star": max_abs(star.matrix @ np.conj(m_star) - m)}
    m_phi = complex(phi_f @ m)
    residuals["product_vs_scaling"] = max_abs(multiply(quot, m, m_star) - m_phi * m_star)
    residuals["normalization"] = abs(m_phi - 1.0)
    residuals["star_fixed"] = max_abs(m - m_star)
    certify(max(residuals.values()), EPS,
            "a.m* = m*.a = phi(a) m*; n box m* = <n,phi> m*; m = m*",
            "the invariant-mean identity chain failed", details=residuals)
    return residuals


def badly_scaled_sum():
    """C (+) C in the basis ``e1 + e2``, ``1e-7 e2``, whose mean solves refine: the case."""
    basis = np.array([[1.0, 0.0], [1.0, 1e-7]])  # column j: b_j over e1, e2
    inverse = np.linalg.inv(basis)
    structure = np.zeros((2, 2, 2))
    for i, j in np.ndindex(2, 2):
        structure[i, j] = inverse @ (basis[:, i] * basis[:, j])
    algebra = make_algebra(2, structure)
    characters = [verify_character(algebra, row) for row in basis]
    return "C+C badly scaled", algebra, characters, [conjugation_map(algebra)]


def tim_stack_cases():
    """``(label, algebra, characters, involutions)``: each commutative algebra of
    ``instance_battery(0)`` with every battery involution on it, C[Z12], C[Z16] and C[Z24]
    with the standard involution, and a badly scaled C (+) C."""
    algebras: dict[int, tuple] = {}
    for inst in instance_battery(0):
        if is_commutative(inst.algebra):
            label, algebra, characters, stars = algebras.setdefault(id(inst.algebra), (
                inst.name, inst.algebra, find_characters(inst.algebra).characters, []))
            if classify_star_map(algebra, inst.tau).kind == KIND_INVOLUTION:
                stars.append(inst.tau)
    yield from algebras.values()
    for m in (12, 16, 24):
        table = cyclic_group_table(m)
        algebra = group_algebra(table)
        yield (f"C[Z{m}]", algebra, find_characters(algebra).characters,
               [standard_group_involution(algebra, table)])
    yield badly_scaled_sum()


def failure(call):
    """``(law, residual)`` of the ``CertificationFailure`` that ``call`` raises, or None."""
    try:
        call()
    except CertificationFailure as exc:
        return exc.law, exc.residual
    return None


def test_a_character_stack_solves_and_certifies_as_each_character_alone():
    # tim_set and tim_obstruction_check of the stack of every character against the
    # one-character route, bit for bit: each mean (or None) and each chain; where the
    # route fails a character's compatibility first, the stack fails it alike
    means_compared = chains_compared = failures = refined = 0
    for label, algebra, characters, stars in tim_stack_cases():
        space = full_dual(algebra)
        characters = np.array(characters)
        means = tim_set(space, characters)
        assert len(means) == len(characters), label
        references = []
        for phi, mean in zip(characters, means):
            reference, steps = reference_tim_set(space, phi)
            for got in (mean, tim_set(space, phi)):  # a 1-d character is a stack of one
                assert (got is None) == (reference is None), label
                assert got is None or got.tobytes() == reference.tobytes(), label
            references.append(reference)
            refined += steps > 0
            means_compared += 1
        for theta in stars:
            star = extend_involution(algebra, theta, space)
            expected = failure(lambda: [reference_chain(m, phi, star, space)
                                        for phi, m in zip(characters, references)])
            got = failure(lambda: tim_obstruction_check(means, characters, star, space))
            assert got == expected, label
            if expected is not None:
                failures += 1
                continue
            chains = tim_obstruction_check(means, characters, star, space)
            for phi, mean, chain in zip(characters, means, chains):
                assert chain == reference_chain(mean, phi, star, space), label
                assert tim_obstruction_check(mean, phi, star, space) == chain, label
                chains_compared += 1
    # 89 characters of 19 battery algebras, 52 of C[Z12..24] and 2; 25 involutions fail a
    # character's compatibility, and one badly scaled solve refines
    assert (means_compared, chains_compared, failures, refined) == (143, 120, 25, 1)
