"""Dual actions, Arens products, involution extension, characters, means."""

from itertools import combinations

import numpy as np
import pytest

from trivolve.algebra import (
    cyclic_group_table,
    function_algebra,
    group_algebra,
    is_commutative,
    make_algebra,
    matrix_algebra,
    quotient,
)
from trivolve.duality import (
    _dual_actions,
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
from trivolve.errors import CertificationFailure, UsageError
from trivolve.instances import (
    conjugate_transpose_involution,
    standard_group_involution,
)
from trivolve.starmap import conjugation_map, identity_map, make_map
from trivolve.trivolution import classify_star_map


def dual_numbers():
    """C[x]/x^2: commutative, not semisimple."""
    structure = np.zeros((2, 2, 2), dtype=complex)
    structure[0, 0, 0] = 1.0
    structure[0, 1, 1] = 1.0
    structure[1, 0, 1] = 1.0
    return make_algebra(2, structure, ["one", "x"])


def act(algebra, lam, a, side):
    """``lam . a`` (side "right") or ``a . lam`` (side "left") from the basis stacks."""
    right, left = _dual_actions(algebra, np.asarray(lam, dtype=complex)[:, None])
    return a.coords @ (right if side == "right" else left)[0]


class TestDualAction:
    def test_group_translation(self, z2):
        lam = np.array([1.0, 0.0])  # dual of e
        assert np.allclose(act(z2, lam, z2.element([0.0, 1.0]), "right"), [0.0, 1.0])  # dual of g

    def test_identity_acts_trivially(self, z3):
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for side in ("right", "left"):
            assert np.allclose(act(z3, lam, z3.identity, side), lam)

    def test_pointwise_annihilation(self, c2):
        for side in ("right", "left"):
            assert np.allclose(act(c2, np.array([1.0, 0.0]), c2.element([0.0, 1.0]), side), 0.0)

    def test_module_law(self, z3):
        # (lam . a) . b = lam . (ab) and a . (b . lam) = (ab) . lam on basis pairs
        from trivolve.algebra import multiply

        rng = np.random.default_rng(1)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for i in range(3):
            for j in range(3):
                a, b = z3.basis_element(i), z3.basis_element(j)
                ab = multiply(z3, a, b)
                step = act(z3, act(z3, lam, a, "right"), b, "right")
                assert np.max(np.abs(step - act(z3, lam, ab, "right"))) < 1e-9
                step = act(z3, act(z3, lam, b, "left"), a, "left")
                assert np.max(np.abs(step - act(z3, lam, ab, "left"))) < 1e-9

    def test_left_action_of_a_matrix_unit(self, m2):
        # <E12 . lam, b> = <lam, b E12>: only b = E21 (giving E22) and b = E11 (giving E12) count
        lam = np.array([0.0, 2.0, 0.0, 3.0])  # 2 E12* + 3 E22*
        assert np.allclose(act(m2, lam, m2.basis_element(1), "left"), [2.0, 0.0, 3.0, 0.0])


class TestIntroverted:
    def test_full_dual_flags(self, z2):
        space = full_dual(z2)
        assert space.submodule and space.left_introverted and space.right_introverted
        assert space.faithful

    def test_coordinate_line(self, c2):
        space = check_introverted(c2, np.array([[1.0], [0.0]]))
        assert space.submodule and space.introverted
        assert not space.faithful

    def test_augmentation_line(self, z2):
        space = check_introverted(z2, np.array([[1.0], [1.0]]))
        assert space.submodule and space.introverted
        assert not space.faithful

    def test_non_submodule_reported_not_raised(self):
        duals = dual_numbers()
        space = check_introverted(duals, np.array([[0.0], [1.0]]))  # dual of x
        assert not space.submodule
        assert not space.left_introverted and not space.right_introverted
        assert space.diagnostic == "lambda_0 . b_1 escapes X"


class TestArens:
    def test_full_dual_reflexivity_oracle(self, z2, m2):
        for algebra in (z2, m2):
            structure = arens_products(algebra, full_dual(algebra))
            assert np.max(np.abs(structure.box - algebra.structure)) < 1e-10
            assert np.max(np.abs(structure.diamond - algebra.structure)) < 1e-10
            assert structure.regular

    def test_augmentation_quotient(self, z2):
        space = check_introverted(z2, np.array([[1.0], [1.0]]))
        structure = arens_products(z2, space)
        assert structure.box.shape == (1, 1, 1)
        assert np.allclose(structure.box, [[[1.0]]])  # scalar multiplication
        assert structure.regular

    def test_non_introverted_rejected(self):
        duals = dual_numbers()
        space = check_introverted(duals, np.array([[0.0], [1.0]]))
        with pytest.raises(CertificationFailure) as info:
            arens_products(duals, space)
        assert info.value.law == "X topologically introverted"


class TestExtendInvolution:
    def test_group_involution_extends_to_itself(self, z2, z2_involution):
        extension = extend_involution(z2, z2_involution, arens_products(z2, full_dual(z2)))
        assert np.allclose(extension.matrix, z2_involution.matrix)

    def test_matrix_star_extends(self, m2, m2_star):
        extension = extend_involution(m2, m2_star, arens_products(m2, full_dual(m2)))
        assert np.allclose(extension.matrix, m2_star.matrix)
        verdict = classify_star_map(extension.source, extension)
        assert verdict.kind == "involution"

    def test_moved_line_rejected(self, c2):
        # the dual of e1 spans an introverted line; the adjoint of the
        # swap-conjugation sends it to the dual of e2
        swap = make_map([[0.0, 1.0], [1.0, 0.0]], conjugating=True, source=c2)
        space = check_introverted(c2, np.array([[1.0], [0.0]]))
        assert space.introverted and not space.faithful
        with pytest.raises(CertificationFailure) as info:
            extend_involution(c2, swap, arens_products(c2, space))
        assert info.value.law == "theta*(X) contained in X"


class TestCharacters:
    def test_z2_signs(self, z2):
        search = find_characters(z2)
        assert not search.possibly_incomplete
        values = sorted(round(c.coords[1].real) for c in search.characters)
        assert values == [-1, 1]

    def test_pointwise_evaluations(self, c3):
        search = find_characters(c3)
        assert not search.possibly_incomplete
        got = {tuple(np.round(c.coords.real, 6)) for c in search.characters}
        assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_z3_roots_of_unity(self, z3):
        search = find_characters(z3)
        assert len(search.characters) == 3
        omega = np.exp(2j * np.pi / 3)
        expected = {tuple(np.round([1, w, w * w], 6)) for w in (1, omega, omega.conjugate())}
        got = {tuple(np.round(c.coords, 6)) for c in search.characters}
        assert got == expected

    def test_noncommutative_rejected(self, m2):
        with pytest.raises(CertificationFailure) as info:
            find_characters(m2)
        assert info.value.law == "ab = ba"

    def test_nilpotent_flagged_incomplete(self):
        duals = dual_numbers()
        search = find_characters(duals)
        assert search.possibly_incomplete
        assert len(search.characters) == 1  # only evaluation at the scalar part

    def test_verify_character_rejects_nonmultiplicative(self, z2):
        with pytest.raises(CertificationFailure):
            verify_character(z2, [1.0, 2.0])

    def test_character_composed_with_trivolution_multiplicative(self, z3):
        tau = standard_group_involution(z3, cyclic_group_table(3))
        for phi in find_characters(z3).characters:
            composed = np.conj(tau.matrix.T @ phi.coords)
            prods = np.einsum("ijk,k->ij", z3.structure, composed)
            assert np.max(np.abs(prods - np.outer(composed, composed))) < 1e-9


class TestTims:
    def test_z2_augmentation_mean(self, z2):
        space = full_dual(z2)
        phi = verify_character(z2, [1.0, 1.0])
        means = tim_set(z2, space, phi)
        assert means.is_unique
        assert np.allclose(means.particular, [0.5, 0.5])

    def test_z3_uniform_mean(self, z3):
        space = full_dual(z3)
        phi = verify_character(z3, [1.0, 1.0, 1.0])
        means = tim_set(z3, space, phi)
        assert means.is_unique
        assert np.allclose(means.particular, [1 / 3, 1 / 3, 1 / 3])

    def test_pointwise_coordinate_mean(self, c2):
        space = full_dual(c2)
        phi = verify_character(c2, [1.0, 0.0])
        means = tim_set(c2, space, phi)
        assert means.is_unique
        assert np.allclose(means.particular, [1.0, 0.0])

    def test_character_must_lie_in_x(self, z2):
        space = check_introverted(z2, np.array([[1.0], [1.0]]))
        sign = verify_character(z2, [1.0, -1.0])
        with pytest.raises(CertificationFailure) as info:
            tim_set(z2, space, sign)
        assert info.value.law == "phi in X"

    def test_obstruction_chain_z2(self, z2, z2_involution):
        space = full_dual(z2)
        phi = verify_character(z2, [1.0, 1.0])
        arens = arens_products(z2, space)
        star = extend_involution(z2, z2_involution, arens)
        report = tim_obstruction_check(z2, tim_set(z2, space, phi), phi, star,
                                       classify_star_map(arens.box_algebra, star), arens)
        assert report.unique and not report.vacuous
        assert max(report.chain_residuals.values()) <= 1e-9

    def test_obstruction_chain_pointwise(self, c3):
        space = full_dual(c3)
        conj = conjugation_map(c3)
        arens = arens_products(c3, space)
        star = extend_involution(c3, conj, arens)
        verdict = classify_star_map(arens.box_algebra, star)
        for phi in find_characters(c3).characters:
            report = tim_obstruction_check(c3, tim_set(c3, space, phi), phi, star, verdict,
                                           arens)
            assert report.unique

    def test_vacuous_when_no_mean_exists(self):
        duals = dual_numbers()
        space = full_dual(duals)
        phi = verify_character(duals, [1.0, 0.0])
        means = tim_set(duals, space, phi)
        assert means.is_empty
        conj = conjugation_map(duals)
        arens = arens_products(duals, space)
        star = extend_involution(duals, conj, arens)
        report = tim_obstruction_check(duals, means, phi, star,
                                       classify_star_map(arens.box_algebra, star), arens)
        assert report.vacuous and report.unique


class TestSearch:
    def test_c3_count_eleven(self, c3):
        found = search_trivolutions(c3, {"family": "function_indicator"})
        assert len(found) == 11
        for tau in found:
            assert classify_star_map(c3, tau).is_trivolution

    def test_c3_count_matches_combinatorics(self, c3):
        from math import comb

        found = search_trivolutions(c3, {"family": "function_indicator"})
        expected = sum(comb(3, s) * (s // 2 + 1) for s in (1, 2, 3))
        assert expected == 3 + 6 + 2 == 11
        assert len(found) == expected

    def test_group_family_z4(self):
        table = cyclic_group_table(4)
        z4 = group_algebra(table)
        found = search_trivolutions(z4, {"family": "group_quotient",
                                         "table": table,
                                         "normal_subgroups": [[0], [0, 2], [0, 1, 2, 3]]})
        assert len(found) == 3
        kinds = sorted(classify_star_map(z4, f).kind for f in found)
        assert kinds == ["involution", "trivolution_proper", "trivolution_proper"]

    def test_user_pairs(self, z2, z2_involution):
        from trivolve.algebra import Subspace, induced_subalgebra

        sub, _ = induced_subalgebra(z2, Subspace(np.eye(2), z2))
        rho = make_map(z2_involution.matrix, conjugating=True, source=sub)
        found = search_trivolutions(z2, {"family": "pairs",
                                         "pairs": [(identity_map(z2), rho)]})
        assert len(found) == 1
        assert classify_star_map(z2, found[0]).kind == "involution"

    def test_unknown_family(self, c3):
        with pytest.raises(UsageError, match="unknown family 'mystery'"):
            search_trivolutions(c3, {"family": "mystery"})

    def test_pointwise_required(self, z2):
        with pytest.raises(UsageError, match="requires a pointwise function algebra"):
            search_trivolutions(z2, {"family": "function_indicator"})


def test_arens_oracle_battery(battery):
    seen = set()
    for inst in battery:
        if inst.algebra.dim > 8 or id(inst.algebra) in seen:
            continue
        seen.add(id(inst.algebra))
        structure = arens_products(inst.algebra, full_dual(inst.algebra))
        assert np.max(np.abs(structure.box - inst.algebra.structure)) < 1e-8
        assert np.max(np.abs(structure.diamond - inst.algebra.structure)) < 1e-8
        if len(seen) >= 10:
            break


def test_x_star_shares_the_quotient_coordinates(battery):
    # X* = A / X^perp: the box product is the quotient's structure in the same
    # coordinates, on the full dual and on every span of a proper subset of characters
    algebras = {id(inst.algebra): inst.algebra for inst in battery if inst.algebra.dim <= 6}
    count = 0
    for algebra in algebras.values():
        spaces = [full_dual(algebra)]
        if is_commutative(algebra):
            chars = [c.coords for c in find_characters(algebra).characters]
            spaces += [check_introverted(algebra, np.column_stack(subset))
                       for size in range(1, len(chars)) for subset in combinations(chars, size)]
        for space in spaces:
            arens = arens_products(algebra, space)
            quot, _ = quotient(algebra, space.annihilator)
            assert arens.box_algebra.basis_labels == quot.basis_labels
            assert np.max(np.abs(arens.box - quot.structure)) <= 1e-12
            count += 1
    assert count == 462
