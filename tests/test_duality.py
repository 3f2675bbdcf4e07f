"""Dual actions, Arens products, involution extension, characters, means."""

import json
from itertools import combinations

import numpy as np
import pytest

from trivolve.algebra import (
    basis_products,
    cyclic_group_table,
    function_algebra,
    group_algebra,
    is_commutative,
    make_algebra,
    matrix_algebra,
    quotient,
)
from trivolve.duality import (
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
    instance_battery,
    standard_group_involution,
)
from trivolve.linalg import EPS, column_space_and_nullspace
from trivolve.starmap import conjugation_map, make_map
from trivolve.trivolution import classify_star_map

from spec_writers import SAMPLE_SPECS


def dual_numbers():
    """C[x]/x^2: commutative, not semisimple."""
    structure = np.zeros((2, 2, 2), dtype=complex)
    structure[0, 0, 0] = 1.0
    structure[0, 1, 1] = 1.0
    structure[1, 0, 1] = 1.0
    return make_algebra(2, structure, ["one", "x"])


def act(algebra, lam, a, side):
    """``lam . a`` (side "right") or ``a . lam`` (side "left"), at ``b_y``: ``<lam, a b_y>`` or
    ``<lam, b_y a>``."""
    values = basis_products(algebra.structure, np.asarray(lam, dtype=complex)[None, :])[:, :, 0]
    return a @ (values if side == "right" else values.T)


class TestDualAction:
    def test_group_translation(self, z2):
        lam = np.array([1.0, 0.0])  # dual of e
        g = np.array([0.0, 1.0], dtype=complex)
        assert np.allclose(act(z2, lam, g, "right"), [0.0, 1.0])  # dual of g

    def test_identity_acts_trivially(self, z3):
        rng = np.random.default_rng(0)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for side in ("right", "left"):
            assert np.allclose(act(z3, lam, z3.identity_coords, side), lam)

    def test_pointwise_annihilation(self, c2):
        for side in ("right", "left"):
            assert np.allclose(act(c2, np.array([1.0, 0.0]), np.array([0.0, 1.0], dtype=complex),
                                   side), 0.0)

    def test_module_law(self, z3):
        # (lam . a) . b = lam . (ab) and a . (b . lam) = (ab) . lam on basis pairs
        from trivolve.algebra import multiply

        rng = np.random.default_rng(1)
        lam = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for i in range(3):
            for j in range(3):
                a, b = np.eye(z3.dim, dtype=complex)[i], np.eye(z3.dim, dtype=complex)[j]
                ab = multiply(z3, a, b)
                step = act(z3, act(z3, lam, a, "right"), b, "right")
                assert np.max(np.abs(step - act(z3, lam, ab, "right"))) < 1e-9
                step = act(z3, act(z3, lam, b, "left"), a, "left")
                assert np.max(np.abs(step - act(z3, lam, ab, "left"))) < 1e-9

    def test_left_action_of_a_matrix_unit(self, m2):
        # <E12 . lam, b> = <lam, b E12>: only b = E21 (giving E22) and b = E11 (giving E12) count
        lam = np.array([0.0, 2.0, 0.0, 3.0])  # 2 E12* + 3 E22*
        assert np.allclose(act(m2, lam, np.eye(4, dtype=complex)[1], "left"), [2.0, 0.0, 3.0, 0.0])


class TestIntroverted:
    def test_full_dual_flags(self, z2):
        space = full_dual(z2)
        assert space.introverted and space.faithful

    def test_coordinate_line(self, c2):
        space = check_introverted(c2, np.array([[1.0], [0.0]]))
        assert space.introverted
        assert not space.faithful

    def test_augmentation_line(self, z2):
        space = check_introverted(z2, np.array([[1.0], [1.0]]))
        assert space.introverted
        assert not space.faithful

    def test_non_submodule_reported_not_raised(self):
        duals = dual_numbers()
        space = check_introverted(duals, np.array([[0.0], [1.0]]))  # dual of x
        assert not space.introverted
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
        assert info.value.details == {"escape": "lambda_0 . b_1 escapes X"}


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
        values = sorted(round(c[1].real) for c in search.characters)
        assert values == [-1, 1]

    def test_pointwise_evaluations(self, c3):
        search = find_characters(c3)
        assert not search.possibly_incomplete
        got = {tuple(np.round(c.real, 6)) for c in search.characters}
        assert got == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_z3_roots_of_unity(self, z3):
        search = find_characters(z3)
        assert len(search.characters) == 3
        omega = np.exp(2j * np.pi / 3)
        expected = {tuple(np.round([1, w, w * w], 6)) for w in (1, omega, omega.conjugate())}
        got = {tuple(np.round(c, 6)) for c in search.characters}
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

    def test_verify_character_keeps_a_read_only_copy(self):
        v = np.array([1, 0], dtype=complex)
        phi = verify_character(function_algebra(2), v)
        v[0] = 5
        assert np.array_equal(phi, [1, 0])
        assert not phi.flags.writeable

    def test_character_composed_with_trivolution_multiplicative(self, z3):
        tau = standard_group_involution(z3, cyclic_group_table(3))
        for phi in find_characters(z3).characters:
            composed = np.conj(tau.matrix.T @ phi)
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

    def test_non_introverted_rejected(self, z3):
        # the module actions on X* need X introverted, even for a character that lies in X
        space = check_introverted(z3, np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
        assert not space.introverted
        phi = verify_character(z3, [1.0, 1.0, 1.0])
        with pytest.raises(CertificationFailure) as info:
            tim_set(z3, space, phi)
        assert info.value.law == "X topologically introverted"
        assert info.value.details == {"escape": space.diagnostic}

    def test_obstruction_chain_z2(self, z2, z2_involution):
        space = full_dual(z2)
        phi = verify_character(z2, [1.0, 1.0])
        arens = arens_products(z2, space)
        star = extend_involution(z2, z2_involution, arens)
        report = tim_obstruction_check(z2, tim_set(z2, space, phi), phi, star, arens)
        assert report.unique and not report.vacuous
        assert max(report.chain_residuals.values()) <= 1e-9

    def test_obstruction_chain_pointwise(self, c3):
        space = full_dual(c3)
        conj = conjugation_map(c3)
        arens = arens_products(c3, space)
        star = extend_involution(c3, conj, arens)
        for phi in find_characters(c3).characters:
            report = tim_obstruction_check(c3, tim_set(c3, space, phi), phi, star, arens)
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
        report = tim_obstruction_check(duals, means, phi, star, arens)
        assert report.vacuous and report.unique


def svd_tim_set(algebra, space, phi):
    """The tall-system route ``tim_set`` replaced, kept as a reference: ``(particular, affine_dim)``.

    The ``(2nk+1) x k`` system of the blocks ``a.m - phi(a) m`` and ``m.a - phi(a) m``
    over the row ``<m, phi> = 1``, solved by one SVD; ``(None, None)`` when its
    residual exceeds ``EPS``.
    """
    n = algebra.dim
    free = space.free
    k = len(free)
    c = algebra.structure
    left = space.rep_coords(c[:, free, :].transpose(2, 0, 1).reshape(n, n * k)).reshape(k, n, k)
    right = space.rep_coords(c[free, :, :].transpose(2, 1, 0).reshape(n, n * k)).reshape(k, n, k)
    blocks = (np.stack([left, right]).transpose(2, 0, 1, 3)
              - phi[:, None, None, None] * np.eye(k))
    system = np.vstack([blocks.reshape(2 * n * k, k), phi[free].reshape(1, -1)])
    target = np.zeros(2 * n * k + 1, dtype=complex)
    target[-1] = 1.0
    _, kernel, u, residual = column_space_and_nullspace(system, target)
    if residual > EPS:
        return None, None
    return space.embed_coords(u), kernel.shape[1]


def scaled_sum(s: float, skew: float):
    """C (+) C in the basis ``b1 = e1 + skew e2``, ``b2 = s e2``, and its two characters.

    For small ``s`` the invariant-mean system's condition number is about ``2 / s``, and
    ``skew = 1`` makes its Gram matrix non-diagonal.
    """
    basis = np.array([[1.0, 0.0], [skew, s]])  # column j: b_j over e1, e2
    inverse = np.linalg.inv(basis)
    structure = np.zeros((2, 2, 2))
    for i, j in np.ndindex(2, 2):
        structure[i, j] = inverse @ (basis[:, i] * basis[:, j])
    algebra = make_algebra(2, structure)
    return algebra, [verify_character(algebra, row) for row in basis]


def tim_cases():
    """``(label, algebra, space, characters, tolerance)``: every commutative battery algebra
    with its full dual, z2 with the line of ``sample_specs/x_z2.json``, C (+) C in badly
    scaled bases and the dual numbers.

    ``tolerance`` bounds ``tim_set``'s distance from the SVD route's mean.  A residual at
    most ``EPS`` leaves a distance up to about ``EPS / s`` when the system's smallest
    singular value is ``s``; the well-scaled algebras agree far closer.
    """
    seen = set()
    for instance in instance_battery(0):
        algebra = instance.algebra
        if is_commutative(algebra) and id(algebra) not in seen:
            seen.add(id(algebra))
            yield (instance.name, algebra, full_dual(algebra),
                   find_characters(algebra).characters, 1e-12)
    z2 = group_algebra(cyclic_group_table(2), labels=["e", "g"])
    line = np.array(json.loads((SAMPLE_SPECS / "x_z2.json").read_text())["basis"]).T
    yield "z2 x_z2", z2, check_introverted(z2, line), [verify_character(z2, [1.0, 1.0])], 1e-12
    for s, skew in [(1e-5, 0.0), (1e-5, 1.0), (1e-7, 1.0)]:
        algebra, characters = scaled_sum(s, skew)
        yield f"C+C s={s} skew={skew}", algebra, full_dual(algebra), characters, EPS / s
    duals = dual_numbers()
    yield "dual_numbers", duals, full_dual(duals), find_characters(duals).characters, None


def test_tim_set_matches_the_svd_route():
    compared = 0
    for label, algebra, space, characters, tolerance in tim_cases():
        for phi in characters:
            means = tim_set(algebra, space, phi)
            particular, affine_dim = svd_tim_set(algebra, space, phi)
            assert means.is_empty == (particular is None), label
            assert means.affine_dim == affine_dim, label
            if particular is not None:
                assert np.max(np.abs(means.particular - particular)) <= tolerance, label
            assert means.is_empty == (label == "dual_numbers"), label
            compared += 1
    assert compared == 97  # 19 battery algebras of dim 2 to 8, every character; then 1 + 6 + 1


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
            chars = find_characters(algebra).characters
            spaces += [check_introverted(algebra, np.column_stack(subset))
                       for size in range(1, len(chars)) for subset in combinations(chars, size)]
        for space in spaces:
            arens = arens_products(algebra, space)
            quot, _ = quotient(algebra, space.annihilator)
            assert arens.box_algebra.basis_labels == quot.basis_labels
            assert np.max(np.abs(arens.box - quot.structure)) <= 1e-12
            count += 1
    assert count == 462
