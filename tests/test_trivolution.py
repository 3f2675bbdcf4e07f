"""Classification, canonical splitting, factorization, element classes."""

import numpy as np
import pytest

from trivolve.algebra import (
    Subspace,
    function_algebra,
    induced_subalgebra,
    matrix_algebra,
    multiply,
    product_algebra,
)
from trivolve.errors import CertificationFailure, UsageError
from trivolve.linalg import EPS, EPS_RANK, max_abs, realify_conjugation_fixed_points
from trivolve.instances import (
    conjugate_transpose_involution,
    first_column_algebra,
    indicator_trivolution,
    remark_pair,
)
from trivolve.starmap import (
    AlgMap,
    apply,
    classify_multiplicativity,
    compose,
    conjugation_map,
    identity_map,
    kernel_image,
    make_map,
)
from trivolve.trivolution import (
    canonical_decomposition,
    check_positive,
    check_trivolutive_hom,
    classify_star_map,
    element_classes,
    factor_through_involution,
    hermitian_decomposition,
    hermitian_functional_check,
    make_trivolution,
    right_identity_trivolution,
)


def maps_equal(f, g, tol=EPS):
    """The same conjugation flag, and matrices of one shape that agree within ``tol``."""
    return (f.conjugating == g.conjugating and f.matrix.shape == g.matrix.shape
            and max_abs(f.matrix - g.matrix) <= tol)


class TestClassify:
    def test_conjugate_transpose_is_involution(self, m2, m2_star):
        verdict = classify_star_map(m2, m2_star)
        assert verdict.kind == "involution"
        assert verdict.is_injective and verdict.cubes_to_self

    def test_remark_map_is_proper(self, c2, remark_tau):
        verdict = classify_star_map(c2, remark_tau)
        assert verdict.kind == "trivolution_proper"
        assert not verdict.is_injective

    def test_indicator_on_c3(self, c3):
        tau = indicator_trivolution(c3, (0, 1))
        assert classify_star_map(c3, tau).kind == "trivolution_proper"

    def test_zero_map_rejected(self, c2):
        zero = make_map(np.zeros((2, 2)), conjugating=True, source=c2)
        assert classify_star_map(c2, zero).kind == "not_star"

    def test_linear_map_rejected(self, c2):
        linear = make_map(np.eye(2), conjugating=False, source=c2)
        assert classify_star_map(c2, linear).kind == "not_star"

    def test_battery_cubes_to_self(self, battery):
        # randomized p/rho compositions over the structured families
        for inst in battery[::7]:
            assert classify_star_map(inst.algebra, inst.tau).cubes_to_self


class TestCanonicalDecomposition:
    def test_reconstruction_matches_make_trivolution(self, battery):
        # make_trivolution is the reference: same formula, same columns, same bits
        for inst in battery:
            dec = canonical_decomposition(inst.algebra, inst.tau)
            rebuilt = make_trivolution(inst.algebra, dec.projection_p, dec.involution_rho)
            assert dec.residuals["reconstruction"] == max_abs(rebuilt.matrix - inst.tau.matrix)

    def test_remark_split(self, c2, remark_tau):
        dec = canonical_decomposition(c2, remark_tau)
        assert dec.ideal_I.dim == 1 and dec.ideal_I.residual([0, 1]) <= EPS
        assert dec.subalg_B.dim == 1 and dec.subalg_B.residual([1, 0]) <= EPS
        assert np.allclose(dec.projection_p.matrix, [[1, 0], [0, 0]])
        assert np.allclose(dec.involution_rho.matrix, [[1.0]])

    def test_involution_has_trivial_ideal(self, m2, m2_star):
        dec = canonical_decomposition(m2, m2_star)
        assert dec.ideal_I.dim == 0
        assert dec.subalg_B.dim == 4
        assert np.allclose(dec.projection_p.matrix, np.eye(4))

    def test_indicator_on_c3_split(self, c3):
        tau = indicator_trivolution(c3, (0, 1))
        dec = canonical_decomposition(c3, tau)
        assert dec.ideal_I.residual([0, 0, 1]) <= EPS
        assert np.all(dec.subalg_B.residuals(np.eye(3)[:, :2]) <= EPS)

    def test_rejects_non_star(self, c2):
        with pytest.raises(CertificationFailure) as info:
            canonical_decomposition(c2, identity_map(c2))
        assert info.value.law == "conjugate-linear anti-homomorphism with t^3 = t"

    def test_round_trip_battery(self, battery):
        for inst in battery[::6]:
            dec = canonical_decomposition(inst.algebra, inst.tau)
            assert dec.residuals["reconstruction"] <= 1e-8
            # restriction to the range squares to the identity
            assert dec.residuals["rho_squared"] <= 1e-8


class TestMakeTrivolution:
    def test_remark_reassembly(self, c2, remark_tau):
        p = make_map([[1, 0], [0, 0]], conjugating=False, source=c2)
        sub, _ = induced_subalgebra(c2, Subspace(np.array([[1.0], [0.0]]), c2))
        rho = make_map(np.eye(1), conjugating=True, source=sub)
        tau = make_trivolution(c2, p, rho)
        assert maps_equal(tau, remark_tau)

    def test_identity_projection_gives_involution(self, z2):
        sub, _ = induced_subalgebra(z2, Subspace(np.eye(2), z2))
        rho = make_map(np.eye(2), conjugating=True, source=sub)
        tau = make_trivolution(z2, identity_map(z2), rho)
        assert classify_star_map(z2, tau).kind == "involution"

    def test_product_projection(self, m2):
        prod = product_algebra(m2, m2)
        p_matrix = np.zeros((8, 8))
        p_matrix[:4, :4] = np.eye(4)
        p = make_map(p_matrix, conjugating=False, source=prod)
        sub, _ = induced_subalgebra(prod, Subspace(p_matrix[:, :4], prod))
        ct = conjugate_transpose_involution(m2, 2)
        rho = make_map(ct.matrix, conjugating=True, source=sub)
        tau = make_trivolution(prod, p, rho)
        verdict = classify_star_map(prod, tau)
        assert verdict.kind == "trivolution_proper"
        kernel, _ = kernel_image(tau)
        assert kernel.dim == 4
        assert kernel.residual([0, 0, 0, 0, 1, 0, 0, 0]) <= EPS

    def test_rejects_bad_projection(self, c2):
        sub, _ = induced_subalgebra(c2, Subspace(np.eye(2), c2))
        rho = make_map(np.eye(2), conjugating=True, source=sub)
        nilpotent = make_map([[0, 1], [0, 0]], conjugating=False, source=c2)
        with pytest.raises(CertificationFailure) as info:
            make_trivolution(c2, nilpotent, rho)
        assert info.value.law == "p o p = p"

    def test_rejects_bad_involution(self, c2):
        sub, _ = induced_subalgebra(c2, Subspace(np.eye(2), c2))
        not_inv = make_map([[2, 0], [0, 2]], conjugating=True, source=sub)
        with pytest.raises(CertificationFailure) as info:
            make_trivolution(c2, identity_map(c2), not_inv)
        assert info.value.law == "rho^2 = id, rho anti-multiplicative"

    def test_surjective_factorization_identity(self, c2, remark_tau, m2, m2_star):
        # rho1 = rho2 o tau is a surjective homomorphism onto the range,
        # and rho1 o rho2 is an involution of the range
        for algebra, tau in ((c2, remark_tau), (m2, m2_star)):
            dec = canonical_decomposition(algebra, tau)
            rho2 = dec.involution_rho
            coords_of = np.linalg.pinv(dec.embedding)
            rho1 = AlgMap(matrix=rho2.matrix @ np.conj(coords_of @ tau.matrix),
                          conjugating=False, source=algebra, target=rho2.source)
            assert classify_multiplicativity(rho1).homomorphism
            assert np.linalg.matrix_rank(rho1.matrix) == dec.subalg_B.dim
            rho1_on_b = AlgMap(matrix=rho1.matrix @ dec.embedding, conjugating=False,
                               source=rho2.source, target=rho2.source)
            square = compose(rho1_on_b, rho2)
            assert maps_equal(compose(square, square),
                              identity_map(rho2.source), tol=1e-9)


class TestFactorThroughInvolution:
    def test_remark_factorization(self, c2, remark_tau):
        fact = factor_through_involution(c2, remark_tau, conjugation_map(c2))
        assert fact.c.dim == 4
        assert fact.residuals["sigma_squared"] <= 1e-12
        assert fact.residuals["factorization"] <= 1e-12

    def test_c3_indicator(self, c3):
        tau = indicator_trivolution(c3, (0, 1))
        fact = factor_through_involution(c3, tau, conjugation_map(c3))
        assert fact.c.dim == 6

    def test_involution_degenerates(self, m2, m2_star):
        with pytest.raises(CertificationFailure) as info:
            factor_through_involution(m2, m2_star, conjugation_map(m2))
        assert info.value.law == "ker tau != 0"


class TestTrivolutiveHom:
    def test_identity_blocks(self, c2, remark_tau):
        blocks = check_trivolutive_hom(c2, remark_tau, c2, remark_tau, identity_map(c2))
        assert np.allclose(blocks.pi11.matrix, np.eye(1))
        assert np.allclose(blocks.pi22.matrix, np.eye(1))

    def test_projection_blocks(self, c2, remark_tau):
        pi = make_map([[1, 0], [0, 0]], conjugating=False, source=c2)
        blocks = check_trivolutive_hom(c2, remark_tau, c2, remark_tau, pi)
        assert np.allclose(blocks.pi11.matrix, [[0.0]])
        assert np.allclose(blocks.pi22.matrix, [[1.0]])
        assert blocks.residuals["off_diagonal"] <= 1e-12

    def test_swap_is_not_intertwining(self, c2, remark_tau):
        swap = make_map([[0, 1], [1, 0]], conjugating=False, source=c2)
        # oracle: tau(swap(e1)) = 0 but swap(tau(e1)) = e2
        lhs = apply(remark_tau, apply(swap, np.eye(c2.dim, dtype=complex)[0]))
        rhs = apply(swap, apply(remark_tau, np.eye(c2.dim, dtype=complex)[0]))
        assert np.max(np.abs(lhs - rhs)) > 0.5
        with pytest.raises(CertificationFailure) as info:
            check_trivolutive_hom(c2, remark_tau, c2, remark_tau, swap)
        assert info.value.law == "pi o tau1 = tau2 o pi"

    def test_diagonal_embedding(self, c2, remark_tau):
        prod = product_algebra(c2, c2)
        tau2 = make_map(np.block([[remark_tau.matrix, np.zeros((2, 2))],
                                  [np.zeros((2, 2)), remark_tau.matrix]]),
                        conjugating=True, source=prod)
        diag = make_map(np.vstack([np.eye(2), np.eye(2)]), conjugating=False,
                        source=c2, target=prod)
        blocks = check_trivolutive_hom(c2, remark_tau, prod, tau2, diag)
        assert blocks.residuals["off_diagonal"] <= 1e-12
        assert blocks.residuals["pi22_involutive"] <= 1e-12


class TestRightIdentity:
    def test_first_column_extension(self):
        col = first_column_algebra()
        e = np.array([1.0, 0.0], dtype=complex)
        sub = Subspace(np.array([[1.0], [0.0]]), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(col, e, sub, inner)
        assert np.allclose(tau1.matrix, [[1.0, 0.0], [0.0, 0.0]])
        kernel, _ = kernel_image(tau1)
        assert kernel.residual([0.0, 1.0]) <= EPS

    def test_alternative_right_identity(self):
        col = first_column_algebra()
        t = 0.75
        e = np.array([1.0, t], dtype=complex)
        sub = Subspace(np.array([[1.0], [t]]), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(col, e, sub, inner)
        verdict = classify_star_map(col, tau1)
        assert verdict.kind == "trivolution_proper"
        # different right identities produce genuinely different extensions
        assert not np.allclose(tau1.matrix, [[1.0, 0.0], [0.0, 0.0]])
        # tau(e) = e for the right identity inside the range
        assert np.allclose(apply(tau1, e), e)

    def test_unital_case_extends_trivially(self, c2, remark_tau):
        e = np.array([1.0, 1.0], dtype=complex)
        sub = Subspace(np.eye(2), c2)
        sub_alg, _ = induced_subalgebra(c2, sub)
        inner = make_map(remark_tau.matrix, conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(c2, e, sub, inner)
        assert maps_equal(tau1, remark_tau)

    def test_rejects_non_right_identity(self):
        col = first_column_algebra()
        sub = Subspace(np.array([[1.0], [0.0]]), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        with pytest.raises(CertificationFailure) as info:
            right_identity_trivolution(col, np.array([0.0, 1.0], dtype=complex), sub, inner)
        assert info.value.law == "x e = x"

    def test_unique_right_identity_in_range(self):
        # a right identity inside the range is fixed by the map and unique there
        col = first_column_algebra()
        e = np.array([1.0, 0.0], dtype=complex)
        sub = Subspace(np.array([[1.0], [0.0]]), col)
        sub_alg, _ = induced_subalgebra(col, sub)
        inner = make_map(np.eye(1), conjugating=True, source=sub_alg)
        tau1 = right_identity_trivolution(col, e, sub, inner)
        _, image = kernel_image(tau1)
        assert image.residual(e) <= EPS
        assert np.allclose(apply(tau1, e), e)
        # any other right identity (1, t) with t != 0 falls outside the range
        assert image.residual([1.0, 0.5]) > EPS


class TestElementClasses:
    def test_projection_element(self, c2, remark_tau):
        flags = element_classes(c2, remark_tau, np.array([1.0, 0.0], dtype=complex))
        assert flags.hermitian and flags.normal and flags.projection
        assert not flags.unitary

    def test_matrix_unit_not_normal(self, m2, m2_star):
        flags = element_classes(m2, m2_star, np.array([0, 1j, 0, 0], dtype=complex))
        assert not flags.hermitian
        assert not flags.normal  # E12 E21 != E21 E12

    def test_identity_is_unitary(self, m2, m2_star):
        flags = element_classes(m2, m2_star, m2.identity_coords)
        assert flags.hermitian and flags.normal and flags.projection and flags.unitary

    def test_unitaries_form_group(self, m2, m2_star):
        rng = np.random.default_rng(11)
        for _ in range(8):
            q1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            q2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            x = q1.reshape(-1)
            y = q2.reshape(-1)
            assert element_classes(m2, m2_star, x).unitary
            assert element_classes(m2, m2_star, multiply(m2, x, y)).unitary
            assert element_classes(m2, m2_star, apply(m2_star, x)).unitary


class TestPositivity:
    def test_scalar_square(self):
        c1 = function_algebra(1)
        conj = conjugation_map(c1)
        assert check_positive(c1, conj, np.array([4.0], dtype=complex),
                              np.array([2.0], dtype=complex))

    def test_remark_witness(self, c2, remark_tau):
        x = np.array([1.0, 0.0], dtype=complex)
        y = np.array([1.0, 5.0], dtype=complex)
        assert check_positive(c2, remark_tau, x, y)

    def test_negative_never_witnessed(self, c2, remark_tau):
        x = np.array([-1.0, 0.0], dtype=complex)
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert not check_positive(c2, remark_tau, x, y)

    def test_witness_recorded(self, c2, remark_tau):
        flags = element_classes(c2, remark_tau, np.array([1.0, 0.0], dtype=complex),
                                positive_witness=np.array([1.0, 5.0], dtype=complex))
        assert flags.positive_witness is not None


class TestHermitianTheory:
    def test_scalar_decomposition(self):
        c1 = function_algebra(1)
        conj = conjugation_map(c1)
        x1, x2 = hermitian_decomposition(conj, np.array([3.0 + 4.0j], dtype=complex))
        assert np.allclose(x1, [3.0])
        assert np.allclose(x2, [4.0])

    def test_remark_decomposition(self, c2, remark_tau):
        x1, x2 = hermitian_decomposition(remark_tau, np.array([1j, 0.0], dtype=complex))
        assert np.allclose(x1, [0.0, 0.0])
        assert np.allclose(x2, [1.0, 0.0])

    def test_outside_range(self, c2, remark_tau):
        with pytest.raises(CertificationFailure) as info:
            hermitian_decomposition(remark_tau, np.array([0.0, 1.0], dtype=complex))
        assert info.value.law == "x in tau(A)"

    def test_the_pair_is_the_one_solution_of_the_real_system(self, battery):
        # x1 + i x2 = x over the hermitians, as a real system in the coefficients of a real
        # basis of the hermitians: its null space is 0, and it solves to the returned pair
        rng = np.random.default_rng(3)
        for inst in battery:
            n = inst.algebra.dim
            h = realify_conjugation_fixed_points(inst.tau.matrix)
            system = np.block([[h.real, -h.imag], [h.imag, h.real]])
            s = np.linalg.svd(system, compute_uv=False)
            assert np.sum(s > EPS_RANK) == system.shape[1], inst.name  # no null space
            half = h.shape[1]
            for _ in range(3):
                x = apply(inst.tau, rng.standard_normal(n) + 1j * rng.standard_normal(n))
                x1, x2 = hermitian_decomposition(inst.tau, x)
                coeffs, *_ = np.linalg.lstsq(system, np.concatenate([x.real, x.imag]), rcond=None)
                assert max_abs(h @ coeffs[:half] - x1) <= 1e-12, inst.name
                assert max_abs(h @ coeffs[half:] - x2) <= 1e-12, inst.name

    def test_functional_checks(self, c2, remark_tau):
        conj2 = conjugation_map(c2)
        assert hermitian_functional_check(c2, conj2, [1.0, 2.0]).is_hermitian
        assert hermitian_functional_check(c2, remark_tau, [1.0, 0.0]).is_hermitian
        assert not hermitian_functional_check(c2, remark_tau, [1.0, 1.0]).is_hermitian

    def test_imaginary_scalar_functional(self):
        c1 = function_algebra(1)
        conj = conjugation_map(c1)
        assert not hermitian_functional_check(c1, conj, [1j]).is_hermitian

    def test_functional_check_rejects_a_linear_map(self, c2):
        with pytest.raises(UsageError, match="needs a conjugate-linear map"):
            hermitian_functional_check(c2, identity_map(c2), [1.0, 2.0])

    def test_adjoint_triple_power_collapses(self, battery):
        rng = np.random.default_rng(9)
        for inst in battery[::30]:
            adj = np.conj(inst.tau.matrix.T)

            def f_tau(v):
                return adj @ np.conj(v)

            f = rng.standard_normal(inst.algebra.dim) + 1j * rng.standard_normal(inst.algebra.dim)
            assert np.max(np.abs(f_tau(f_tau(f_tau(f))) - f_tau(f))) < 1e-9
