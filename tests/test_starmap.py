"""Map calculus: application, composition, adjoints, kernels, multiplicativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve.algebra import function_algebra, induced_subalgebra, matrix_algebra
from trivolve.errors import UsageError
from trivolve.starmap import (
    adjoint,
    apply,
    classify_multiplicativity,
    compose,
    conjugation_map,
    identity_map,
    kernel_image,
    make_map,
    map_norm,
)

complex_scalars = st.builds(complex,
                            st.floats(-3, 3, allow_nan=False),
                            st.floats(-3, 3, allow_nan=False))


class TestMakeAndApply:
    def test_shape_mismatch(self, c2, c3):
        with pytest.raises(UsageError, match=r"matrix shape \(3, 3\) does not match"):
            make_map(np.eye(3), conjugating=False, source=c2)
        make_map(np.zeros((2, 3)), conjugating=False, source=c3, target=c2)  # fine

    def test_remark_map(self, c2, remark_tau):
        out = apply(remark_tau, c2.element([1j, 7.0]))
        assert np.allclose(out.coords, [-1j, 0.0])

    def test_conjugation_on_group_algebra(self, z2):
        conj = conjugation_map(z2)
        out = apply(conj, z2.element([1 + 1j, 0.0]))
        assert np.allclose(out.coords, [1 - 1j, 0.0])

    def test_zero_map(self, c2):
        zero = make_map(np.zeros((2, 2)), conjugating=True, source=c2)
        assert np.allclose(apply(zero, c2.element([3, 4j])).coords, 0.0)

    def test_wrong_algebra(self, c2, c3, remark_tau):
        with pytest.raises(UsageError, match="element does not belong to the map's source"):
            apply(remark_tau, c3.element([1, 2, 3]))

    @given(alpha=complex_scalars, coords=st.lists(complex_scalars, min_size=2, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_linearity(self, alpha, coords):
        c2 = function_algebra(2)
        tau = make_map([[1.0, 0.0], [0.0, 0.0]], conjugating=True, source=c2)
        x = c2.element(coords)
        lhs = apply(tau, alpha * x).coords
        rhs = np.conj(alpha) * apply(tau, x).coords
        bound = 1e-9 * (1 + abs(alpha)) * (1 + np.max(np.abs(x.coords)))
        assert np.max(np.abs(lhs - rhs)) <= bound


class TestCompose:
    def test_square_is_linear_projection(self, c2, remark_tau):
        p = compose(remark_tau, remark_tau)
        assert not p.conjugating
        assert np.allclose(p.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_cube_reproduces(self, c2, remark_tau):
        cubed = compose(remark_tau, compose(remark_tau, remark_tau))
        assert cubed.conjugating
        assert np.allclose(cubed.matrix, remark_tau.matrix)

    def test_conjugation_squares_to_identity(self, c3):
        conj = conjugation_map(c3)
        sq = compose(conj, conj)
        assert not sq.conjugating
        assert np.allclose(sq.matrix, np.eye(3))

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_composition_against_pointwise_oracle(self, data):
        # the composite must act like f(g(x)) for every flag combination
        c2 = function_algebra(2)
        rng_vals = data.draw(st.lists(complex_scalars, min_size=14, max_size=14))
        f_mat = np.array(rng_vals[:4]).reshape(2, 2)
        g_mat = np.array(rng_vals[4:8]).reshape(2, 2)
        coords = rng_vals[8:10]
        f_flag = data.draw(st.booleans())
        g_flag = data.draw(st.booleans())
        f = make_map(f_mat, conjugating=f_flag, source=c2)
        g = make_map(g_mat, conjugating=g_flag, source=c2)
        x = c2.element(coords)
        composite = compose(f, g)
        assert composite.conjugating == (f_flag != g_flag)
        direct = apply(f, apply(g, x)).coords
        via = apply(composite, x).coords
        assert np.max(np.abs(direct - via)) < 1e-9


class TestMultiplicativity:
    def test_remark_map_on_commutative(self, c2, remark_tau):
        flags = classify_multiplicativity(remark_tau)
        assert flags.homomorphism and flags.anti_homomorphism

    def test_conjugate_transpose(self, m2, m2_star):
        flags = classify_multiplicativity(m2_star)
        assert not flags.homomorphism
        assert flags.anti_homomorphism

    def test_plain_transpose(self, m2):
        transpose = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                transpose[j * 2 + i, i * 2 + j] = 1.0
        flags = classify_multiplicativity(make_map(transpose, conjugating=False, source=m2))
        assert not flags.homomorphism
        assert flags.anti_homomorphism


class TestAdjoint:
    def test_remark_adjoint_frozen_value(self, remark_tau):
        adj = adjoint(remark_tau)
        # oracle: <tau*(f), a> = conj <f, tau(a)> evaluated on the basis
        f = np.array([1.0, 1.0], dtype=complex)
        image = adj.matrix @ np.conj(f)
        for a in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            lhs = image @ a
            rhs = np.conj(f @ (remark_tau.matrix @ np.conj(a)))
            assert abs(lhs - rhs) < 1e-12
        assert np.allclose(image, [1.0, 0.0])

    def test_identity_map(self, c2):
        adj = adjoint(identity_map(c2))
        assert np.allclose(adj.matrix, np.eye(2))

    def test_double_adjoint_restricts(self, remark_tau):
        double = adjoint(adjoint(remark_tau))
        assert double.conjugating
        assert np.allclose(double.matrix, remark_tau.matrix)

    def test_linear_adjoint_pairing(self, z3):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        f = make_map(mat, conjugating=False, source=z3)
        adj = adjoint(f)
        phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert abs((adj.matrix @ phi) @ a - phi @ (mat @ a)) < 1e-9


class TestKernelImage:
    def test_remark_split(self, c2, remark_tau):
        kernel, image = kernel_image(remark_tau)
        assert kernel.dim == 1 and image.dim == 1
        assert kernel.contains([0.0, 1.0])
        assert image.contains([1.0, 0.0])

    def test_conjugation_bijective(self, c2):
        kernel, image = kernel_image(conjugation_map(c2))
        assert kernel.dim == 0 and image.dim == 2

    def test_zero_map(self, c2):
        kernel, image = kernel_image(make_map(np.zeros((2, 2)), True, c2))
        assert kernel.dim == 2 and image.dim == 0

    def test_rank_nullity_exact(self, battery):
        for inst in battery[::25]:
            kernel, image = kernel_image(inst.tau)
            assert kernel.dim + image.dim == inst.algebra.dim
            # the kernel really is annihilated
            for col in kernel.basis.T:
                out = apply(inst.tau, inst.algebra.element(col))
                assert np.max(np.abs(out.coords)) < 1e-9

    def test_antihom_image_is_subalgebra(self, battery):
        for inst in battery[::25]:
            _, image = kernel_image(inst.tau)
            induced_subalgebra(inst.algebra, image)  # certifies closure under multiplication


def test_map_norm_ell1_exact(remark_tau):
    assert map_norm(remark_tau) == pytest.approx(1.0)
