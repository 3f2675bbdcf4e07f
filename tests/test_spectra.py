"""Spectra via the regular representation and the conjugation inclusion."""

import numpy as np
import pytest

from trivolve.algebra import (
    function_algebra,
    left_mult_matrix,
    make_algebra,
    multiply,
)
from trivolve.errors import CertificationFailure
from trivolve.instances import first_column_algebra
from trivolve.spectra import inverse_element, spectrum, verify_spectral_inclusion
from trivolve.starmap import make_map


def sorted_multiset(values):
    return sorted((round(v.real, 7), round(v.imag, 7)) for v in values)


class TestSpectrum:
    def test_pointwise_diagonal(self, c2):
        spec = spectrum(c2, np.array([2 + 1j, 5.0], dtype=complex))
        assert sorted_multiset(spec.values) == sorted_multiset([2 + 1j, 5.0])
        assert spec.computed_in == "algebra"

    def test_nilpotent_matrix_unit(self, m2):
        spec = spectrum(m2, np.eye(m2.dim, dtype=complex)[1])  # E12
        assert sorted_multiset(spec.values) == [(0.0, 0.0)] * 4

    def test_group_algebra_projection_pair(self, z2):
        # oracle: L_{e+g} = [[1,1],[1,1]] has characteristic roots 0 and 2
        x = np.array([1.0, 1.0], dtype=complex)
        l_x = left_mult_matrix(z2, x)
        assert np.allclose(l_x, [[1, 1], [1, 1]])
        spec = spectrum(z2, x)
        assert sorted_multiset(spec.values) == [(0.0, 0.0), (2.0, 0.0)]

    def test_non_unital_goes_to_unitization(self):
        col = first_column_algebra()
        spec = spectrum(col, np.array([1.0, 0.0], dtype=complex))
        assert spec.computed_in == "unitization"
        assert len(spec.values) == 3

    def test_cardinality_matches_dim(self, battery):
        rng = np.random.default_rng(6)
        for inst in battery[::40]:
            x = np.array(rng.standard_normal(inst.algebra.dim), dtype=complex)
            assert len(spectrum(inst.algebra, x).values) == inst.algebra.dim

    def test_similarity_invariance(self, z3):
        rng = np.random.default_rng(8)
        x_coords = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        baseline = spectrum(z3, x_coords)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t_inv = np.linalg.inv(t)
        # transport the structure tensor along the change of basis
        moved = np.einsum("ai,bj,abm,mk->ijk", t, t, z3.structure, t_inv.T)
        new_alg = make_algebra(3, moved)
        new_spec = spectrum(new_alg, t_inv @ x_coords)
        for mine, theirs in zip(sorted_multiset(baseline.values),
                                sorted_multiset(new_spec.values)):
            assert abs(complex(*mine) - complex(*theirs)) < 1e-6


class TestInverse:
    def test_pointwise(self, c2):
        inv = inverse_element(c2, np.array([2.0, 5.0], dtype=complex))
        assert np.allclose(inv, [0.5, 0.2])

    def test_singular_absent(self, c2):
        assert inverse_element(c2, np.array([1.0, 0.0], dtype=complex)) is None

    def test_zero_divisor_absent(self, z2):
        x = np.array([1.0, 1.0], dtype=complex)
        y = np.array([1.0, -1.0], dtype=complex)
        assert np.allclose(multiply(z2, x, y), 0.0)  # oracle
        assert inverse_element(z2, x) is None

    def test_requires_identity(self):
        col = first_column_algebra()
        with pytest.raises(CertificationFailure) as info:
            inverse_element(col, np.array([1.0, 0.0], dtype=complex))
        assert info.value.law == "A has an identity"

    def test_inverse_spectrum_reciprocal(self, battery):
        rng = np.random.default_rng(12)
        checked = 0
        for inst in battery[::30]:
            algebra = inst.algebra
            x = algebra.identity_coords + 0.2 * rng.standard_normal(algebra.dim)
            inv = inverse_element(algebra, x)
            if inv is None:
                continue
            spec = spectrum(algebra, x)
            spec_inv = spectrum(algebra, inv)
            inverted = sorted_multiset([1.0 / v for v in spec.values])
            assert all(abs(complex(*a) - complex(*b)) < 1e-7
                       for a, b in zip(inverted, sorted_multiset(spec_inv.values)))
            checked += 1
        assert checked >= 3


class TestSpectralInclusion:
    def test_remark_frozen_values(self, c2, remark_tau):
        report = verify_spectral_inclusion(c2, remark_tau, np.array([2 + 1j, 5.0], dtype=complex))
        assert sorted_multiset(report.spectrum_in_range.values) == [(2.0, -1.0)]
        assert report.included
        assert report.inverse_checked
        assert report.inverse_residual <= 1e-9

    def test_involution_spectra_conjugate(self, m2, m2_star):
        x = np.array([1.0, 0.0, 0.0, 2.0], dtype=complex)  # diag(1, 2)
        report = verify_spectral_inclusion(m2, m2_star, x)
        assert report.included
        assert sorted_multiset(report.spectrum_in_range.values) == \
            sorted_multiset(np.conj(np.array(report.spectrum_in_algebra.values)))

    def test_identity_element(self, c2, remark_tau):
        report = verify_spectral_inclusion(c2, remark_tau, c2.identity_coords)
        assert sorted_multiset(report.spectrum_in_range.values) == [(1.0, 0.0)]
        assert report.included

    def test_never_fails_on_battery(self, battery):
        rng = np.random.default_rng(14)
        for inst in battery[::15]:
            coords = rng.standard_normal(inst.algebra.dim) \
                + 1j * rng.standard_normal(inst.algebra.dim)
            report = verify_spectral_inclusion(inst.algebra, inst.tau, coords)
            assert report.included

    def test_non_unital_range_rejected(self, m2):
        # a map whose image is the nilpotent line C.E12 has no range identity
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[1, 0] = 1.0
        f = make_map(matrix, conjugating=True, source=m2)
        with pytest.raises(CertificationFailure) as info:
            verify_spectral_inclusion(m2, f, np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))
        assert info.value.law == "tau(A) has an identity"
