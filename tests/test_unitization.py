"""Extensions of a trivolution to the algebra with adjoined unit."""

from dataclasses import fields

import numpy as np
import pytest

from trivolve.algebra import function_algebra, make_algebra, multiply
from trivolve.errors import CertificationFailure
from trivolve.instances import c4_indicator_pair, indicator_trivolution, remark_pair
from trivolve.starmap import apply, conjugation_map, kernel_image, make_map
from trivolve.trivolution import classify_star_map
from trivolve.unitization import (
    FAMILY_INVALID,
    ExtensionSpec,
    contractive_extensions,
    extension_map,
    find_type1_solutions,
    range_identity,
    verify_extension,
)


def range_data(algebra, tau):
    """The range data ``verify_extension`` takes: ``image`` and ``e_b``."""
    image = kernel_image(tau)[1]
    return {"e_b": range_identity(algebra, image), "image": image}


def brute_force_family_one(algebra, tau, x0, tol=1e-9):
    """Oracle: the three conditions checked by direct multiplication."""
    sq = multiply(algebra, x0, x0)
    if np.max(np.abs(sq + x0)) > tol:
        return False
    for i in range(algebra.dim):
        image = apply(tau, np.eye(algebra.dim, dtype=complex)[i])
        left = multiply(algebra, x0, image)
        right = multiply(algebra, image, x0)
        if np.max(np.abs(left)) > tol or np.max(np.abs(right)) > tol:
            return False
    return np.max(np.abs(apply(tau, x0))) <= tol


class TestVerifyExtension:
    def test_canonical_always_valid(self, battery):
        for inst in battery[::40]:
            spec = verify_extension(inst.algebra, inst.tau, 1.0,
                                    np.zeros(inst.algebra.dim, dtype=complex),
                                    **range_data(inst.algebra, inst.tau))
            assert spec.family == "type_I"

    def test_remark_family_one(self):
        algebra, tau = remark_pair()
        x0 = np.array([0.0, -1.0], dtype=complex)
        assert brute_force_family_one(algebra, tau, x0)
        spec = verify_extension(algebra, tau, 1.0, x0, **range_data(algebra, tau))
        assert spec.family == "type_I"

    def test_remark_family_two(self):
        algebra, tau = remark_pair()
        spec = verify_extension(algebra, tau, 0.0, np.array([1.0, 0.0], dtype=complex),
                                **range_data(algebra, tau))
        assert spec.family == "type_II"

    def test_positive_idempotent_rejected(self):
        algebra, tau = remark_pair()
        spec = verify_extension(algebra, tau, 1.0, np.array([0.0, 1.0], dtype=complex),
                                **range_data(algebra, tau))
        assert spec.family == "invalid"

    def test_wrong_scalar_rejected(self):
        algebra, tau = remark_pair()
        data = range_data(algebra, tau)
        for lam0 in (0.5, 1 + 1j, -1.0):
            spec = verify_extension(algebra, tau, lam0, np.zeros(algebra.dim, dtype=complex),
                                    **data)
            assert spec.family == "invalid"

    def test_random_scan_consistency(self):
        # verify_extension itself asserts classification == family verdict
        algebra, tau = remark_pair()
        data = range_data(algebra, tau)
        rng = np.random.default_rng(4)
        for _ in range(60):
            lam0 = complex(rng.standard_normal(), rng.standard_normal())
            x0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            verify_extension(algebra, tau, lam0, x0, **data)


class TestUnitize:
    """``(A#, t#)`` from ``extension_map`` for candidates ``verify_extension`` judged."""

    def test_canonical_extension_structure(self):
        algebra, tau = remark_pair()
        spec = verify_extension(algebra, tau, 1.0, np.zeros(algebra.dim, dtype=complex),
                                **range_data(algebra, tau))
        sharp, tau_sharp = extension_map(algebra, tau, spec.lambda0, spec.x0)
        assert sharp.dim == 3
        assert np.allclose(sharp.identity_coords, [1.0, 0.0, 0.0])
        # restricts to tau on the embedded algebra
        assert np.allclose(tau_sharp.matrix[1:, 1:], tau.matrix)
        assert classify_star_map(sharp, tau_sharp).is_trivolution

    def test_type_two_maps_unit_into_range(self):
        algebra, tau = remark_pair()
        spec = verify_extension(algebra, tau, 0.0, np.array([1.0, 0.0], dtype=complex),
                                **range_data(algebra, tau))
        sharp, tau_sharp = extension_map(algebra, tau, spec.lambda0, spec.x0)
        unit = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert np.allclose(apply(tau_sharp, unit), [0.0, 1.0, 0.0])

    def test_invalid_rejected(self):
        algebra, tau = remark_pair()
        bad = verify_extension(algebra, tau, 1.0, np.array([0.0, 1.0], dtype=complex),
                               **range_data(algebra, tau))
        assert bad.family == FAMILY_INVALID
        sharp, tau_sharp = extension_map(algebra, tau, bad.lambda0, bad.x0)
        assert not classify_star_map(sharp, tau_sharp).is_trivolution


class TestType1Solver:
    def test_specs_equal_fresh_verification(self, m2, m2_star):
        # the family-I specs and the family-II one, each against a fresh verification
        for algebra, tau in (remark_pair(), c4_indicator_pair(), (m2, m2_star)):
            result = find_type1_solutions(algebra, tau)
            data = range_data(algebra, tau)
            assert result.type2 is not None
            pairs = [(spec, verify_extension(algebra, tau, 1.0, spec.x0, **data))
                     for spec in result.specs]
            pairs.append((result.type2, verify_extension(algebra, tau, 0.0, data["e_b"], **data)))
            for spec, fresh in pairs:
                for f in fields(ExtensionSpec):
                    got, want = getattr(spec, f.name), getattr(fresh, f.name)
                    if f.name == "x0":
                        assert np.array_equal(got, want)
                    else:
                        assert got == want, f.name

    def test_remark_solutions(self):
        algebra, tau = remark_pair()
        result = find_type1_solutions(algebra, tau)
        got = {tuple(np.round(x, 9).tolist()) for x in result.solutions}
        assert got == {(0j, 0j), (0j, (-1 + 0j))}
        assert not result.best_effort

    def test_involution_only_zero(self, m2, m2_star):
        result = find_type1_solutions(m2, m2_star)
        assert len(result.solutions) == 1
        assert np.allclose(result.solutions[0], 0.0)

    def test_c4_solution_set_matches_enumeration(self):
        algebra, tau = c4_indicator_pair()
        # oracle: brute-force scan of sign patterns on the last two coordinates
        expected = set()
        for s3 in (0.0, -1.0):
            for s4 in (0.0, -1.0):
                x0 = np.array([0.0, 0.0, s3, s4], dtype=complex)
                if brute_force_family_one(algebra, tau, x0):
                    expected.add((s3, s4))
        assert expected == {(0.0, 0.0), (-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0)}
        result = find_type1_solutions(algebra, tau)
        got = {(round(x[2].real, 9), round(x[3].real, 9))
               for x in result.solutions}
        assert got == expected
        assert len(result.solutions) == 4
        assert not result.best_effort

    def test_solution_set_closed_under_products(self):
        # idempotent dominance: products of solutions stay in the set
        algebra, tau = c4_indicator_pair()
        result = find_type1_solutions(algebra, tau)
        coords = result.solutions
        for a in coords:
            for b in coords:
                product = multiply(algebra, -a, -b)
                assert any(np.allclose(-product, c) for c in coords)


class TestContractive:
    def test_remark_exactly_two(self):
        algebra, tau = remark_pair()
        result = contractive_extensions(algebra, tau)
        assert len(result.included) == 2
        families = sorted(spec.family for spec in result.included)
        assert families == ["type_I", "type_II"]
        assert all(spec.norm_of_extension <= 1 + 1e-9 for spec in result.included)
        assert len(result.excluded) == 1
        assert result.excluded[0].norm_of_extension == pytest.approx(2.0, abs=1e-9)

    def test_scalar_involution_has_both(self):
        c1 = function_algebra(1)
        conj = conjugation_map(c1)
        result = contractive_extensions(c1, conj)
        assert len(result.included) == 2

    def test_non_unital_range_only_canonical(self):
        # one-dimensional zero algebra: the identity map is an involution
        # but the range has no identity, so only the canonical survives
        zero_alg = make_algebra(1, np.zeros((1, 1, 1)), ["v"])
        tau = conjugation_map(zero_alg)
        assert classify_star_map(zero_alg, tau).kind == "involution"
        result = contractive_extensions(zero_alg, tau)
        assert len(result.included) == 1
        assert result.included[0].family == "type_I"

    def test_non_contractive_rejected(self):
        # a family-I extension with nonzero x0 has norm 2: extending it again
        # must be refused outright
        algebra, tau = remark_pair()
        spec = verify_extension(algebra, tau, 1.0, np.array([0.0, -1.0], dtype=complex),
                                **range_data(algebra, tau))
        sharp, tau_sharp = extension_map(algebra, tau, spec.lambda0, spec.x0)
        assert classify_star_map(sharp, tau_sharp).is_trivolution
        with pytest.raises(CertificationFailure) as info:
            contractive_extensions(sharp, tau_sharp)
        assert info.value.law == "||tau|| <= 1"

    def test_involution_type1_always_trivial(self, m2, m2_star):
        # for involutions every family-I solution collapses to zero
        result = find_type1_solutions(m2, m2_star)
        assert all(np.max(np.abs(x)) < 1e-12 for x in result.solutions)
