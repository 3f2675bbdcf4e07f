"""The pass rule: ``certify`` decides whether a law holds."""

import math

import pytest

from trivolve.errors import CertificationFailure, certify


def test_residual_equal_to_tolerance_passes():
    assert certify(1e-9, 1e-9, "p o p = p", "p is not idempotent") == 1e-9


def test_residual_above_tolerance_raises_a_failure_of_the_law():
    with pytest.raises(CertificationFailure) as info:
        certify(2e-9, 1e-9, "p o p = p", "p is not idempotent (residual {residual:.3e})",
                details={"dim": 2})
    assert info.value.law == "p o p = p" and info.value.residual == 2e-9
    assert str(info.value) == "p is not idempotent (residual 2.000e-09)"
    assert info.value.details == {"dim": 2}


@pytest.mark.parametrize("residual", [math.nan, math.inf])
def test_non_finite_residual_fails_whatever_the_tolerance(residual):
    with pytest.raises(CertificationFailure) as info:
        certify(residual, math.inf, "p o p = p", "p is not idempotent")
    assert info.value.residual is None and info.value.report()["residual"] is None


def test_law_is_required():
    with pytest.raises(TypeError):
        CertificationFailure("p is not idempotent")
