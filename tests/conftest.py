"""Shared fixtures: the small worked algebras used throughout the tests."""

from __future__ import annotations

import numpy as np
import pytest

from trivolve.algebra import (
    cyclic_group_table,
    function_algebra,
    group_algebra,
    matrix_algebra,
)
from trivolve.instances import (
    conjugate_transpose_involution,
    instance_battery,
    remark_pair,
    standard_group_involution,
)
from trivolve.starmap import make_map


def pytest_collection_modifyitems(items):
    """Let a failing Hypothesis test report its failure under ``-W error::DeprecationWarning``.

    Hypothesis then writes a patch with ``libcst``, whose ``mypy_extensions``
    import warns; raised, that warning ends the run in an ``INTERNALERROR``.
    A mark on the item outranks ``-W``, which an ini ``filterwarnings`` does not.
    """
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))


@pytest.fixture(scope="session")
def c2():
    return function_algebra(2)


@pytest.fixture(scope="session")
def remark_tau(c2):
    return make_map([[1.0, 0.0], [0.0, 0.0]], conjugating=True, source=c2)


@pytest.fixture(scope="session")
def c3():
    return function_algebra(3)


@pytest.fixture(scope="session")
def c4():
    return function_algebra(4)


@pytest.fixture(scope="session")
def z2():
    return group_algebra(cyclic_group_table(2), labels=["e", "g"])


@pytest.fixture(scope="session")
def z2_involution(z2):
    return standard_group_involution(z2, cyclic_group_table(2))


@pytest.fixture(scope="session")
def z3():
    return group_algebra(cyclic_group_table(3), labels=["e", "g", "g2"])


@pytest.fixture(scope="session")
def m2():
    return matrix_algebra(2)


@pytest.fixture(scope="session")
def m2_star(m2):
    return conjugate_transpose_involution(m2, 2)


@pytest.fixture(scope="session")
def battery():
    return instance_battery(seed=0)


def unit_index(n: int, i: int, j: int) -> int:
    """Index of the matrix unit E_{i+1, j+1} in the row-major basis."""
    return i * n + j


@pytest.fixture(scope="session")
def remark():
    return remark_pair()
