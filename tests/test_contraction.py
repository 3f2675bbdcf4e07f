"""The contraction layer: BLAS products against full-array einsum references."""

import tracemalloc

import numpy as np
import pytest

from trivolve.algebra import _associativity_check, cyclic_group_table, group_algebra, make_algebra
from trivolve.errors import AssociativityViolation
from trivolve.linalg import EPS, column_products
from trivolve.starmap import classify_multiplicativity, compose


def reference_associativity(c):
    """Worst gap and its first (i, j, k, l) in C order, from the full n^4 arrays."""
    left = np.einsum("ijm,mkl->ijkl", c, c)
    right = np.einsum("jkm,iml->ijkl", c, c)
    gap = np.abs(left - right)
    return float(gap.max()), [int(v) for v in np.unravel_index(int(np.argmax(gap)), gap.shape)]


def reference_multiplicativity(f):
    src = np.conj(f.source.structure) if f.conjugating else f.source.structure
    lhs = np.einsum("ijc,kc->ijk", src, f.matrix)
    rhs = np.einsum("ai,bj,abk->ijk", f.matrix, f.matrix, f.target.structure)
    return np.max(np.abs(lhs - rhs)), np.max(np.abs(lhs - rhs.transpose(1, 0, 2)))


def violation(c):
    with pytest.raises(AssociativityViolation) as info:
        make_algebra(c.shape[0], c)
    return info.value.residual, info.value.details["quadruple"]


@pytest.mark.parametrize("seed", range(12))
def test_associativity_matches_reference_with_ties(seed):
    # 0/1 entries keep every product exact, and the worst gap is reached at
    # several quadruples in most draws (in several i blocks in 9 of these 12),
    # so the residual and the first quadruple in C order must agree exactly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    c = rng.integers(0, 2, (n, n, n)).astype(complex)
    worst, where = reference_associativity(c)
    assert worst > EPS
    assert violation(c) == (worst, where)


def test_associativity_tie_across_blocks():
    # the same worst gap at i = 0 and i = 1: the earlier block is reported
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 1] = c[1, 1, 0] = 1.0
    worst, where = reference_associativity(c)
    assert where[0] == 0
    assert violation(c) == (worst, where)


def test_overflowing_products_violate_associativity():
    # the products overflow to NaN gaps, which no tolerance comparison rejects
    c = 1e200 * np.random.default_rng(0).standard_normal((3, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        residual, _ = violation(c)
    assert residual is None


@pytest.mark.parametrize("seed", range(6))
def test_associativity_matches_reference_on_random_tensors(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(1, 9))
    c = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    worst, where = reference_associativity(c)
    residual, quadruple = violation(c)
    assert residual == pytest.approx(worst, rel=1e-12)
    assert quadruple == where


def test_associativity_memory_stays_below_one_n4_array():
    n = 32
    c = np.asarray(group_algebra(cyclic_group_table(n)).structure)
    one_n4_array = n ** 4 * np.dtype(complex).itemsize  # 16 MiB
    tracemalloc.start()
    try:
        _associativity_check(c, EPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_n4_array


@pytest.mark.parametrize("shape", [(3, 4, 5, 2, 6), (1, 1, 1, 1, 1), (0, 0, 2, 3, 0),
                                   (4, 2, 3, 0, 5)])
def test_column_products_match_einsum(shape):
    n_a, n_b, n_k, n_i, n_j = shape
    rng = np.random.default_rng(sum(shape))
    structure = rng.standard_normal((n_a, n_b, n_k)) + 1j * rng.standard_normal((n_a, n_b, n_k))
    left = rng.standard_normal((n_a, n_i)) + 1j * rng.standard_normal((n_a, n_i))
    right = rng.standard_normal((n_b, n_j)) + 1j * rng.standard_normal((n_b, n_j))
    got = column_products(structure, left, right)
    assert got.shape == (n_i, n_j, n_k)
    np.testing.assert_allclose(got, np.einsum("ai,bj,abk->ijk", left, right, structure),
                               rtol=1e-13, atol=1e-13)


def test_multiplicativity_matches_reference_over_battery(battery):
    checked = 0
    for inst in battery:
        maps = [inst.tau, compose(inst.tau, inst.tau)]
        maps += [m for m in (inst.natural_involution, inst.kernel_involution) if m is not None]
        for f in maps:
            flags = classify_multiplicativity(f)
            hom, anti = reference_multiplicativity(f)
            assert flags.homomorphism == (hom <= EPS)
            assert flags.anti_homomorphism == (anti <= EPS)
            assert abs(flags.hom_residual - hom) <= 1e-14
            assert abs(flags.anti_residual - anti) <= 1e-14
            checked += 1
    assert checked >= 2 * len(battery)
