"""The contraction layer: BLAS products against full-array einsum references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve import algebra
from trivolve.algebra import (
    _associativity_check,
    _block_joins,
    _dense_gaps,
    _join_pays,
    _sparse_gaps,
    cyclic_group_table,
    group_algebra,
    make_algebra,
    matrix_algebra,
    product_algebra,
)
from trivolve.errors import CertificationFailure
from trivolve.linalg import EPS, column_products
from trivolve.starmap import classify_multiplicativity, compose

ASSOCIATIVITY = "(b_i b_j) b_k = b_i (b_j b_k)"


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
    with pytest.raises(CertificationFailure) as info:
        make_algebra(c.shape[0], c)
    assert info.value.law == ASSOCIATIVITY
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


def outcome(c, sparse):
    """``make_algebra``'s verdict on ``c`` with the cost rule forced to one kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_join_pays", lambda structure: sparse)
        try:
            make_algebra(c.shape[0], c)
        except CertificationFailure as exc:
            assert exc.law == ASSOCIATIVITY
            return str(exc), exc.residual, exc.details["quadruple"]
    return None


ENTRY_KINDS = {
    "integer": st.integers(-3, 3).map(complex),
    "real": st.floats(-4, 4, allow_nan=False),
    "complex": st.builds(complex, st.floats(-4, 4, allow_nan=False),
                         st.floats(-4, 4, allow_nan=False)),
}


def sparse_tensors(entries):
    def build(n):
        coords = st.tuples(*[st.integers(0, n - 1)] * 3)
        return st.lists(st.tuples(coords, entries), min_size=n, max_size=2 * n * n).map(
            lambda drawn: fill(n, drawn))
    return st.integers(1, 8).flatmap(build)


def fill(n, drawn):
    c = np.zeros((n, n, n), dtype=complex)
    for where, value in drawn:
        c[where] = value
    return c


@pytest.mark.parametrize("kind", ENTRY_KINDS)
def test_kernels_agree_on_sparse_tensors(kind):
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(sparse_tensors(ENTRY_KINDS[kind]))
    def check(c):
        a = np.abs(c)
        bound = max(1.0, np.einsum("ijm,mkl->ijkl", a, a).max())
        for dense, sparse in zip(_dense_gaps(c), _sparse_gaps(c), strict=True):
            if kind == "integer":  # every sum is exact
                assert np.array_equal(sparse, dense)
            else:
                np.testing.assert_allclose(sparse, dense, rtol=1e-12, atol=1e-12 * bound)
        if kind == "integer":
            assert outcome(c, sparse=True) == outcome(c, sparse=False)
    check()


def test_kernels_agree_on_overflow():
    # every product overflows: both kernels report the first quadruple, with no residual
    c = 1e200 * np.random.default_rng(0).standard_normal((3, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        dense, sparse = outcome(c, sparse=False), outcome(c, sparse=True)
    assert dense == sparse
    assert dense[1:] == (None, [0, 0, 0, 0])


def permuted(c, seed):
    p = np.random.default_rng(seed).permutation(c.shape[0])
    return np.ascontiguousarray(c[np.ix_(p, p, p)])


@pytest.mark.parametrize("c", [cyclic_group_table(64).structure(),
                               np.asarray(matrix_algebra(6).structure)],
                         ids=["C[Z64]", "M6"])
def test_kernels_agree_in_a_permuted_basis(c):
    c = permuted(c, 5)
    assert _join_pays(c)
    for dense, sparse in zip(_dense_gaps(c), _sparse_gaps(c), strict=True):
        assert np.array_equal(sparse, dense)
    _associativity_check(c, EPS)


@pytest.mark.parametrize("non_zero, value", [(True, 1.25), (False, 0.5j)],
                         ids=["non-zero scaled", "zero made complex"])
def test_perturbed_group_algebra_reports_the_dense_violation(non_zero, value):
    c = permuted(cyclic_group_table(64).structure(), 9)
    row = c[3, 5]  # g_3 g_5: one entry is 1, the rest 0
    row[np.flatnonzero((row != 0) == non_zero)[0]] = value
    assert _join_pays(c)
    with pytest.raises(CertificationFailure) as info:
        make_algebra(64, c)
    assert info.value.law == ASSOCIATIVITY
    got = str(info.value), info.value.residual, info.value.details["quadruple"]
    assert got == outcome(c, sparse=False)


@pytest.mark.parametrize("n", range(1, 11))
def test_cost_rule_keeps_small_tensors_dense(n):
    assert not _join_pays(cyclic_group_table(n).structure())
    assert not _join_pays(np.ones((n, n, n), dtype=complex))


def test_cost_rule_keeps_a_dense_tensor_dense():
    assert not _join_pays(np.random.default_rng(3).standard_normal((16, 16, 16)).astype(complex))


def brute_force_joins(c):
    """Per block i, the pairs of non-zeros the join forms, counted one at a time."""
    nonzero, joins = c != 0, np.zeros(c.shape[0], dtype=int)
    for i, j, m in np.argwhere(nonzero):
        joins[i] += nonzero[m].sum()  # c[i, j, m] meets c[m, k, l]
    for i, m, l in np.argwhere(nonzero):
        joins[i] += nonzero[:, :, m].sum()  # c[i, m, l] meets c[j, k, m]
    return joins


@pytest.mark.parametrize("weight", [1, 1 + 1j], ids=["real", "complex"])
def test_cost_rule_counts_every_pair(weight):
    # at n = 16 the join pays up to a density of a few percent
    n, verdicts = 16, set()
    for density in (0.01, 0.05, 0.1, 0.3):
        nonzero = np.random.default_rng(int(100 * density)).random((n, n, n)) < density
        c = nonzero * weight
        joins = brute_force_joins(c)
        assert np.array_equal(_block_joins(c), joins)
        passes = 2 if weight == 1 + 1j else 1
        cost = passes * (algebra._PAIR_COST * joins.sum() + algebra._BIN_COST * n ** 4)
        verdict = _join_pays(c)
        assert verdict == (cost + algebra._JOIN_SETUP < n ** 5)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cost_rule_keeps_one_heavy_block_dense():
    # C[Z64] with b_0 b_j dense: the join as a whole pays, but block 0 would not fit in a chunk
    c = cyclic_group_table(64).structure()
    c[0] = 1
    joins = _block_joins(c)
    assert joins.max() > algebra._join_chunk(64)
    assert algebra._PAIR_COST * joins.sum() + algebra._BIN_COST * 64 ** 4 + algebra._JOIN_SETUP < 64 ** 5
    assert not _join_pays(c)


def test_cost_rule_keeps_dense_blocks_dense():
    # the direct sum of two dense 32-dimensional algebras: a join of about 1.3e8 pairs
    c = dense_blocks()
    assert _block_joins(c).sum() == 4 * 32 ** 5
    assert not _join_pays(c)


@pytest.mark.parametrize("c", [cyclic_group_table(64).structure(),
                               cyclic_group_table(48).structure(),
                               np.asarray(matrix_algebra(6).structure)],
                         ids=["C[Z64]", "C[Z48]", "M6"])
def test_cost_rule_joins_sparse_tensors(c):
    assert _join_pays(c)


def test_sparse_check_memory():
    # the dense kernel peaks at about 16 MiB here, the join at about 14 MiB
    c = cyclic_group_table(64).structure()
    tracemalloc.start()
    try:
        _associativity_check(c, EPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def dense_blocks():
    """C[Z32] + C[Z32], each summand in a random orthonormal basis, so every block is dense."""
    q = np.linalg.qr(np.random.default_rng(32).standard_normal((32, 32)))[0]
    c = np.einsum("ai,bj,abc,ck->ijk", q, q, cyclic_group_table(32).structure(), q, optimize=True)
    a = make_algebra(32, c)
    return np.asarray(product_algebra(a, a).structure)


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_dense_blocks_check_memory():
    c = dense_blocks()
    assert np.count_nonzero(c) == 2 * 32 ** 3
    assert peak_bytes(lambda: _associativity_check(c, EPS)) < 32 * 2 ** 20


def test_join_memory_follows_the_chunk():
    # about 1.6e6 pairs in all, none of the 32 blocks above 2**16: the join is built a chunk at a time
    n = 32
    rng = np.random.default_rng(15)
    c = (rng.random((n, n, n)) < 0.15) * rng.standard_normal((n, n, n))
    joins = _block_joins(c)
    assert joins.max() <= algebra._join_chunk(n) < joins.sum() // 16
    assert not _join_pays(c)  # the cost rule keeps it dense: the join takes about twice as long
    one_n4_array = n ** 4 * np.dtype(complex).itemsize  # 16 MiB
    assert peak_bytes(lambda: all(gap.size for gap in _sparse_gaps(c))) < one_n4_array


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
