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
    _table_gap,
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


# ---------------------------------------------------------------------------
# product tables: every b_i b_j is 0 or one scaled basis vector, w_ij b_{t_ij}
# ---------------------------------------------------------------------------

def quaternion_table():
    """The quaternions over C (so M_2): 1, i, j, k with the signs of ij = k, ji = -k."""
    t = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    w = np.ones((4, 4))
    for a, b, sign in ((1, 2, 1), (2, 3, 1), (3, 1, 1), (2, 1, -1), (3, 2, -1), (1, 3, -1)):
        w[a, b] = sign
    w[[1, 2, 3], [1, 2, 3]] = -1
    return t, w


def matrix_unit_table(k):
    """M_k: E_ab E_cd = [b = c] E_ad, the basis row-major."""
    a, b = np.divmod(np.arange(k * k), k)
    return a[:, None] * k + b[None, :], (b[:, None] == a[None, :]).astype(float)


def s3_table():
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms])


def n_by_n(n, f):
    return np.fromfunction(f, (n, n), dtype=int)


ASSOCIATIVE_TABLES = {
    "cyclic": lambda n: (n_by_n(n, lambda i, j: (i + j) % n), np.ones((n, n))),
    "klein": lambda n: (np.bitwise_xor.outer(np.arange(4), np.arange(4)), np.ones((4, 4))),
    "S3": lambda n: (s3_table(), np.ones((6, 6))),
    "quaternions": lambda n: quaternion_table(),
    "matrix units": lambda n: matrix_unit_table(2 + n % 2),
    "functions": lambda n: (n_by_n(n, lambda i, j: i), np.eye(n)),
    "right zero": lambda n: (n_by_n(n, lambda i, j: j), np.ones((n, n))),
    "left zero": lambda n: (n_by_n(n, lambda i, j: i), np.ones((n, n))),
    "zero product": lambda n: (np.zeros((n, n), dtype=int), np.zeros((n, n))),
}
WEIGHTS = [0, 1, -1, 2]
SCALES = [1, -1, 2, 0.5, 1j, -2j]  # a basis rescaled by these keeps every product exact


def table_tensor(t, w):
    n = len(t)
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n)[:, None], np.arange(n), t] = w
    return c


@st.composite
def table_tensors(draw):
    """Tables that are associative, made so by one edit, or drawn at random."""
    source = draw(st.sampled_from(["associative", "edited", "random"]))
    if source == "random":
        n = draw(st.integers(1, 7))
        t = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)))
        w = np.array(draw(st.lists(st.sampled_from(WEIGHTS + [1j]), min_size=n * n,
                                   max_size=n * n)))
        return table_tensor(t.reshape(n, n), w.reshape(n, n))
    def pick():
        name = draw(st.sampled_from(sorted(ASSOCIATIVE_TABLES)))
        return table_tensor(*ASSOCIATIVE_TABLES[name](draw(st.integers(1, 5))))

    c = pick()
    if draw(st.booleans()):  # a direct product
        a, b = c, pick()
        c = np.zeros((len(a) + len(b),) * 3, dtype=complex)
        c[:len(a), :len(a), :len(a)], c[len(a):, len(a):, len(a):] = a, b
    if draw(st.booleans()):  # the opposite algebra
        c = c.transpose(1, 0, 2)
    n = len(c)
    p = np.array(draw(st.permutations(range(n))))
    s = np.array(draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n)))
    # b'_i = s_i b_{p_i}: b'_i b'_j = s_i s_j / s_k c[p_i, p_j, p_k] b'_k
    c = c[np.ix_(p, p, p)] * s[:, None, None] * s[None, :, None] / s[None, None, :]
    if source == "edited":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c[i, j] = 0
        c[i, j, draw(st.integers(0, n - 1))] = draw(st.sampled_from(WEIGHTS))
    return np.ascontiguousarray(c)


def fold_outcome(c):
    """``outcome`` of today's fold: the table path declines every tensor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_table_gap", lambda structure: None)
        return outcome(c, sparse=False)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(table_tensors())
def test_table_path_matches_the_dense_fold(c):
    gap = _table_gap(c)
    if c.imag.any():
        assert gap is None  # a complex table goes to the fold
    else:
        dense = max(float(block.max()) for block in _dense_gaps(c))
        assert gap == dense  # one non-zero term in each dense sum: the same bits
    assert outcome(c, sparse=False) == fold_outcome(c)


def test_table_path_declines_a_fibre_with_two_non_zeros():
    c = cyclic_group_table(5).structure()
    c[1, 2, 0] = 1e-20
    assert _table_gap(c) is None
    assert outcome(c, sparse=False) == fold_outcome(c)


@pytest.mark.parametrize("non_zero, value", [(True, 1.25), (False, 0.5j)],
                         ids=["non-zero scaled", "zero made complex"])
def test_a_failing_table_reports_the_fold_violation(non_zero, value):
    c = permuted(cyclic_group_table(12).structure(), 4)
    row = c[3, 5]
    row[np.flatnonzero((row != 0) == non_zero)[0]] = value
    assert (_table_gap(c) is None) == (not non_zero)
    got = outcome(c, sparse=False)
    assert got is not None and got == fold_outcome(c)


def test_table_path_on_the_zero_algebra():
    assert _table_gap(np.zeros((0, 0, 0), dtype=complex)) == 0.0
    zero = make_algebra(0, np.zeros((0, 0, 0)))
    assert zero.dim == 0 and not zero.is_unital()


def test_table_path_on_overflowing_weights():
    # a table whose products overflow: the table path declines it, the fold reports no residual
    c = 1e200 * cyclic_group_table(3).structure()
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_table_gap(c)) or _table_gap(c) > EPS
        assert outcome(c, sparse=False) == fold_outcome(c)


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
