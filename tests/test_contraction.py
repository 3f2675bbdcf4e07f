"""The contraction layer: BLAS products against full-array einsum references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trivolve import algebra
from trivolve.algebra import (
    _associativity_check,
    _dense_gaps,
    _table_gap,
    column_products,
    cyclic_group_table,
    group_algebra,
    make_algebra,
    matrix_algebra,
    product_algebra,
)
from trivolve.errors import CertificationFailure
from trivolve.linalg import EPS
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
        _associativity_check(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_n4_array


def outcome(c):
    """``make_algebra``'s verdict on ``c``: None, or the violation's text, residual and quadruple."""
    try:
        make_algebra(c.shape[0], c)
    except CertificationFailure as exc:
        assert exc.law == ASSOCIATIVITY
        return str(exc), exc.residual, exc.details["quadruple"]
    return None


def fold_outcome(c):
    """``outcome`` of the dense fold alone: the table path declines every tensor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_table_gap", lambda structure: None)
        return outcome(c)


def dense_worst(c):
    return max(float(gap.max()) for gap in _dense_gaps(c))


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
    # where the table kernel takes a sparse tensor (a real product table), its
    # worst gap is the dense kernel's, bit for bit; every verdict is the fold's
    tables = []

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(sparse_tensors(ENTRY_KINDS[kind]))
    def check(c):
        gap = _table_gap(c)
        if gap is not None:
            tables.append(c)
            assert gap == dense_worst(c)
        assert outcome(c) == fold_outcome(c)
    check()
    assert tables or kind == "complex"


def test_kernels_agree_on_overflow():
    # b_1 b_j scaled by 1e200: some products of the table overflow, both kernels'
    # worst gap is inf, and the fold reports the violation with no residual
    c = cyclic_group_table(4).structure()
    c[1] *= 1e200
    with np.errstate(over="ignore", invalid="ignore"):
        assert _table_gap(c) == dense_worst(c) == np.inf
        got = outcome(c)
        assert got == fold_outcome(c)
    assert got[1] is None


def permuted(c, seed):
    p = np.random.default_rng(seed).permutation(c.shape[0])
    return np.ascontiguousarray(c[np.ix_(p, p, p)])


@pytest.mark.parametrize("c", [cyclic_group_table(64).structure(),
                               np.asarray(matrix_algebra(6).structure)],
                         ids=["C[Z64]", "M6"])
def test_kernels_agree_in_a_permuted_basis(c):
    c = permuted(c, 5)
    assert _table_gap(c) == dense_worst(c) == 0.0
    _associativity_check(c)


@pytest.mark.parametrize("non_zero, value", [(True, 1.25), (False, 0.5j)],
                         ids=["non-zero scaled", "zero made complex"])
def test_perturbed_group_algebra_reports_the_dense_violation(non_zero, value):
    c = permuted(cyclic_group_table(64).structure(), 9)
    row = c[3, 5]  # g_3 g_5: one entry is 1, the rest 0
    row[np.flatnonzero((row != 0) == non_zero)[0]] = value
    with pytest.raises(CertificationFailure) as info:
        make_algebra(64, c)
    assert info.value.law == ASSOCIATIVITY
    got = str(info.value), info.value.residual, info.value.details["quadruple"]
    assert got == fold_outcome(c)


def test_sparse_check_memory():
    # the table gap peaks at about 9 MiB here; the dense fold, where a failed table goes, at 16 MiB
    c = cyclic_group_table(64).structure()
    tracemalloc.start()
    try:
        _associativity_check(c)
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
    assert peak_bytes(lambda: _associativity_check(c)) < 32 * 2 ** 20


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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(table_tensors())
def test_table_path_matches_the_dense_fold(c):
    gap = _table_gap(c)
    if c.imag.any():
        assert gap is None  # a complex table goes to the fold
    else:
        assert gap == dense_worst(c)  # one non-zero term in each dense sum: the same bits
    assert outcome(c) == fold_outcome(c)


def test_table_path_declines_a_fibre_with_two_non_zeros():
    c = cyclic_group_table(5).structure()
    c[1, 2, 0] = 1e-20
    assert _table_gap(c) is None
    assert outcome(c) == fold_outcome(c)


@pytest.mark.parametrize("non_zero, value", [(True, 1.25), (False, 0.5j)],
                         ids=["non-zero scaled", "zero made complex"])
def test_a_failing_table_reports_the_fold_violation(non_zero, value):
    c = permuted(cyclic_group_table(12).structure(), 4)
    row = c[3, 5]
    row[np.flatnonzero((row != 0) == non_zero)[0]] = value
    assert (_table_gap(c) is None) == (not non_zero)
    got = outcome(c)
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
        assert outcome(c) == fold_outcome(c)


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
        if inst.kernel_involution is not None:
            maps.append(inst.kernel_involution)
        for f in maps:
            flags = classify_multiplicativity(f)
            hom, anti = reference_multiplicativity(f)
            assert flags.homomorphism == (hom <= EPS)
            assert flags.anti_homomorphism == (anti <= EPS)
            assert abs(flags.hom_residual - hom) <= 1e-14
            assert abs(flags.anti_residual - anti) <= 1e-14
            checked += 1
    assert checked >= 2 * len(battery)
