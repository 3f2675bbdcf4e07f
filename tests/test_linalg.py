"""Linear algebra helpers against references: the one-SVD helper, and the echelon form."""

import tracemalloc

import numpy as np
import pytest

from trivolve.linalg import EPS_RANK, column_space_and_nullspace, rref_rows


def reference(a, b, tol=EPS_RANK):
    """The two-factorization route: ``lstsq`` for the solve, a full SVD for the kernel."""
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    _, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > tol))
    return x, float(np.max(np.abs(a @ x - b))), vh[r:, :].conj().T


def gaussian_integers(rng, m, n):
    return (rng.integers(-3, 4, (m, n)) + 1j * rng.integers(-3, 4, (m, n))).astype(complex)


def low_rank(rng, m, n, r):
    # integer factors keep the product exact, so the rank is exactly r
    return gaussian_integers(rng, m, r) @ gaussian_integers(rng, r, n)


CASES = {
    "tall": lambda rng: gaussian_integers(rng, 12, 5),
    "square": lambda rng: gaussian_integers(rng, 6, 6),
    "wide": lambda rng: gaussian_integers(rng, 4, 7),
    "tall_rank_deficient": lambda rng: low_rank(rng, 10, 6, 3),
    "square_rank_deficient": lambda rng: low_rank(rng, 6, 6, 4),
    "wide_rank_deficient": lambda rng: low_rank(rng, 4, 8, 2),
    "zero_kernel": lambda rng: np.vstack([np.eye(5), gaussian_integers(rng, 3, 5)]),
    "zero_matrix": lambda rng: np.zeros((5, 3), dtype=complex),
    "real": lambda rng: low_rank(rng, 9, 6, 4).real.copy(),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "least_squares"])
def test_helper_matches_lstsq_and_full_svd(name, consistent):
    rng = np.random.default_rng(7)
    a = CASES[name](rng)
    m, n = a.shape
    b = a @ gaussian_integers(rng, n, 1)[:, 0] if consistent else gaussian_integers(rng, m, 1)[:, 0]
    if np.isrealobj(a):
        b = b.real.copy()
    x_ref, residual_ref, kernel_ref = reference(a, b)

    image, kernel, x, residual = column_space_and_nullspace(a, rhs=b)
    assert kernel.shape == kernel_ref.shape
    assert image.shape[1] + kernel.shape[1] == n
    assert np.allclose(kernel.conj().T @ kernel, np.eye(kernel.shape[1]), rtol=0, atol=1e-12)
    assert np.allclose(image.conj().T @ image, np.eye(image.shape[1]), rtol=0, atol=1e-12)
    assert np.max(np.abs(a @ kernel), initial=0.0) <= 1e-12 * max(1.0, np.abs(a).max())
    assert np.max(np.abs(x - x_ref), initial=0.0) <= 1e-12
    assert abs(residual - residual_ref) <= 1e-12
    assert x.dtype == kernel.dtype == np.result_type(a, float)
    # without a right-hand side: the same bases, no solve
    plain = column_space_and_nullspace(a)
    assert np.array_equal(plain[0], image) and np.array_equal(plain[1], kernel)
    assert plain[2:] == (None, None)


def test_helper_never_builds_the_tall_left_factor():
    # a tall system of the size C[Z24]'s invariant-mean system has: (2nk+1) x k = 1153 x 24
    rng = np.random.default_rng(0)
    a = rng.standard_normal((1153, 24)) + 1j * rng.standard_normal((1153, 24))
    b = rng.standard_normal(1153) + 0j
    full_left_factor = 1153 * 1153 * np.dtype(complex).itemsize  # about 21 MB
    for call in (lambda: column_space_and_nullspace(a),
                 lambda: column_space_and_nullspace(a, rhs=b)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_left_factor


def rref_rows_loop(mat):
    """The row-at-a-time elimination that ``rref_rows`` replaced, kept as a reference."""
    a = np.asarray(mat, dtype=complex).copy()
    rows, cols = a.shape
    pivots, r = [], 0
    for c in range(cols):
        if r >= rows:
            break
        i = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[i, c]) <= EPS_RANK:
            continue
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] / a[r, c]
        for k in range(rows):
            if k != r and abs(a[k, c]) > 0:
                a[k] = a[k] - a[k, c] * a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def rref_cases(rng):
    for m, n in [(1, 1), (3, 5), (6, 4), (9, 9), (12, 20)]:
        dense = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        yield dense
        yield dense * (rng.random((m, n)) < 0.3)  # sparse
        yield np.outer(dense[:, 0], dense[0])  # rank one
        yield gaussian_integers(rng, m, n)
        yield low_rank(rng, m, n, min(m, n) // 2 + 1)
    yield np.array([[-0.0, 1.0], [0.0, -0.0], [2.0, 0.0]], dtype=complex)  # signed zeros
    yield np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, 1.0]], dtype=complex)  # NaN rows


def test_rref_rows_matches_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(7)
    with np.errstate(invalid="ignore"):
        for mat in rref_cases(rng):
            got, pivots = rref_rows(mat)
            want, want_pivots = rref_rows_loop(mat)
            assert pivots == want_pivots and got.tobytes() == want.tobytes()
