"""Dense complex linear algebra helpers shared across modules.

Everything here operates on plain numpy arrays.  Ranks and memberships
use absolute thresholds: the targeted instances are small (dim <= ~64)
and well conditioned, so absolute tolerances are both simpler and more
reproducible than relative ones.

A linear system takes one of three routes:

- a solve-only system goes to ``solve_exact`` (``lstsq``), which was
  measured faster than a thin SVD on tall systems.  The identity system
  (``algebra._find_identity``, 8192 x 64 for C[Z64]) comes here only when
  the solution of its normal equations fails the residual;
- a system whose kernel or image is needed, with or without a solve, goes
  to ``column_space_and_nullspace``: one thin SVD gives all of them;
- a rank test alone calls ``np.linalg.matrix_rank``, singular values only.

Two cutoffs apply.  A singular value counts towards the rank, so its
vector leaves the kernel, when it exceeds the absolute ``eps_rank``
(``EPS_RANK`` by default).  A least-squares solution drops the singular
values at most ``eps * max(m, n) * s_max``, ``lstsq``'s ``rcond=None``
cutoff, with ``eps`` the float64 machine epsilon.
"""

from __future__ import annotations

import math

import numpy as np

# Entrywise equality tolerance and rank pivot threshold.  Operations
# accept overrides; these are the package-wide defaults.
EPS = 1e-9
EPS_RANK = 1e-8


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy so frozen dataclasses stay truly immutable."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def max_abs(a) -> float:
    """Largest entry magnitude; a NaN reads as ``inf``, which ``max()`` cannot drop."""
    a = np.asarray(a)
    worst = float(np.max(np.abs(a))) if a.size else 0.0
    return math.inf if math.isnan(worst) else worst


def rref_rows(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form with partial pivoting by magnitude.

    Returns the reduced matrix and the list of pivot column indices.
    """
    a = as_complex(mat).copy()
    if a.ndim != 2:
        raise ValueError("rref_rows expects a matrix")
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
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


def echelon_rows(vectors: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Canonical spanning set (as rows) for the row space of ``vectors``."""
    reduced, pivots = rref_rows(vectors)
    return reduced[: len(pivots)], pivots


def reduce_vector(x: np.ndarray, ech_rows: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Subtract the echelon-span component pinned by the pivot coordinates.

    ``x`` is a vector, or a matrix whose columns are reduced together.
    A column comes out zero exactly when it lies in the row span;
    otherwise it is the canonical residual (zero at every pivot
    coordinate).  Every column sees the same operations as a lone vector,
    with the pivot value as the left factor of each product: complex
    multiplication is not bitwise commutative, and the kept operand order
    makes batched and one-at-a-time results equal bit for bit.
    """
    y = as_complex(x).copy()
    for row, p in zip(ech_rows, pivots):
        y = y - np.multiply.outer(y[p], row).T
    return y


def column_products(structure: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Product of every column of ``left`` with every column of ``right``.

    ``out[i, j, k] = sum_ab left[a, i] right[b, j] structure[a, b, k]``: the
    structure tensor pulled back along both factors.  It is two matrix
    products (BLAS), never the dim^5 three-operand loop.
    """
    n_a, _, n_k = structure.shape
    # partial[a, j, :] = b_a . right_j
    partial = right.T @ structure
    n_i, n_j = left.shape[1], right.shape[1]
    return (left.T @ partial.reshape(n_a, n_j * n_k)).reshape(n_i, n_j, n_k)


def column_space_and_nullspace(mat: np.ndarray, tol: float = EPS_RANK,
                               rhs: np.ndarray | None = None) -> tuple:
    """``(image, kernel, solution, residual)`` of ``mat`` from one SVD.

    Image and kernel are orthonormal columns split at ``tol``.  The SVD is
    thin: only a wide matrix gets the full ``vh``, since only its kernel
    needs rows beyond ``min(m, n)``.  Given the vector ``rhs``,
    ``solution`` is its minimum-norm least-squares solution and
    ``residual`` the worst residual; both are None without it.  A real
    matrix keeps real arithmetic, so its kernel basis is real.
    """
    a = np.asarray(mat)
    m, n = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=m < n)
    r = int(np.sum(s > tol))
    image, kernel = u[:, :r], vh[r:, :].conj().T
    if rhs is None:
        return image, kernel, None, None
    k = int(np.sum(s > np.finfo(float).eps * max(m, n) * np.max(s, initial=0.0)))
    x = vh[:k, :].conj().T @ ((u[:, :k].conj().T @ rhs) / s[:k])
    return image, kernel, x, max_abs(a @ x - rhs)


def solve_exact(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solve returning the solution and the worst residual."""
    a = as_complex(a)
    b = as_complex(b)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x, max_abs(a @ x - b)


def realify_conjugation_fixed_points(m: np.ndarray) -> np.ndarray:
    """Complex basis columns of ``{x : m @ conj(x) = x}``.

    The fixed-point set of a conjugate-linear map is only a *real*
    subspace; the returned columns are complex vectors spanning it over
    the reals.
    """
    m = as_complex(m)
    n = m.shape[0]
    p, q = m.real, m.imag
    # x = u + iv; m conj(x) = (p u + q v) + i(q u - p v)
    top = np.hstack([p - np.eye(n), q])
    bot = np.hstack([q, -p - np.eye(n)])
    system = np.vstack([top, bot]).astype(float)
    _, real_basis, _, _ = column_space_and_nullspace(system)
    if real_basis.shape[1] == 0:
        return np.zeros((n, 0), dtype=complex)
    return real_basis[:n, :] + 1j * real_basis[n:, :]

