"""Dense complex linear algebra helpers shared across modules.

Everything here operates on plain numpy arrays.  Ranks and memberships
use absolute thresholds: the targeted instances are small (dim <= ~64)
and well conditioned, so absolute tolerances are both simpler and more
reproducible than relative ones.

A linear system takes one of three routes:

- coordinates in a subspace are its pivot entries in the reduced echelon
  basis (``algebra.Subspace.coordinates``), certified by the residual of
  ``E c = v``;
- a system whose kernel or image is needed goes to
  ``column_space_and_nullspace``: one thin SVD gives both;
- the invariant-mean system (``duality.tim_set``, 1153 x 24 for C[Z24])
  never forms its tall matrix: it is decided by the ``eigh`` of its
  ``k x k`` Gram matrix, summed from batched ``k x k`` products, one
  batched ``eigh`` for a stack of characters, and certified by its
  residual on the full system.

A rank test alone calls ``np.linalg.matrix_rank``, singular values only.

The cutoffs are two constants.  A law holds when its residual is at
most ``EPS``; a singular value or a pivot counts towards the rank, so its
vector leaves the kernel, when it exceeds ``EPS_RANK``.  A Gram matrix's
eigenvalues are squared singular values, so one counts when it exceeds
``EPS_RANK ** 2``.  The one relative cut is ``lstsq``'s ``rcond=None``
rule, left only where the identity's normal equations fail
(``algebra._find_identity``).
"""

from __future__ import annotations

import math

import numpy as np

# Entrywise equality tolerance and rank pivot threshold.
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
    worst = float(np.abs(a).max(initial=0.0))
    return math.inf if math.isnan(worst) else worst


def max_abs_each(stack: np.ndarray) -> np.ndarray:
    """``max_abs`` of every ``stack[b]``, as one array; empty for an empty stack."""
    flat = np.abs(stack).reshape(len(stack), math.prod(stack.shape[1:]))
    worst = flat.max(axis=1, initial=0.0)
    worst[np.isnan(worst)] = math.inf
    return worst


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
        hit = np.abs(a[:, c]) > 0  # False for a NaN, which is left as it is
        hit[r] = False
        a[hit] = a[hit] - np.multiply.outer(a[hit, c], a[r])
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


def column_space_and_nullspace(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(image, kernel)`` of ``mat`` from one SVD.

    Image and kernel are orthonormal columns split at ``EPS_RANK``.  The SVD is
    thin: only a wide matrix gets the full ``vh``, since only its kernel
    needs rows beyond ``min(m, n)``.  A real matrix keeps real arithmetic,
    so its kernel basis is real.
    """
    a = np.asarray(mat)
    m, n = a.shape
    u, s, vh = np.linalg.svd(a, full_matrices=m < n)
    r = int(np.sum(s > EPS_RANK))
    return u[:, :r], vh[r:, :].conj().T


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
    _, real_basis = column_space_and_nullspace(system)
    if real_basis.shape[1] == 0:
        return np.zeros((n, 0), dtype=complex)
    return real_basis[:n, :] + 1j * real_basis[n:, :]

