"""Finite-dimensional complex associative algebras as structure-constant tensors.

An algebra of dimension ``n`` is the tensor ``c[i][j][k]`` with
``b_i . b_j = sum_k c[i][j][k] b_k`` over a labelled basis.  An element
is its coordinate vector: a complex 1-d ndarray of length ``n`` in the
canonical basis, passed together with its algebra.  Everything
downstream (star maps, decompositions, duals) reduces to dense linear
algebra against this tensor, except in construction.  There a real
product table (every ``b_i b_j`` is 0 or a real multiple of one basis
vector, as in a group algebra or M_n in matrix units) has its
associativity read off the table, and the identity is proposed by the
``n x n`` normal equations before ``lstsq`` is asked.

Only this module contracts the tensor: ``column_products``, ``basis_products``,
``multiply``, ``left_mult_matrix`` and ``right_mult_matrix``.  The first two
also take stacks of operands, so a family of maps or candidates is contracted
in one call, each member by the same matrix products as on its own.  Algebras
and subspaces are immutable after construction; a subspace keeps its induced
algebra once it is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .errors import CertificationFailure, UsageError, certify
from .linalg import (
    EPS,
    as_complex,
    echelon_rows,
    freeze,
    max_abs,
    reduce_vector,
)


@dataclass(frozen=True)
class Algebra:
    """A complex associative algebra given by structure constants.

    ``structure[i, j, k]`` is the ``b_k`` coefficient of ``b_i . b_j``.
    ``identity_coords`` caches the (two-sided) identity when one exists.
    """

    dim: int
    basis_labels: tuple[str, ...]
    structure: np.ndarray
    identity_coords: np.ndarray | None = None

    def is_unital(self) -> bool:
        return self.identity_coords is not None

    @cached_property
    def unitization(self) -> "Algebra":
        """``unitize_algebra(self)``, built once per algebra."""
        return unitize_algebra(self)

    def __repr__(self) -> str:  # keep reprs short; tensors are noisy
        return f"Algebra(dim={self.dim}, labels={list(self.basis_labels)!r})"


@dataclass(frozen=True)
class Subspace:
    """Subspace of an algebra's underlying vector space.

    Columns of ``basis`` span the subspace.  A reduced echelon spanning
    set is cached so membership tests are a single back-substitution.
    ``cache`` keeps ``induced_subalgebra``'s result on ``algebra``.
    """

    basis: np.ndarray
    algebra: Algebra
    echelon: np.ndarray = field(init=False, repr=False)
    pivots: tuple[int, ...] = field(init=False, repr=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = as_complex(self.basis)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if basis.shape[0] != self.algebra.dim:
            raise UsageError(
                f"subspace basis has {basis.shape[0]} rows for algebra of dim {self.algebra.dim}")
        ech, piv = echelon_rows(basis.T)
        object.__setattr__(self, "basis", freeze(basis))
        object.__setattr__(self, "echelon", freeze(ech))
        object.__setattr__(self, "pivots", tuple(piv))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def canonical_columns(self) -> np.ndarray:
        """Echelon spanning vectors as columns (deterministic basis)."""
        return self.echelon.T.copy()

    def coordinates(self, columns) -> tuple[np.ndarray, float]:
        """Coordinates of ``columns`` in ``canonical_columns()`` ``E``, and ``max |E c - v|``.

        ``E`` is the identity at the pivots, so a member's coordinates are its
        pivot entries; a column outside the span has a residual above ``EPS``.
        """
        coords = as_complex(columns)[list(self.pivots)]
        return coords, max_abs(self.echelon.T @ coords - columns)

    def residual(self, vector) -> float:
        return float(self.residuals(as_complex(vector).reshape(-1, 1))[0])

    @property
    def free(self) -> list[int]:
        """The non-pivot coordinates: they span a complement, the quotient's basis."""
        return [i for i in range(self.algebra.dim) if i not in self.pivots]

    def reduce(self, columns) -> np.ndarray:
        """Canonical residual of every column (zero at each pivot), in one reduction."""
        return reduce_vector(columns, self.echelon, list(self.pivots))

    def residuals(self, columns) -> np.ndarray:
        """Membership residual of every column of ``columns``.

        A subspace of the algebra's full dimension holds every vector, so it
        reduces nothing: a finite column's residual is 0.0, which is also what
        the reduction gives on the identity echelon, and a column with a
        non-finite entry's is ``inf``, so an overflow still fails.
        """
        if self.dim == self.algebra.dim:
            return np.where(np.isfinite(as_complex(columns)).all(axis=0), 0.0, math.inf)
        return np.abs(self.reduce(columns)).max(axis=0, initial=0.0)

    def same_span(self, other: "Subspace") -> bool:
        """Each of the two subspaces contains the other, within ``EPS``."""
        return bool(np.all(self.residuals(other.basis) <= EPS)
                    and np.all(other.residuals(self.basis) <= EPS))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of {self.algebra.dim})"


def algebras_compatible(a: Algebra, b: Algebra) -> bool:
    """Same object, or structurally identical within ``EPS``."""
    return a is b or same_structure(a.structure, b.structure)


def same_structure(s: np.ndarray, t: np.ndarray) -> bool:
    """Structure tensors of one shape whose entries agree within ``EPS``."""
    return s.shape == t.shape and max_abs(s - t) <= EPS


def _dense_gaps(structure: np.ndarray):
    """Yield block ``i``'s gap ``|(b_i b_j) b_k - b_i (b_j b_k)|``, flat over ``(j, k, l)``."""
    n = structure.shape[0]
    rows = structure.reshape(n, n * n)   # row m: b_m b_k, indexed (k, l)
    pairs = structure.reshape(n * n, n)  # row (j, k): b_j b_k
    for i in range(n):
        left = structure[i] @ rows    # [j, (k, l)]: (b_i b_j) b_k
        right = pairs @ structure[i]  # [(j, k), l]: b_i (b_j b_k)
        yield np.abs(left.reshape(-1) - right.reshape(-1))


def _table_gap(structure: np.ndarray) -> float | None:
    """The worst associativity gap of a real product table; None for any other tensor.

    A product table has at most one non-zero in every fibre ``c[i, j, :]``:
    ``b_i b_j = w_ij b_{t_ij}``.  Then ``(b_i b_j) b_k`` is ``w_ij w_{t_ij,k}``
    at ``t[t_ij, k]`` and ``b_i (b_j b_k)`` is ``w_jk w_{i,t_jk}`` at
    ``t[i, t_jk]``: ``2 n^3`` products, all at once, and the gap of
    ``(i, j, k)`` is their difference where the two places agree, the larger
    of the two otherwise.  A table with a complex weight is None too: numpy's
    complex product and the fold's BLAS may round it differently.
    """
    nonzero = structure != 0
    if np.count_nonzero(nonzero, axis=2).max(initial=0) > 1:
        return None
    if structure.shape[0] == 0:
        return 0.0
    t = nonzero.argmax(axis=2)  # where each fibre's non-zero sits (0 when it has none)
    w = np.take_along_axis(structure, t[:, :, None], 2)[:, :, 0]
    if w.imag.any():
        return None
    w, t = w.real, t.astype(np.int32)  # narrow, since t[t] and t[:, t] hold n^3 entries
    left, right = w[t], w[:, t]  # at (i, j, k): w_{t_ij,k} and w_{i,t_jk}
    left *= w[:, :, None]
    right *= w
    gap = np.abs(left - right)
    apart = t[t] != t[:, t]
    gap[apart] = np.maximum(np.abs(left[apart]), np.abs(right[apart]))
    return float(gap.max())  # NaN, when a product overflows


def _associativity_check(structure: np.ndarray) -> None:
    """Compare ``(b_i b_j) b_k`` with ``b_i (b_j b_k)``.

    A real product table comes first: when every fibre ``c[i, j, :]`` has at
    most one non-zero and every weight is real (exact tests, not cost
    estimates), ``_table_gap`` reads the worst gap off the table with
    ``2 n^3`` products, and a worst gap of at most ``EPS`` passes.  Each
    dense sum then has one non-zero term, so the table's gaps are the dense
    kernel's, bit for bit.  A table that fails, a complex table and every
    other tensor go on to the fold below, which finds the violation's
    residual and quadruple.  ``_dense_gaps`` yields each block's ``n^3``
    gap, one ``i`` at a time, with two matrix products: ``n^5``
    multiply-adds in all, and memory stays O(n^3).  The worst gap and its
    first ``(i, j, k, l)`` in C order are those of the full ``n^4``
    comparison.  Best of 15, one BLAS thread, each in a permuted basis
    (2-CPU Xeon, numpy 2.4.6):

        tensor     table     fold
        C[Z64]     4.1 ms    391 ms
        C[Z48]     1.2 ms    94 ms
        M_6        0.72 ms   24 ms
        C[Z16]     0.07 ms   0.70 ms
    """
    worst = _table_gap(structure)
    if worst is not None and worst <= EPS:
        return
    n = structure.shape[0]
    worst, where = 0.0, None
    for i, gap in enumerate(_dense_gaps(structure)):
        flat = int(np.argmax(gap))  # the first NaN, when there is one
        largest = math.inf if np.isnan(gap[flat]) else float(gap[flat])  # overflow violates
        if largest > worst:  # strict: an earlier i keeps a tie
            worst, where = largest, (i, *np.unravel_index(flat, (n, n, n)))
    if worst > EPS:
        i, j, k, l = where
        raise CertificationFailure(
            f"associativity fails at (i,j,k,l)=({i},{j},{k},{l}) with residual {worst:.3e}",
            law="(b_i b_j) b_k = b_i (b_j b_k)",
            residual=worst,
            details={"quadruple": [int(i), int(j), int(k), int(l)]},
        )


def _find_identity(structure: np.ndarray) -> np.ndarray | None:
    """The two-sided identity, or None: ``e`` with ``e b_i = b_i = b_i e`` for every ``i``.

    Both families stack into one ``2n^2 x n`` system ``M e = b``; block
    ``(i, 0)`` is ``(k, m)``: the ``b_k`` coefficient of ``b_m b_i``, block
    ``(i, 1)`` that of ``b_i b_m``.  The ``n x n`` normal equations
    ``(M^H M) e = M^H b`` propose ``e``, which is kept when its residual
    ``max |M e - b|`` is at most ``EPS``.  They square the condition number
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 20), so the proposal is never kept uncertified: when it fails, or
    the Gram matrix is singular, ``lstsq`` decides on the same residual.
    A unital algebra has exactly one identity, so its ``M`` has full rank.
    The zero algebra is not unital here.
    """
    n = structure.shape[0]
    if n == 0:
        return None
    if not structure.imag.any():
        structure = structure.real
    system = np.stack([structure.transpose(1, 2, 0), structure.transpose(0, 2, 1)],
                      axis=1).reshape(2 * n * n, n)
    target = np.broadcast_to(np.eye(n)[:, None, :], (n, 2, n)).reshape(-1)
    adjoint = system.conj().T
    try:
        with np.errstate(all="ignore"):  # an overflow fails the residual, not the call
            e = np.linalg.solve(adjoint @ system, adjoint @ target)
            residual = max_abs(system @ e - target)
        if residual <= EPS:
            return as_complex(e)
    except np.linalg.LinAlgError:  # a singular Gram matrix
        pass
    with np.errstate(all="ignore"):  # likewise for lstsq on subnormal constants
        e, *_ = np.linalg.lstsq(system, target, rcond=None)
        residual = max_abs(system @ e - target)
    return as_complex(e) if residual <= EPS else None


def make_algebra(dim: int, structure, labels: Sequence[str] | None = None,
                 declared_identity=None) -> Algebra:
    """Build an algebra, verifying associativity and detecting the identity.

    ``structure`` is a dim^3 complex tensor.  If ``declared_identity`` is
    given it is verified (law ``e b_i = b_i = b_i e``); otherwise the
    identity is auto-detected by solving ``e . b_i = b_i = b_i . e``.
    """
    structure = as_complex(structure)
    if structure.shape != (dim, dim, dim):
        raise UsageError(f"structure tensor must have shape {(dim, dim, dim)}, got {structure.shape}")
    if labels is None:
        labels = tuple(f"b{i}" for i in range(dim))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise UsageError(f"{len(labels)} labels for dim {dim}")
    # a NaN residual compares false against EPS, so it would pass every check below
    if not np.isfinite(structure).all():
        raise UsageError("structure constants must be finite")
    if declared_identity is not None and not np.isfinite(as_complex(declared_identity)).all():
        raise UsageError("declared identity must be finite")
    _associativity_check(structure)

    if declared_identity is not None:
        e = as_complex(declared_identity).reshape(-1)
        basis_vecs = np.eye(dim, dtype=complex)
        left = np.einsum("m,mik->ik", e, structure)   # row i: e . b_i
        right = np.einsum("m,imk->ik", e, structure)  # row i: b_i . e
        certify(max(max_abs(left - basis_vecs), max_abs(right - basis_vecs)), EPS,
                "e b_i = b_i = b_i e", "declared identity fails with residual {residual:.3e}")
        identity = freeze(e)
    else:
        found = _find_identity(structure)
        identity = freeze(found) if found is not None else None

    return Algebra(dim=dim, basis_labels=labels, structure=freeze(structure),
                   identity_coords=identity)


def column_products(structure: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Product of every column of ``left`` with every column of ``right``.

    ``out[i, j, k] = sum_ab left[a, i] right[b, j] structure[a, b, k]``: the
    structure tensor pulled back along both factors.  It is two matrix
    products (BLAS), never the dim^5 three-operand loop.  Either factor may
    be a stack ``(B, n, i)``, which gives ``out[b]`` for ``left[b]`` and
    ``right[b]``; a 2-d factor is shared by the stack, not copied into it.
    Every ``out[b]`` comes from the same BLAS calls as its own contraction.
    """
    n_a, _, n_k = structure.shape
    n_i, n_j = left.shape[-1], right.shape[-1]
    # partial[..., a, j, :] = b_a . right_j
    partial = right.swapaxes(-1, -2)[..., None, :, :] @ structure
    out = left.swapaxes(-1, -2) @ partial.reshape(*partial.shape[:-3], n_a, n_j * n_k)
    return out.reshape(*out.shape[:-2], n_i, n_j, n_k)


def basis_products(structure: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Every basis product seen through ``matrix``: ``out[..., i, j, :] = matrix @ (b_i b_j)``.

    ``matrix`` is ``(m, n)``, a stack ``(B, m, n)``, or a functional ``(n,)``,
    which gives the ``(n, n)`` values ``<f, b_i b_j>`` by one matrix-vector product.
    """
    n = structure.shape[0]
    flat = structure.reshape(n * n, n)
    if matrix.ndim == 1:
        return (flat @ matrix).reshape(n, n)
    out = flat @ matrix.swapaxes(-1, -2)
    return out.reshape(*matrix.shape[:-2], n, n, matrix.shape[-2])


def multiply(algebra: Algebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product ``x . y`` via the structure tensor."""
    return column_products(algebra.structure, x[:, None], y[:, None])[0, 0]


def left_mult_matrix(algebra: Algebra, x) -> np.ndarray:
    """Matrix of ``y -> x . y`` (the left regular representation of x)."""
    return np.einsum("j,jik->ki", as_complex(x), algebra.structure)


def right_mult_matrix(algebra: Algebra, x) -> np.ndarray:
    """Matrix of ``y -> y . x``."""
    return np.einsum("j,ijk->ki", as_complex(x), algebra.structure)


def is_commutative(algebra: Algebra) -> bool:
    return max_abs(algebra.structure - algebra.structure.transpose(1, 0, 2)) <= EPS


def element_norm(x: np.ndarray) -> float:
    """The ell-1 norm ``sum_i |x_i|`` of the coordinates."""
    return float(np.sum(np.abs(x)))


# ---------------------------------------------------------------------------
# standard constructors
# ---------------------------------------------------------------------------

def function_algebra(n: int) -> Algebra:
    """C^n with the pointwise product."""
    structure = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        structure[i, i, i] = 1.0
    labels = [f"e{i + 1}" for i in range(n)]
    return make_algebra(n, structure, labels, declared_identity=np.ones(n))


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra M_n in the matrix-unit basis E_ij (row-major)."""
    dim = n * n
    structure = np.zeros((dim, dim, dim), dtype=complex)
    def idx(i, j):
        return i * n + j
    for i, j, k, l in iter_product(range(n), repeat=4):
        if j == k:
            structure[idx(i, j), idx(k, l), idx(i, l)] = 1.0
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    identity = np.zeros(dim, dtype=complex)
    for i in range(n):
        identity[idx(i, i)] = 1.0
    return make_algebra(dim, structure, labels, declared_identity=identity)


@dataclass(frozen=True)
class GroupTable:
    """A multiplication table of element indices that satisfies the group axioms.

    Only ``verify_group_table`` makes one, so whoever holds it verifies
    nothing again.  ``table[g, inverse[g]]`` is ``identity``.
    """

    table: np.ndarray
    identity: int
    inverse: np.ndarray

    def structure(self) -> np.ndarray:
        """Structure tensor of the group algebra: ``g_i g_j = g_table[i, j]``."""
        n = len(self.table)
        structure = np.zeros((n, n, n), dtype=complex)
        structure[np.arange(n)[:, None], np.arange(n), self.table] = 1.0
        return structure


def verify_group_table(table) -> GroupTable:
    """Check the group axioms on a multiplication table (``CertificationFailure`` if one fails)."""
    table = np.array(table, dtype=int)
    table.setflags(write=False)
    n = table.shape[0]
    if table.shape != (n, n):
        raise CertificationFailure("group table must be square", law="group table shape")
    if table.min() < 0 or table.max() >= n:
        raise CertificationFailure("table entries must index group elements", law="closure")
    order = np.arange(n)
    # e is an identity when row e and column e both read 0..n-1
    identities = np.flatnonzero((table == order).all(axis=1) & (table == order[:, None]).all(axis=0))
    if not identities.size:
        raise CertificationFailure("no identity element in table", law="identity axiom")
    identity = int(identities[0])
    # entries lie in 0..n-1, so a row or column is a permutation iff it sorts to 0..n-1
    latin = ((np.sort(table, axis=1) == order).all(axis=1)
             & (np.sort(table, axis=0) == order[:, None]).all(axis=0))
    if not latin.all():
        raise CertificationFailure(
            f"element {int(np.argmin(latin))} has no inverse (table not a Latin square)",
            law="inverse axiom")
    # [i, j, k]: (g_i g_j) g_k against g_i (g_j g_k); the first failure in C order is reported
    failures = np.argwhere(table[table] != table[:, table])
    if failures.size:
        i, j, k = failures[0]
        raise CertificationFailure(f"associativity fails at ({i},{j},{k})", law="associativity")
    inverse = np.argmax(table == identity, axis=1)
    inverse.setflags(write=False)
    return GroupTable(table=table, identity=identity, inverse=inverse)


def group_algebra(group: GroupTable, labels: Sequence[str] | None = None) -> Algebra:
    """Group algebra C[G] of a verified multiplication table."""
    n = len(group.table)
    if labels is None:
        labels = [f"g{i}" for i in range(n)]
        labels[group.identity] = "e"
    identity = np.zeros(n, dtype=complex)
    identity[group.identity] = 1.0
    return make_algebra(n, group.structure(), labels, declared_identity=identity)


def cyclic_group_table(n: int) -> GroupTable:
    return verify_group_table(np.fromfunction(lambda i, j: (i + j) % n, (n, n), dtype=int))


def product_algebra(a: Algebra, b: Algebra) -> Algebra:
    """Direct product with coordinatewise operations."""
    n, m = a.dim, b.dim
    structure = np.zeros((n + m, n + m, n + m), dtype=complex)
    structure[:n, :n, :n] = a.structure
    structure[n:, n:, n:] = b.structure
    labels = [f"{s}.a" for s in a.basis_labels] + [f"{s}.b" for s in b.basis_labels]
    identity = None
    if a.is_unital() and b.is_unital():
        identity = np.concatenate([a.identity_coords, b.identity_coords])
    return make_algebra(n + m, structure, labels, declared_identity=identity)


def opposite_algebra(a: Algebra) -> Algebra:
    """Opposite algebra: c_op[i][j][k] = c[j][i][k]."""
    return make_algebra(a.dim, a.structure.transpose(1, 0, 2), a.basis_labels,
                        declared_identity=a.identity_coords)


# ---------------------------------------------------------------------------
# subspace analysis
# ---------------------------------------------------------------------------

def _pair_products(algebra: Algebra, cols: np.ndarray) -> np.ndarray:
    """``u . v`` for every ordered pair of columns, as columns in ``(u, v)`` order."""
    n, m = cols.shape
    return column_products(algebra.structure, cols, cols).transpose(2, 0, 1).reshape(n, m * m)


def _action_escapes(algebra: Algebra, s: Subspace) -> np.ndarray:
    """Which products of the basis with ``s`` leave ``s``.

    Entry ``[i, j, 0]`` flags ``b_i . s_j`` and ``[i, j, 1]`` flags
    ``s_j . b_i``, where ``s_j`` are the canonical columns; C order is the
    order in which an escape witness is reported.
    """
    cols = s.canonical_columns()
    n, m = cols.shape
    actions = np.stack([np.einsum("aj,iak->ijk", cols, algebra.structure),
                        np.einsum("aj,aik->ijk", cols, algebra.structure)], axis=2)
    return s.residuals(actions.reshape(-1, n).T).reshape(n, m, 2) > EPS


def induced_subalgebra(algebra: Algebra, s: Subspace) -> tuple[Algebra, np.ndarray]:
    """Algebra structure on a multiplicatively closed subspace.

    Returns the induced algebra on the canonical echelon basis of ``s``
    together with the read-only embedding columns (dim x k).  Fails the law
    "closure under multiplication" when a basis product escapes the span.
    On ``s``'s own algebra the result is certified once and kept on ``s``.
    """
    own = algebra is s.algebra
    if own and "induced" in s.cache:
        return s.cache["induced"]
    q = freeze(s.canonical_columns())
    k = q.shape[1]
    if k == 0:
        induced = make_algebra(0, np.zeros((0, 0, 0)), []), q
    else:
        products = _pair_products(algebra, q)
        coeffs, residual = s.coordinates(products)
        certify(residual, EPS, "closure under multiplication",
                "a product of basis vectors escapes the subspace (residual {residual:.3e})")
        structure = coeffs.reshape(k, k, k).transpose(1, 2, 0)
        labels = [algebra.basis_labels[p] for p in s.pivots]
        induced = make_algebra(k, structure, labels), q
    if own:
        s.cache["induced"] = induced
    return induced


def quotient(algebra: Algebra, s: Subspace):
    """Quotient by a two-sided ideal, with the certified quotient map.

    The complement is spanned by the coordinates that are not pivots of
    the ideal's echelon form, which makes the quotient basis labelling
    reproducible.  The quotient by the whole algebra is the zero algebra.
    The quotient by the zero subspace is ``algebra`` itself with the identity
    map: it would rebuild the same tensor bit for bit, so nothing is built or
    certified again.  Returns ``(quotient_algebra, quotient_map)``.
    """
    # deferred: starmap imports algebra
    from .starmap import classify_multiplicativity, identity_map, make_map

    if s.dim == 0:
        return algebra, identity_map(algebra)
    escapes = _action_escapes(algebra, s)
    if escapes.any():
        i, j, side = np.unravel_index(int(np.argmax(escapes)), escapes.shape)
        witness = f"b_{i} . s_{j}" if side == 0 else f"s_{j} . b_{i}"
        raise CertificationFailure(
            f"subspace is not a two-sided ideal: {witness} escapes the subspace",
            law="A.S and S.A contained in S")
    n = algebra.dim
    free = s.free
    k = len(free)

    # reduce each product b_i b_j (i, j free) and each b_i onto the free coordinates
    products = algebra.structure[np.ix_(free, free)].reshape(k * k, n).T
    structure = s.reduce(products)[free].T.reshape(k, k, k)
    labels = [algebra.basis_labels[i] for i in free]
    quot = make_algebra(k, structure, labels)

    q_matrix = s.reduce(np.eye(n, dtype=complex))[free]
    qmap = make_map(q_matrix, conjugating=False, source=algebra, target=quot)

    certify(classify_multiplicativity(qmap).hom_residual, EPS, "q(xy) = q(x) q(y)",
            "quotient map fails multiplicativity (residual {residual:.3e})")
    return quot, qmap


def unitize_algebra(algebra: Algebra) -> Algebra:
    """Adjoin a unit: product (l, x)(m, y) = (lm, ly + mx + xy)."""
    n = algebra.dim
    structure = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    structure[0, 0, 0] = 1.0
    for i in range(n):
        structure[0, i + 1, i + 1] = 1.0
        structure[i + 1, 0, i + 1] = 1.0
    structure[1:, 1:, 1:] = algebra.structure
    labels = ["1"] + [str(s) for s in algebra.basis_labels]
    identity = np.zeros(n + 1, dtype=complex)
    identity[0] = 1.0
    return make_algebra(n + 1, structure, labels, declared_identity=identity)
