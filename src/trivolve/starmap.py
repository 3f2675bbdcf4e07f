"""Linear and conjugate-linear maps between algebras.

A map is stored as a complex matrix plus a ``conjugating`` flag:
``f(x) = M x`` when linear, ``f(x) = M conj(x)`` when conjugate-linear.
Keeping the flag separate (instead of realifying to 2n x 2n matrices)
makes composition exact: matrices multiply with a conjugation twist and
flags combine by XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NORM_ELL1, Algebra, Element, Subspace, algebras_compatible, element_norm
from .errors import UsageError
from .linalg import (
    EPS,
    EPS_RANK,
    as_complex,
    column_products,
    column_space_and_nullspace,
    freeze,
    max_abs,
)


@dataclass(frozen=True)
class AlgMap:
    """A (conjugate-)linear map between algebras.

    Action contract: ``apply(f, x) = matrix @ coords(x)`` when not
    conjugating, ``matrix @ conj(coords(x))`` when conjugating.
    """

    matrix: np.ndarray
    conjugating: bool
    source: Algebra
    target: Algebra

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))

    def __call__(self, x: Element) -> Element:
        return apply(self, x)

    def __repr__(self) -> str:
        tag = "conj-linear" if self.conjugating else "linear"
        return f"AlgMap({tag}, {self.matrix.shape[1]}->{self.matrix.shape[0]})"


def make_map(matrix, conjugating: bool, source: Algebra, target: Algebra | None = None) -> AlgMap:
    """Wrap a matrix as a map; no algebraic laws are assumed."""
    if target is None:
        target = source
    matrix = as_complex(matrix)
    if matrix.shape != (target.dim, source.dim):
        raise UsageError(
            f"matrix shape {matrix.shape} does not match (target dim, source dim) = "
            f"({target.dim}, {source.dim})")
    return AlgMap(matrix=matrix, conjugating=bool(conjugating), source=source, target=target)


def identity_map(algebra: Algebra) -> AlgMap:
    return make_map(np.eye(algebra.dim), conjugating=False, source=algebra)


def conjugation_map(algebra: Algebra) -> AlgMap:
    """Entrywise conjugation in the canonical basis."""
    return make_map(np.eye(algebra.dim), conjugating=True, source=algebra)


def apply(f: AlgMap, x: Element) -> Element:
    """Apply the map per the action contract."""
    if not algebras_compatible(f.source, x.algebra):
        raise UsageError("apply: element does not belong to the map's source algebra")
    coords = np.conj(x.coords) if f.conjugating else x.coords
    return Element(f.matrix @ coords, f.target)


def compose(f: AlgMap, g: AlgMap) -> AlgMap:
    """Composite ``f o g``; the conjugating flag is the XOR of the flags."""
    if not algebras_compatible(f.source, g.target):
        raise UsageError("compose: source of f differs from target of g")
    gm = np.conj(g.matrix) if f.conjugating else g.matrix
    return AlgMap(matrix=f.matrix @ gm, conjugating=f.conjugating != g.conjugating,
                  source=g.source, target=f.target)


def power(f: AlgMap, n: int) -> AlgMap:
    out = f
    for _ in range(n - 1):
        out = compose(out, f)
    return out


@dataclass(frozen=True)
class MultiplicativityFlags:
    homomorphism: bool
    anti_homomorphism: bool
    hom_residual: float
    anti_residual: float


def classify_multiplicativity(f: AlgMap, tol: float = EPS) -> MultiplicativityFlags:
    """Check f(xy) = f(x)f(y) and f(xy) = f(y)f(x) on basis pairs.

    Basis pairs suffice: both sides are (conjugate-)bilinear.  Each side
    is matrix products: one for ``f(b_i b_j)`` and two for
    ``f(b_i) f(b_j)``, about ``n^2 m (n + m)`` multiply-adds for an
    ``n``-dimensional source and ``m``-dimensional target.
    """
    src_structure = f.source.structure
    if f.conjugating:
        src_structure = np.conj(src_structure)
    n, m = f.source.dim, f.target.dim
    # lhs[i, j, :] = f(b_i b_j); images of basis vectors are the matrix columns
    lhs = (src_structure.reshape(n * n, n) @ f.matrix.T).reshape(n, n, m)
    rhs = column_products(f.target.structure, f.matrix, f.matrix)
    hom = max_abs(lhs - rhs)
    anti = max_abs(lhs - rhs.transpose(1, 0, 2))
    return MultiplicativityFlags(homomorphism=hom <= tol, anti_homomorphism=anti <= tol,
                                 hom_residual=hom, anti_residual=anti)


def adjoint(f: AlgMap) -> AlgMap:
    """Map on dual coordinate vectors induced by ``f``.

    For a linear map ``<f*(phi), a> = <phi, f(a)>``, which gives the
    transpose matrix.  For a conjugating map
    ``<f*(phi), a> = conj <phi, f(a)>``, which gives the entrywise
    conjugate of the transpose, again conjugating.  The pairing follows the map's linearity: the other one
    would have to be linear and conjugate-linear in ``a`` at once.
    """
    matrix = np.conj(f.matrix.T) if f.conjugating else f.matrix.T
    return AlgMap(matrix=matrix, conjugating=f.conjugating, source=f.target, target=f.source)


def kernel_image(f: AlgMap, tol: float = EPS_RANK) -> tuple[Subspace, Subspace]:
    """Kernel and image subspaces from one rank factorization.

    For a conjugating map the kernel is the conjugate of the matrix null
    space (still a complex subspace), since ``f(x) = M conj(x)``.
    """
    image_cols, null_cols, _, _ = column_space_and_nullspace(f.matrix, tol)
    kernel_cols = np.conj(null_cols) if f.conjugating else null_cols
    return (Subspace(kernel_cols, f.source), Subspace(image_cols, f.target))


def norm_is_sampled(f: AlgMap) -> bool:
    """True when ``map_norm(f)`` is a sampled lower bound, not the exact norm."""
    return not (f.source.norm_kind == NORM_ELL1 and f.target.norm_kind == NORM_ELL1)


def map_norm(f: AlgMap) -> float:
    """Operator norm of the map under the source algebra's norm.

    Exact for the ell-1 norm (max column ell-1 norm, valid for
    conjugating maps too).  For the left-regular operator norm this is a
    sampled lower-bound estimate (``norm_is_sampled``) over the basis and
    200 random directions of a generator seeded with 0, which must not
    certify an upper bound such as contractivity.
    """
    if not norm_is_sampled(f):
        if f.matrix.size == 0:
            return 0.0
        return float(np.max(np.sum(np.abs(f.matrix), axis=0)))
    rng = np.random.default_rng(0)
    best = 0.0
    candidates = [f.source.basis_element(i).coords for i in range(f.source.dim)]
    for _ in range(200):
        candidates.append(rng.standard_normal(f.source.dim)
                          + 1j * rng.standard_normal(f.source.dim))
    for c in candidates:
        x = Element(np.asarray(c, dtype=complex), f.source)
        nx = element_norm(x)
        if nx < 1e-12:
            continue
        best = max(best, element_norm(apply(f, x)) / nx)
    return best
