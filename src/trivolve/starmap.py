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

from .algebra import Algebra, Subspace, algebras_compatible, basis_products, column_products
from .errors import UsageError
from .linalg import (
    EPS,
    as_complex,
    column_space_and_nullspace,
    freeze,
    max_abs,
)


@dataclass(frozen=True)
class AlgMap:
    """A (conjugate-)linear map between algebras.

    Action contract: ``apply(f, x) = matrix @ x`` when not conjugating,
    ``matrix @ conj(x)`` when conjugating.
    """

    matrix: np.ndarray
    conjugating: bool
    source: Algebra
    target: Algebra

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))

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


def apply(f: AlgMap, x: np.ndarray) -> np.ndarray:
    """Apply the map per the action contract."""
    return f.matrix @ (np.conj(x) if f.conjugating else x)


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


def classify_multiplicativity(f: AlgMap) -> MultiplicativityFlags:
    """Check f(xy) = f(x)f(y) and f(xy) = f(y)f(x) on basis pairs.

    Basis pairs suffice: both sides are (conjugate-)bilinear.  Each side
    is matrix products: one for ``f(b_i b_j)`` and two for
    ``f(b_i) f(b_j)``, about ``n^2 m (n + m)`` multiply-adds for an
    ``n``-dimensional source and ``m``-dimensional target.
    """
    src_structure = np.conj(f.source.structure) if f.conjugating else f.source.structure
    # lhs[i, j, :] = f(b_i b_j); images of basis vectors are the matrix columns
    lhs = basis_products(src_structure, f.matrix)
    rhs = column_products(f.target.structure, f.matrix, f.matrix)
    hom = max_abs(lhs - rhs)
    anti = max_abs(lhs - rhs.transpose(1, 0, 2))
    return MultiplicativityFlags(homomorphism=hom <= EPS, anti_homomorphism=anti <= EPS,
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


def kernel_image(f: AlgMap) -> tuple[Subspace, Subspace]:
    """Kernel and image subspaces from one rank factorization.

    For a conjugating map the kernel is the conjugate of the matrix null
    space (still a complex subspace), since ``f(x) = M conj(x)``.
    """
    image_cols, null_cols, _, _ = column_space_and_nullspace(f.matrix)
    kernel_cols = np.conj(null_cols) if f.conjugating else null_cols
    return (Subspace(kernel_cols, f.source), Subspace(image_cols, f.target))


def map_norm(f: AlgMap) -> float:
    """The exact operator norm of the map between ell-1 normed algebras.

    It is the largest ell-1 norm of a matrix column, for conjugating maps
    too, and 0.0 for an empty matrix.
    """
    if f.matrix.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(f.matrix), axis=0)))
