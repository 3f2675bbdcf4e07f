"""Linear and conjugate-linear maps between algebras.

A map is stored as a complex matrix plus a ``conjugating`` flag:
``f(x) = M x`` when linear, ``f(x) = M conj(x)`` when conjugate-linear.
Keeping the flag separate (instead of realifying to 2n x 2n matrices)
makes composition exact: matrices multiply with a conjugation twist and
flags combine by XOR.  A ``(B, m, n)`` matrix is a family of ``B`` maps with
one flag, source and target: the classifiers decide all of them in one
stacked contraction, and a ``(m, n)`` matrix is a family of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, Subspace, algebras_compatible, basis_products, column_products
from .errors import UsageError
from .linalg import (
    EPS,
    as_complex,
    column_space_and_nullspace,
    freeze,
    max_abs_each,
)

# Entries of one temporary in a stacked multiplicativity check (1 MiB of complex numbers):
# a family is contracted in blocks of maps that fit.
BLOCK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class AlgMap:
    """A (conjugate-)linear map between algebras, or a ``(B, m, n)`` family of them.

    Action contract: ``apply(f, x) = matrix @ x`` when not conjugating,
    ``matrix @ conj(x)`` when conjugating.  ``cache`` keeps what is certified
    once per map: its star verdicts, its kernel and image, its decomposition.
    """

    matrix: np.ndarray
    conjugating: bool
    source: Algebra
    target: Algebra
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))

    def __repr__(self) -> str:
        tag = "conj-linear" if self.conjugating else "linear"
        return f"AlgMap({tag}, {self.matrix.shape[-1]}->{self.matrix.shape[-2]})"


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


def classify_multiplicativity(f: AlgMap):
    """Check f(xy) = f(x)f(y) and f(xy) = f(y)f(x) on basis pairs.

    Basis pairs suffice: both sides are (conjugate-)bilinear.  Each side
    is matrix products: one for ``f(b_i b_j)`` and two for
    ``f(b_i) f(b_j)``, about ``n^2 m (n + m)`` multiply-adds for an
    ``n``-dimensional source and ``m``-dimensional target.  A family is
    contracted as stacks of at most ``BLOCK_ENTRIES / (n^2 m)`` maps and
    gives a list of ``B`` flags, each equal to its map's own; a single
    map gives its flags alone.
    """
    stack = f.matrix if f.matrix.ndim == 3 else f.matrix[None]
    m, n = stack.shape[1:]
    src_structure = np.conj(f.source.structure) if f.conjugating else f.source.structure
    block = max(1, BLOCK_ENTRIES // max(1, n * n * m))
    flags = []
    for start in range(0, len(stack), block):
        part = stack[start:start + block]
        # lhs[b, i, j, :] = f_b(b_i b_j); images of basis vectors are the matrix columns
        lhs = basis_products(src_structure, part)
        rhs = column_products(f.target.structure, part, part)
        hom = max_abs_each(lhs - rhs)
        anti = max_abs_each(lhs - rhs.swapaxes(1, 2))
        flags += [MultiplicativityFlags(homomorphism=h <= EPS, anti_homomorphism=a <= EPS,
                                        hom_residual=h, anti_residual=a)
                  for h, a in zip(hom.tolist(), anti.tolist())]
    return flags if f.matrix.ndim == 3 else flags[0]


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
    """Kernel and image subspaces from one rank factorization, made once per map.

    For a conjugating map the kernel is the conjugate of the matrix null
    space (still a complex subspace), since ``f(x) = M conj(x)``.
    """
    if "kernel_image" not in f.cache:
        image_cols, null_cols, _, _ = column_space_and_nullspace(f.matrix)
        kernel_cols = np.conj(null_cols) if f.conjugating else null_cols
        f.cache["kernel_image"] = (Subspace(kernel_cols, f.source), Subspace(image_cols, f.target))
    return f.cache["kernel_image"]


def map_norm(f: AlgMap) -> float:
    """The exact operator norm of the map between ell-1 normed algebras.

    It is the largest ell-1 norm of a matrix column, for conjugating maps
    too, and 0.0 for an empty matrix.
    """
    if f.matrix.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(f.matrix), axis=0)))
