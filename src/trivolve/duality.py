"""Dual module actions, the quotient X* = A / X^perp, involution extension, characters, TIMs.

Functionals live in the dual basis, paired bilinearly: ``<f, x> = sum f_i x_i``.
A functional is its coordinate vector there, a complex 1-d ndarray; a
character is such a vector that ``verify_character`` has certified.
For an introverted subspace ``X`` of the dual, ``X*`` is the quotient
``A / X^perp`` of the second dual (which is ``A`` in finite dimension) by
the annihilator of ``X``: ``algebra.quotient(algebra, X^perp)``, in the
coordinates that are not pivots of the annihilator's echelon form.  Its
product is the first Arens product.  Every finite-dimensional algebra is
Arens regular (R. Arens, "The adjoint of a bilinear operation", Proc.
Amer. Math. Soc. 2 (1951)): the second Arens product is the same tensor,
so it is not computed.

Every module action is taken over the whole basis at once, and once per
space: the stacks ``lambda . b_i`` and ``b_i . lambda`` for all ``i`` are
two views of one contraction of the structure tensor, which
``check_introverted`` makes, and their membership in ``X`` is one batched
reduction.  In finite dimension the second dual is ``A`` itself, so the
functionals ``Phi_i`` that span ``X*`` act as the basis vectors do
(``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``);
the submodule stacks therefore also decide introversion, which holds
exactly when ``X^perp`` is a two-sided ideal of ``A``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .algebra import (
    Algebra,
    GroupTable,
    Subspace,
    basis_products,
    is_commutative,
    left_mult_matrix,
    multiply,
    quotient,
    right_mult_matrix,
    same_structure,
)
from .errors import CertificationFailure, UsageError, certify
from .linalg import (
    EPS,
    EPS_RANK,
    as_complex,
    column_space_and_nullspace,
    freeze,
    max_abs,
)
from .instances import _involutive_permutations_canonical, averaging_trivolution, indicator_trivolution
from .starmap import AlgMap, adjoint
from .trivolution import KIND_INVOLUTION, classify_star_map


def verify_character(algebra: Algebra, coords, eps: float = EPS) -> np.ndarray:
    """Certify multiplicativity on basis pairs and non-vanishing, both at ``eps``.

    Returns a read-only copy of the certified coordinate vector.
    """
    coords = freeze(coords).reshape(-1)
    if max_abs(coords) <= eps:
        raise CertificationFailure("the zero functional is not a character",
                                   law="characters are non-zero")
    prods = basis_products(algebra.structure, coords)
    certify(max_abs(prods - np.outer(coords, coords)), eps, "phi(xy) = phi(x) phi(y)",
            "functional is not multiplicative")
    return coords


@dataclass(frozen=True)
class CharacterSearch:
    characters: list[np.ndarray]
    possibly_incomplete: bool


def find_characters(algebra: Algebra, seed: int = 0) -> CharacterSearch:
    """All characters of a commutative algebra, via the regular representation.

    Characters are common left eigenvectors of the transposed
    multiplication matrices; a generic element separates them when the
    algebra is semisimple.  The result is complete for commutative
    semisimple algebras and flagged ``possibly_incomplete`` otherwise.
    """
    if not is_commutative(algebra):
        raise CertificationFailure("character discovery is implemented for commutative algebras; "
                                   "verify user-supplied candidates instead", law="ab = ba")
    found: list[np.ndarray] = []

    def try_generic(rng_seed: int) -> None:
        rng = np.random.default_rng(rng_seed)
        g = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        l_g = left_mult_matrix(algebra, g)
        values, vectors = np.linalg.eig(l_g.T)
        for lam, vec in zip(values, vectors.T):
            scale_ref = complex(vec @ g)
            if abs(scale_ref) <= EPS_RANK or abs(lam) <= EPS_RANK:
                continue
            candidate = (lam / scale_ref) * vec
            try:
                char = verify_character(algebra, candidate, 1e3 * EPS)
            except CertificationFailure:
                continue
            if all(max_abs(char - c) > 1e-6 for c in found):
                found.append(char)

    for attempt in range(3):
        try_generic(seed * 1000 + attempt + 1)
        if len(found) == algebra.dim:
            break
    found.sort(key=lambda c: tuple(np.round(
        np.stack([c.real, c.imag], axis=1).reshape(-1), 6)))
    return CharacterSearch(characters=found, possibly_incomplete=len(found) < algebra.dim)


# ---------------------------------------------------------------------------
# introverted subspaces and X* = A / X^perp
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntrovertedSpace:
    """A subspace ``X`` of the dual with its module/introversion certificates and ``X*``.

    ``X*`` is ``quotient``, ``A / X^perp``, built by ``algebra.quotient``
    once the space is certified introverted: a class is represented by its
    one member supported on the annihilator's free (non-pivot) coordinates.
    ``lambda_s`` are the canonical columns of ``basis``.
    """

    algebra: Algebra
    basis: Subspace  # columns are dual-basis coordinate vectors
    annihilator: Subspace  # X^perp in the second dual
    introverted: bool  # a submodule, and so left and right introverted
    faithful: bool
    residuals: np.ndarray = field(repr=False)  # [s, i, side]: lambda_s . b_i, b_i . lambda_s in X
    diagnostic: str = ""

    def require_introverted(self) -> None:
        """Fail the law ``X topologically introverted``, naming the first escape, if it is not."""
        if not self.introverted:
            raise CertificationFailure("X is not a two-sided introverted subspace of the dual",
                                       law="X topologically introverted",
                                       details={"escape": self.diagnostic})

    @property
    def free(self) -> list[int]:
        """The coordinates of ``X*``."""
        return self.annihilator.free

    def embed_coords(self, coords) -> np.ndarray:
        """The representative in the second dual of ``X*`` coordinates."""
        coords = as_complex(coords)
        out = np.zeros((self.algebra.dim,) + coords.shape[1:], dtype=complex)
        out[self.free] = coords
        return out

    @cached_property
    def quotient_map(self) -> AlgMap:
        """The certified quotient map ``q: A -> X*``; column ``a`` of its matrix is the class of ``b_a``.

        ``X`` is introverted exactly when ``X^perp`` is a two-sided ideal, so
        the quotient is built, once, only after that is certified.
        """
        self.require_introverted()
        return quotient(self.algebra, self.annihilator)[1]

    @property
    def quotient(self) -> Algebra:
        """``X* = A / X^perp`` with its Arens product."""
        return self.quotient_map.target

    @cached_property
    def actions(self) -> np.ndarray:
        """``[a, side, row, t]``: ``b_a`` acting on ``X*``, ``L_a`` (side 0) and ``R_a``.

        ``b_a`` runs over ``X*``'s own basis, and ``L_a`` and ``R_a`` are the
        quotient's left and right multiplication matrices, read off its
        structure tensor.  They do not depend on a character, so every
        ``tim_set`` call on the space shares them.
        """
        c = self.quotient.structure  # [a, t, row]: the b_row coefficient of b_a b_t
        # stored [side, row, a, t]: action_gram's batched product rounds by the memory layout
        return freeze(np.stack([c.transpose(2, 0, 1), c.transpose(2, 1, 0)]).transpose(2, 0, 1, 3))

    @cached_property
    def action_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """``(S0, T)``: ``S0 = sum_a L_a^H L_a + R_a^H R_a`` and the stack ``T_a = L_a + R_a``.

        ``S0`` is one batched ``k x k`` product and a numpy sum, never a BLAS
        call over a tall matrix, so it does not depend on the thread count.
        """
        a = self.actions
        return (freeze((np.swapaxes(a, -1, -2).conj() @ a).sum(axis=(0, 1))),
                freeze(a.sum(axis=1)))


def full_dual(algebra: Algebra) -> IntrovertedSpace:
    """X = A*: always a faithful introverted submodule."""
    return check_introverted(algebra, np.eye(algebra.dim))


def check_introverted(algebra: Algebra, x_basis) -> IntrovertedSpace:
    """Certify the introversion and faithfulness flags for ``X``.

    ``X`` is a submodule when every ``lambda_s . b_i`` and ``b_i . lambda_s``
    lies in ``X``.  Introversion asks the same of ``Phi_i . lambda`` and
    ``lambda . Phi_i`` for functionals ``Phi_i`` restricted from a full
    second-dual basis, which surject onto ``X*``.  In finite dimension
    ``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``,
    so submodule, left and right introversion are one flag, read off the
    submodule stacks.  A failed check reports ``introverted`` false with a
    diagnostic naming the first escape (by ``s``, then ``i``, right action
    first) rather than raising.
    """
    x = Subspace(as_complex(x_basis), algebra)
    n = algebra.dim
    lams = x.canonical_columns()
    values = basis_products(algebra.structure, lams.T)  # [a, y, s]: <lambda_s, b_a b_y>
    # [s, i, side, y]: lambda_s . b_i is values[i, :, s], b_i . lambda_s is values[:, i, s]
    stacks = np.stack([values.transpose(2, 0, 1), values.transpose(2, 1, 0)], axis=2)
    residuals = x.residuals(stacks.reshape(-1, n).T).reshape(stacks.shape[:3])
    escapes = residuals > EPS
    introverted = not escapes.any()
    diagnostic = ""
    if not introverted:
        s, i, side = np.unravel_index(int(np.argmax(escapes)), escapes.shape)
        diagnostic = (f"lambda_{s} . b_{i} escapes X" if side == 0
                      else f"b_{i} . lambda_{s} escapes X")
    _, annihilator, _, _ = column_space_and_nullspace(lams.T)  # the null space of evaluation
    return IntrovertedSpace(algebra=algebra, basis=x, annihilator=Subspace(annihilator, algebra),
                            introverted=introverted, faithful=x.dim == n,
                            residuals=residuals, diagnostic=diagnostic)


def extend_involution(algebra: Algebra, theta: AlgMap, space: IntrovertedSpace) -> AlgMap:
    """Extend an involution of ``A`` to ``X*`` by the double-adjoint recipe.

    ``space`` is the introverted space holding ``X``.  Requires the
    conjugate-linear adjoint to leave ``X`` invariant (checked first).  The
    extension is certified as an involution of ``space.quotient``, and
    certified to agree with ``theta`` along the quotient map when ``X`` is
    faithful.
    """
    theta_verdict = classify_star_map(algebra, theta)
    if theta_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("theta is not an involution on the algebra",
                                   law="theta^2 = id, conjugate-linear anti-homomorphism")
    moved = space.basis.residuals(adjoint(theta).matrix @ np.conj(space.basis.canonical_columns()))
    if np.any(moved > EPS):
        raise CertificationFailure("the adjoint moves X off itself",
                                   law="theta*(X) contained in X",
                                   residual=float(moved[np.argmax(moved > EPS)]))
    quot, free = space.quotient, space.free
    # column i: the class of theta applied to the real basis vector b_f, f = free[i]
    matrix = space.annihilator.reduce(theta.matrix[:, free])[free]
    extension = AlgMap(matrix=matrix, conjugating=True, source=quot, target=quot)
    verdict = classify_star_map(quot, extension)
    if verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("the double adjoint failed to be an involution on X*",
                                   law="Theta is an involution on (X*, box)",
                                   residual=verdict.residual)
    if space.faithful:
        q = space.quotient_map.matrix
        certify(max_abs(extension.matrix @ np.conj(q) - q @ theta.matrix), EPS,
                "Theta extends theta along A -> X*", "extension does not restrict to theta")
    return extension


# ---------------------------------------------------------------------------
# topological invariant means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimSolutionSet:
    """Affine set of invariant means, as representatives in the second dual."""

    particular: np.ndarray | None
    homogeneous: np.ndarray  # columns; full-length representatives

    @property
    def affine_dim(self) -> int | None:
        return None if self.particular is None else self.homogeneous.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def is_unique(self) -> bool:
        return self.particular is not None and self.homogeneous.shape[1] == 0


def tim_set(algebra: Algebra, space: IntrovertedSpace, phi: np.ndarray) -> TimSolutionSet:
    """Solve ``<m, phi> = 1`` and ``a.m = m.a = phi(a) m`` for ``m`` in ``X*``.

    The module actions on ``X*`` need ``X`` introverted, which is certified first.
    It suffices to take ``a`` over ``X*``'s basis, the classes of ``b_f`` for
    ``f`` in ``free``: a class acts through any representative, and ``phi``,
    which lies in ``X``, vanishes on ``X^perp``.  With ``phi_f = phi[free]``
    the system stacks, for each such ``a``, the blocks ``L_a - phi_f[a] I`` and
    ``R_a - phi_f[a] I`` of ``space.actions`` over the row ``phi_f``;
    it is decided through its ``k x k`` Gram matrix
    ``G = S0 - H - H^H + 2 |phi_f|^2 I + conj(phi_f) phi_f^T``, with
    ``(S0, T) = space.action_gram`` and ``H = sum_a conj(phi_f[a]) T_a``.  Every
    sum is a batched ``k x k`` product or an elementwise one, so ``G`` and the
    result do not depend on the BLAS thread count.  One ``eigh`` of ``G``
    gives the solve.  It keeps the eigenvalues above ``EPS_RANK ** 2``: the
    eigenvalues of ``G`` are the squared singular values of the system, so
    this is ``column_space_and_nullspace``'s cut at ``EPS_RANK``, and it
    keeps the division finite.

    The Gram squares the condition number (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 20), so a badly scaled basis
    can leave the first solve's residual above ``EPS`` where the tall
    system's SVD met it.  Such a solve is refined against the residual
    of the full system, ``u -= G^+ A^H r``, until that residual is at most
    ``EPS``, with LAPACK ``xGERFS``'s limits: at most five steps, each kept
    only if it halves the residual.  The solution is certified on the full
    system: the set is empty when its worst residual exceeds ``EPS``.

    A mean, when one exists, is unique in finite dimension: if ``m0`` and
    ``m0 + h`` are means, then ``h = h.m0 = <h, phi> m0 = 0``.  So the set
    has no homogeneous part, and ``G`` is nonsingular whenever a mean
    exists.  When none exists, every candidate fails the residual, so the
    cut cannot change that verdict.
    """
    space.require_introverted()
    certify(space.basis.residual(phi), EPS, "phi in X", "the character does not lie in X")
    phi_f = phi[space.free]
    s0, t = space.action_gram
    h = (np.conj(phi_f)[:, None, None] * t).sum(axis=0)
    gram = (s0 - h - h.conj().T + 2 * np.sum(np.abs(phi_f) ** 2) * np.eye(len(phi_f))
            + np.outer(np.conj(phi_f), phi_f))
    values, vectors = np.linalg.eigh(gram)
    keep = values > EPS_RANK ** 2
    basis = vectors[:, keep]

    def solve(rhs: np.ndarray) -> np.ndarray:
        return basis @ ((basis.conj().T @ rhs) / values[keep])

    def residuals(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        blocks = space.actions @ u - phi_f[:, None, None] * u  # a.m - phi(a) m, m.a - phi(a) m
        last = phi_f @ u - 1.0
        return blocks, last, max(max_abs(blocks), max_abs(last))

    u = solve(np.conj(phi_f))
    blocks, last, residual = residuals(u)
    for _ in range(5):
        if residual <= EPS:
            break
        # A^H r, the normal equations' right-hand side for the correction
        adjoint = ((blocks[..., None] * space.actions.conj()).sum(axis=(0, 1, 2))
                   - (np.conj(phi_f)[:, None, None] * blocks).sum(axis=(0, 1))
                   + np.conj(phi_f) * last)
        refined = u - solve(adjoint)
        refined_blocks, refined_last, refined_residual = residuals(refined)
        if not refined_residual <= residual / 2:
            break
        u, blocks, last, residual = refined, refined_blocks, refined_last, refined_residual
    particular = None if residual > EPS else space.embed_coords(u)
    return TimSolutionSet(particular=particular,
                          homogeneous=np.zeros((algebra.dim, 0), dtype=complex))


@dataclass(frozen=True)
class TimObstructionReport:
    vacuous: bool
    unique: bool
    chain_residuals: dict = field(default_factory=dict)


def tim_obstruction_check(means: TimSolutionSet, phi: np.ndarray, star: AlgMap,
                          space: IntrovertedSpace) -> TimObstructionReport:
    """Certify the invariance/absorption/fixed-point chain for each mean.

    ``means`` is ``tim_set(algebra, space, phi)`` and ``star`` is
    ``extend_involution``'s certified involution of ``(X*, box)``, for one
    introverted ``space``; both are taken as given, not solved again.
    ``star`` must be compatible with the character
    (``<phi, a*> = conj <phi, a>`` on the embedded algebra).  The chain
    forces any mean to be star-fixed and absorbing, hence unique, as
    ``tim_set``'s solution set always is.  Every action is read off
    ``space.quotient``, the box algebra, so nothing is reduced again.
    """
    quot, q = space.quotient, space.quotient_map.matrix  # column a of q: the class of b_a
    phi_f = phi[space.free]
    certify(max_abs(phi_f @ (star.matrix @ np.conj(q)) - np.conj(phi_f @ q)), EPS,
            "<phi, a*> = conj <phi, a>", "star is not compatible with the character")

    if means.is_empty:
        return TimObstructionReport(vacuous=True, unique=True, chain_residuals={})

    m = means.particular[space.free]
    m_star = star.matrix @ np.conj(m)
    residuals: dict[str, float] = {}

    # invariance transported through star: a . m* = m* . a = phi(a) m*, column a each; the
    # left one is also absorption, n box m* = <n, phi> m* for n = b_free_a
    scaled = np.outer(phi_f, m_star).T  # phi(a) first: products keep the scalar's side
    left_gap = max_abs(right_mult_matrix(quot, m_star) - scaled)
    residuals["star_invariance"] = max(left_gap, max_abs(left_mult_matrix(quot, m_star) - scaled))
    residuals["absorption"] = left_gap

    # fixed-point chain m = (m*)* = (m box m*)* = m box m* = <m, phi> m* = m*
    m_star_star = star.matrix @ np.conj(m_star)
    residuals["double_star"] = max_abs(m_star_star - m)
    m_box_mstar = multiply(quot, m, m_star)
    m_phi = complex(phi_f @ m)
    residuals["product_vs_scaling"] = max_abs(m_box_mstar - m_phi * m_star)
    residuals["normalization"] = abs(m_phi - 1.0)
    residuals["star_fixed"] = max_abs(m - m_star)

    certify(max(residuals.values()), EPS,
            "a.m* = m*.a = phi(a) m*; n box m* = <n,phi> m*; m = m*",
            "the invariant-mean identity chain failed", details=residuals)
    return TimObstructionReport(vacuous=False, unique=True, chain_residuals=residuals)


# ---------------------------------------------------------------------------
# structured trivolution search
# ---------------------------------------------------------------------------

def _is_pointwise(algebra: Algebra) -> bool:
    expected = np.zeros_like(algebra.structure)
    for i in range(algebra.dim):
        expected[i, i, i] = 1.0
    return max_abs(algebra.structure - expected) <= EPS


def search_trivolutions(algebra: Algebra, family_spec: dict) -> list[AlgMap]:
    """Enumerate a structured family of star-map candidates.

    Families: ``function_indicator`` (indicator projection composed with
    conjugation and a canonical involutive permutation of the selected
    coordinates), ``group_quotient`` (standard group-algebra involution
    composed with averaging over supplied normal subgroups of the
    ``GroupTable`` under ``table``).  Only candidates passing
    classification are returned; the enumeration is exhaustive within the
    declared family only.
    """
    family = family_spec.get("family")
    if family == "function_indicator":
        if not _is_pointwise(algebra):
            raise UsageError("function_indicator requires a pointwise function algebra")
        n = algebra.dim
        candidates = [indicator_trivolution(algebra, k_set, perm)
                      for size in range(1, n + 1)
                      for k_set in combinations(range(n), size)
                      for perm in _involutive_permutations_canonical(k_set)]
    elif family == "group_quotient":
        group: GroupTable = family_spec["table"]
        if not same_structure(group.structure(), algebra.structure):
            raise UsageError("algebra does not match the supplied group table")
        candidates = [averaging_trivolution(algebra, group, subgroup)
                      for subgroup in family_spec.get("normal_subgroups", [[group.identity]])]
    else:
        raise UsageError(f"unknown family {family!r}")
    if not candidates:
        return []
    # every candidate is conjugate-linear, so the family is one stack for classify_star_map
    stack = AlgMap(matrix=np.stack([f.matrix for f in candidates]), conjugating=True,
                   source=algebra, target=algebra)
    verdicts = classify_star_map(algebra, stack)
    return [f for f, verdict in zip(candidates, verdicts) if verdict.is_trivolution]
