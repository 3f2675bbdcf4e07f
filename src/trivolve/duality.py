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
reduction, or none for ``X = A*``, which holds every functional.  In
finite dimension the second dual is ``A`` itself, so the functionals
``Phi_i`` that span ``X*`` act as the basis vectors do
(``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``);
the submodule stacks therefore also decide introversion, which holds
exactly when ``X^perp`` is a two-sided ideal of ``A``.
"""

from __future__ import annotations

import math
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
    max_abs_each,
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
    For ``X = A*`` the annihilator is 0, and ``X*`` is ``A`` itself.
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
    _, annihilator = column_space_and_nullspace(lams.T)  # the null space of evaluation
    return IntrovertedSpace(algebra=algebra, basis=x, annihilator=Subspace(annihilator, algebra),
                            introverted=introverted, faithful=x.dim == n,
                            residuals=residuals, diagnostic=diagnostic)


def extend_involution(algebra: Algebra, theta: AlgMap, space: IntrovertedSpace) -> AlgMap:
    """Extend an involution of ``A`` to ``X*`` by the double-adjoint recipe.

    ``space`` is the introverted space holding ``X``.  Requires the
    conjugate-linear adjoint to leave ``X`` invariant (checked first).  The
    extension is certified as an involution of ``space.quotient``.
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
    return extension


# ---------------------------------------------------------------------------
# topological invariant means
# ---------------------------------------------------------------------------

def tim_set(space: IntrovertedSpace,
            phi: np.ndarray) -> list[np.ndarray | None] | np.ndarray | None:
    """The mean ``m`` in ``X*`` with ``<m, phi> = 1`` and ``a.m = m.a = phi(a) m``, or None.

    ``phi`` is a ``(B, n)`` stack of characters, and the result is the list of
    their ``B`` means, each returned as its representative in the second dual.
    A 1-d character is a stack of one, whose mean (or None) is returned alone.
    Every member comes out bit for bit as it would on its own.

    The module actions on ``X*`` need ``X`` introverted, which is certified
    first, and then every member's ``phi in X``, by one residuals call.
    It suffices to take ``a`` over ``X*``'s basis, the classes of ``b_f`` for
    ``f`` in ``free``: a class acts through any representative, and ``phi``,
    which lies in ``X``, vanishes on ``X^perp``.  With ``phi_f = phi[free]``
    the system stacks, for each such ``a``, the blocks ``L_a - phi_f[a] I`` and
    ``R_a - phi_f[a] I`` of ``space.actions`` over the row ``phi_f``;
    it is decided through its ``k x k`` Gram matrix
    ``G = S0 - H - H^H + 2 |phi_f|^2 I + conj(phi_f) phi_f^T``, with
    ``(S0, T) = space.action_gram`` and ``H = sum_a conj(phi_f[a]) T_a``.  Every
    sum is a batched ``k x k`` product or an elementwise one, so ``G`` and the
    result do not depend on the BLAS thread count.  Each member's ``G`` is
    summed on its own, and one batched ``eigh`` of the stack gives every
    solve.  It keeps the eigenvalues above ``EPS_RANK ** 2``: the
    eigenvalues of ``G`` are the squared singular values of the system, so
    this is ``column_space_and_nullspace``'s cut at ``EPS_RANK``, and it
    keeps the division finite.

    The Gram squares the condition number (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 20), so a badly scaled basis
    can leave the first solve's residual above ``EPS`` where the tall
    system's SVD met it.  Such a solve is refined against the residual
    of the full system, ``u -= G^+ A^H r``, until that residual is at most
    ``EPS``, with LAPACK ``xGERFS``'s limits: at most five steps, each kept
    only if it halves the residual.  The residuals of the whole stack are
    one product of the actions with ``(k, 1)`` columns, and only the members
    above ``EPS`` are refined.  A solution is certified on the full system:
    there is no mean when its worst residual exceeds ``EPS``.

    A mean, when one exists, is unique: if ``m0`` and ``m0 + h`` are means,
    then ``h = h.m0 = <h, phi> m0 = 0``, so ``G`` is nonsingular and the
    solve is the mean.  When none exists, every candidate fails the
    residual, so the cut cannot change that verdict.
    """
    space.require_introverted()
    phis = np.reshape(phi, (-1, space.algebra.dim))
    for residual in space.basis.residuals(phis.T):
        certify(residual, EPS, "phi in X", "the character does not lie in X")
    phi_f = np.ascontiguousarray(phis[:, space.free])  # rows as BLAS reads a lone phi[free]
    s0, t = space.action_gram
    eye = np.eye(phi_f.shape[1])
    grams = np.zeros((len(phi_f),) + eye.shape, dtype=complex)
    for gram, p in zip(grams, phi_f):
        h = (np.conj(p)[:, None, None] * t).sum(axis=0)
        gram[...] = (s0 - h - h.conj().T + 2 * np.sum(np.abs(p) ** 2) * eye
                     + np.outer(np.conj(p), p))
    values, vectors = np.linalg.eigh(grams)

    def solve(b: int, rhs: np.ndarray) -> np.ndarray:
        keep = values[b] > EPS_RANK ** 2
        basis = vectors[b][:, keep]
        return basis @ ((basis.conj().T @ rhs) / values[b][keep])

    def residuals(u: np.ndarray, p: np.ndarray):
        """Per member: ``a.m - phi(a) m`` and ``m.a - phi(a) m``, ``<m, phi> - 1``, the worst."""
        blocks = ((space.actions @ u[:, None, None, :, None])[..., 0]
                  - p[:, :, None, None] * u[:, None, None, :])
        last = (p[:, None, :] @ u[:, :, None])[:, 0, 0] - 1.0
        worst = np.maximum(max_abs_each(blocks), np.abs(last))
        worst[np.isnan(worst)] = math.inf
        return blocks, last, worst

    u = np.array([solve(b, np.conj(p)) for b, p in enumerate(phi_f)]).reshape(phi_f.shape)
    blocks, last, worst = residuals(u, phi_f)
    for b in np.flatnonzero(worst > EPS):
        p, u_b, blocks_b, last_b, residual = phi_f[b], u[b], blocks[b], last[b], worst[b]
        for _ in range(5):
            if residual <= EPS:
                break
            # A^H r, the normal equations' right-hand side for the correction
            adjoint = ((blocks_b[..., None] * space.actions.conj()).sum(axis=(0, 1, 2))
                       - (np.conj(p)[:, None, None] * blocks_b).sum(axis=(0, 1))
                       + np.conj(p) * last_b)
            refined = u_b - solve(b, adjoint)
            (new_blocks,), (new_last,), (new_residual,) = residuals(refined[None], p[None])
            if not new_residual <= residual / 2:
                break
            u_b, blocks_b, last_b, residual = refined, new_blocks, new_last, new_residual
        u[b], worst[b] = u_b, residual
    means = [None if residual > EPS else space.embed_coords(u_b)
             for u_b, residual in zip(u, worst)]
    return means if np.ndim(phi) == 2 else means[0]


def tim_obstruction_check(mean: list[np.ndarray | None] | np.ndarray | None, phi: np.ndarray,
                          star: AlgMap, space: IntrovertedSpace
                          ) -> list[dict[str, float]] | dict[str, float]:
    """Certify the invariance/absorption/fixed-point chain for each mean; its residuals.

    ``phi`` is a ``(B, n)`` stack of characters and ``mean`` the list
    ``tim_set(space, phi)`` gives for it; the result is the list of the ``B``
    chains' residuals.  A 1-d character is a stack of one, with its one
    mean, and its chain is returned alone.  ``star`` is
    ``extend_involution``'s certified involution of ``(X*, box)``, for one
    introverted ``space``; the means and ``star`` are taken as given, not
    solved again.  ``star`` must be compatible with each character
    (``<phi, a*> = conj <phi, a>`` on the embedded algebra); the stack's
    compatibility residuals are one product with ``(1, k)`` rows.  Member by
    member, in order, compatibility is certified and then the chain, so the
    first failure is the one a member-by-member loop meets.  With no mean
    there is no chain, and the residuals are ``{}``.  A mean is unique
    (``tim_set``), so there is one chain to certify, and it ends in
    ``m = m*``.  Every action is read off ``space.quotient``, the box
    algebra, so nothing is reduced again; ``left_mult_matrix`` and
    ``right_mult_matrix`` take one member at a time.
    """
    quot, q = space.quotient, space.quotient_map.matrix  # column a of q: the class of b_a
    phi_f = np.ascontiguousarray(np.reshape(phi, (-1, space.algebra.dim))[:, space.free])
    means = [mean] if np.ndim(phi) == 1 else mean
    rows = phi_f[:, None, :]
    compatibility = max_abs_each((rows @ (star.matrix @ np.conj(q)) - np.conj(rows @ q))[:, 0])
    chains = []
    for p, m, gap in zip(phi_f, means, compatibility):
        certify(gap, EPS, "<phi, a*> = conj <phi, a>", "star is not compatible with the character")
        chains.append({} if m is None else _mean_chain(quot, star, p, m[space.free]))
    return chains if np.ndim(phi) == 2 else chains[0]


def _mean_chain(quot: Algebra, star: AlgMap, phi_f: np.ndarray, m: np.ndarray) -> dict[str, float]:
    """The certified chain of one mean ``m`` in ``X*`` coordinates, for the character ``phi_f``."""
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
    return residuals


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
