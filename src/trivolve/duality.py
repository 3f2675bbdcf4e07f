"""Dual module actions, Arens products, involution extension, characters, TIMs.

Functionals live in the dual basis, paired bilinearly: ``<f, x> = sum f_i x_i``.
A functional is its coordinate vector there, a complex 1-d ndarray; a
character is such a vector that ``verify_character`` has certified.
For an introverted subspace ``X`` of the dual, ``X*`` is the quotient
``A / X^perp`` of the second dual (which is ``A`` in finite dimension) by
the annihilator of ``X``, in the coordinates that are not pivots of the
annihilator's echelon form.  These are the coordinates ``algebra.quotient``
uses for the same quotient.  Both Arens products are computed by
unwinding their three-step definitions literally on dual bases.

Every module action is taken over the whole basis at once, and once per
space: the stacks ``lambda . b_i`` and ``b_i . lambda`` for all ``i`` are
two views of one contraction of the structure tensor, which
``check_introverted`` makes, and their membership in ``X`` is one batched
reduction.  In finite dimension the second dual is ``A`` itself, so the
functionals ``Phi_i`` that span ``X*`` act as the basis vectors do
(``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``);
the submodule stacks therefore also decide introversion and feed ``arens_products``.
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
    make_algebra,
    multiply,
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
    prods = basis_products(algebra.structure, coords[None, :])[:, :, 0]
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
# introverted subspaces and the quotient realization of X*
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntrovertedSpace:
    """A subspace ``X`` of the dual with its module/introversion certificates and ``X*``.

    ``X*`` is ``A / X^perp``: a class is represented by its one member
    supported on the annihilator's free (non-pivot) coordinates, which are
    the coordinates ``algebra.quotient(algebra, annihilator)`` uses.  The
    methods take a vector or a matrix of columns.  ``lambda_s`` are the
    canonical columns of ``basis``.
    """

    algebra: Algebra
    basis: Subspace  # columns are dual-basis coordinate vectors
    annihilator: Subspace  # X^perp in the second dual
    introverted: bool  # a submodule, and so left and right introverted
    faithful: bool
    values: np.ndarray = field(repr=False)  # [a, y, s]: <lambda_s, b_a b_y>
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

    def rep_coords(self, vector) -> np.ndarray:
        """``X*`` coordinates of the class of a second-dual vector."""
        return self.annihilator.reduce(vector)[self.free]

    def embed_coords(self, coords) -> np.ndarray:
        """The representative in the second dual of ``X*`` coordinates."""
        coords = as_complex(coords)
        out = np.zeros((self.algebra.dim,) + coords.shape[1:], dtype=complex)
        out[self.free] = coords
        return out

    @cached_property
    def actions(self) -> np.ndarray:
        """``[a, side, row, t]``: ``b_a`` acting on ``X*``, ``L_a`` (side 0) and ``R_a``.

        Column ``t`` of ``L_a`` is the class of ``b_a . b_free_t``, of ``R_a``
        that of ``b_free_t . b_a``.  They do not depend on a character, so
        every ``tim_set`` call on the space shares them.
        """
        n, free = self.algebra.dim, self.free
        k = len(free)
        c = self.algebra.structure
        left = self.rep_coords(c[:, free, :].transpose(2, 0, 1).reshape(n, n * k)).reshape(k, n, k)
        right = self.rep_coords(c[free, :, :].transpose(2, 1, 0).reshape(n, n * k)).reshape(k, n, k)
        return freeze(np.stack([left, right]).transpose(2, 0, 1, 3))

    @cached_property
    def action_gram(self) -> tuple[np.ndarray, np.ndarray]:
        """``(S0, T)``: ``S0 = sum_a L_a^H L_a + R_a^H R_a`` and the stack ``T_a = L_a + R_a``.

        ``S0`` is one batched ``k x k`` product and a numpy sum, never a BLAS
        call over a tall matrix, so it does not depend on the thread count.
        """
        a = self.actions
        return (freeze((np.swapaxes(a, -1, -2).conj() @ a).sum(axis=(0, 1))),
                freeze(a.sum(axis=1)))

    def from_values(self, values) -> np.ndarray:
        """Representative of the functional with given values on the X basis."""
        evaluation = self.basis.echelon[:, self.free]  # rows over X basis, cols over free coords
        return self.embed_coords(np.linalg.solve(evaluation, as_complex(values)))


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
                            values=values, residuals=residuals, diagnostic=diagnostic)


@dataclass(frozen=True)
class ArensStructure:
    """Both Arens product tensors on ``X*`` and the regularity verdict."""

    box: np.ndarray
    diamond: np.ndarray
    regular: bool
    space: IntrovertedSpace
    box_algebra: Algebra
    residuals: dict = field(default_factory=dict, repr=False)


def arens_products(algebra: Algebra, space: IntrovertedSpace) -> ArensStructure:
    """Compute the left and right Arens products on ``X*`` literally.

    Left product: ``<Phi [] Psi, lam> = <Phi, Psi . lam>`` with
    ``<Psi . lam, a> = <Psi, lam . a>``.  Right product:
    ``<Phi <> Psi, lam> = <Psi, lam . Phi>`` with
    ``<lam . Phi, a> = <Phi, a . lam>``.  Intermediate functionals are
    certified to stay inside ``X`` on the way.  The actions and their residuals are
    those ``check_introverted`` stored on ``space``; nothing is contracted again.
    """
    space.require_introverted()
    free = space.free
    k = len(free)

    # [s, a, y]: lambda_s . b_a and b_a . lambda_s over the standard basis
    right, left = space.values.transpose(2, 0, 1), space.values.transpose(2, 1, 0)
    # Psi_j . lambda_s = b_free_j . lambda_s and lambda_s . Phi_i = lambda_s . b_free_i
    escape = certify(float(space.residuals[:, free].max(initial=0.0)), EPS, "Psi . lambda in X",
                     "an intermediate action escaped X (residual {residual:.3e})")
    # values on the X basis, [i, j, s]: <Psi_j . lambda_s, b_free_i>, <lambda_s . Phi_i, b_free_j>
    box_values = right[:, free][:, :, free].transpose(1, 2, 0)
    diamond_values = left[:, free][:, :, free].transpose(2, 1, 0)
    # convert values-on-X-basis into representatives on the free coordinates
    box = space.from_values(box_values.reshape(k * k, k).T)[free].T.reshape(k, k, k)
    diamond = space.from_values(diamond_values.reshape(k * k, k).T)[free].T.reshape(k, k, k)

    gap = max_abs(box - diamond)
    labels = [algebra.basis_labels[f] for f in free]
    box_algebra = make_algebra(k, box, labels)
    return ArensStructure(box=box, diamond=diamond, regular=gap <= EPS, space=space,
                          box_algebra=box_algebra,
                          residuals={"regularity_gap": gap, "introversion_escape": escape})


def extend_involution(algebra: Algebra, theta: AlgMap, arens: ArensStructure) -> AlgMap:
    """Extend an involution of ``A`` to ``X*`` by the double-adjoint recipe.

    ``arens`` is ``arens_products(algebra, space)`` for the introverted
    ``space`` holding ``X``, taken as given.  Requires the conjugate-linear
    adjoint to leave ``X`` invariant (checked first) and the two Arens
    products to coincide on ``X*``.  The extension is certified as an
    involution of the box product, and certified to agree with ``theta``
    along the canonical embedding when ``X`` is faithful.
    """
    space = arens.space
    theta_verdict = classify_star_map(algebra, theta)
    if theta_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("theta is not an involution on the algebra",
                                   law="theta^2 = id, conjugate-linear anti-homomorphism")
    moved = space.basis.residuals(adjoint(theta).matrix @ np.conj(space.basis.canonical_columns()))
    if np.any(moved > EPS):
        raise CertificationFailure("the adjoint moves X off itself",
                                   law="theta*(X) contained in X",
                                   residual=float(moved[np.argmax(moved > EPS)]))
    if not arens.regular:
        raise CertificationFailure("the two Arens products differ on X*",
                                   law="box = diamond on X*",
                                   residual=arens.residuals["regularity_gap"])
    # column i: theta applied to the real basis vector b_f, f = free[i]
    matrix = space.rep_coords(theta.matrix[:, space.free])
    extension = AlgMap(matrix=matrix, conjugating=True,
                       source=arens.box_algebra, target=arens.box_algebra)
    verdict = classify_star_map(arens.box_algebra, extension)
    if verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("the double adjoint failed to be an involution on X*",
                                   law="Theta is an involution on (X*, box)",
                                   residual=verdict.residual)
    if space.faithful:
        images = space.rep_coords(np.eye(algebra.dim))  # column a: the class of b_a
        certify(max_abs(extension.matrix @ np.conj(images) - space.rep_coords(theta.matrix)), EPS,
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
    The system stacks, for each ``a``, the blocks ``L_a - phi(a) I`` and
    ``R_a - phi(a) I`` of ``space.actions`` over the row ``phi_f = phi[free]``;
    it is decided through its ``k x k`` Gram matrix
    ``G = S0 - H - H^H + 2 |phi|^2 I + conj(phi_f) phi_f^T``, with
    ``(S0, T) = space.action_gram`` and ``H = sum_a conj(phi(a)) T_a``.  Every
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
    h = (np.conj(phi)[:, None, None] * t).sum(axis=0)
    gram = (s0 - h - h.conj().T + 2 * np.sum(np.abs(phi) ** 2) * np.eye(len(phi_f))
            + np.outer(np.conj(phi_f), phi_f))
    values, vectors = np.linalg.eigh(gram)
    keep = values > EPS_RANK ** 2
    basis = vectors[:, keep]

    def solve(rhs: np.ndarray) -> np.ndarray:
        return basis @ ((basis.conj().T @ rhs) / values[keep])

    def residuals(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        blocks = space.actions @ u - phi[:, None, None] * u  # a.m - phi(a) m, m.a - phi(a) m
        last = phi_f @ u - 1.0
        return blocks, last, max(max_abs(blocks), max_abs(last))

    u = solve(np.conj(phi_f))
    blocks, last, residual = residuals(u)
    for _ in range(5):
        if residual <= EPS:
            break
        # A^H r, the normal equations' right-hand side for the correction
        adjoint = ((blocks[..., None] * space.actions.conj()).sum(axis=(0, 1, 2))
                   - (np.conj(phi)[:, None, None] * blocks).sum(axis=(0, 1))
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


def tim_obstruction_check(algebra: Algebra, means: TimSolutionSet, phi: np.ndarray,
                          star: AlgMap, arens: ArensStructure) -> TimObstructionReport:
    """Certify the invariance/absorption/fixed-point chain for each mean.

    ``means`` is ``tim_set(algebra, space, phi)`` and ``arens`` is
    ``arens_products(algebra, space)``, for one introverted ``space``, and
    ``star`` is ``extend_involution``'s certified involution of
    ``(X*, box)``.  All three are taken as given, not solved again.
    ``star`` must be compatible with the character
    (``<phi, a*> = conj <phi, a>`` on the embedded algebra).  The chain
    forces any mean to be star-fixed and absorbing, hence unique, as
    ``tim_set``'s solution set always is.
    """
    space = arens.space
    a_reps = space.rep_coords(np.eye(algebra.dim))  # column a: the class of b_a
    starred = space.embed_coords(star.matrix @ np.conj(a_reps))
    certify(max_abs(phi @ starred - np.conj(phi @ space.embed_coords(a_reps))), EPS,
            "<phi, a*> = conj <phi, a>", "star is not compatible with the character")

    if means.is_empty:
        return TimObstructionReport(vacuous=True, unique=True, chain_residuals={})

    free = space.free
    m = means.particular[free]
    m_star = star.matrix @ np.conj(m)
    residuals: dict[str, float] = {}

    # invariance transported through star: a . m* = m* . a = phi(a) m*, column a each
    m_star_full = space.embed_coords(m_star)
    left_action = space.rep_coords(right_mult_matrix(algebra, m_star_full))
    right_action = space.rep_coords(left_mult_matrix(algebra, m_star_full))
    scaled = np.outer(phi, m_star).T  # phi(a) first: products keep the scalar's side
    residuals["star_invariance"] = max(max_abs(left_action - scaled),
                                       max_abs(right_action - scaled))

    # absorption: n box m* = <n, phi> m* over the X* basis, row i for n = b_free_i
    absorbed = right_mult_matrix(arens.box_algebra, m_star).T
    residuals["absorption"] = max_abs(absorbed - np.outer(phi[free], m_star))

    # fixed-point chain m = (m*)* = (m box m*)* = m box m* = <m, phi> m* = m*
    m_star_star = star.matrix @ np.conj(m_star)
    residuals["double_star"] = max_abs(m_star_star - m)
    m_box_mstar = multiply(arens.box_algebra, m, m_star)
    m_phi = complex(phi @ space.embed_coords(m))
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
    results: list[AlgMap] = []

    if family == "function_indicator":
        if not _is_pointwise(algebra):
            raise UsageError("function_indicator requires a pointwise function algebra")
        n = algebra.dim
        for size in range(1, n + 1):
            for k_set in combinations(range(n), size):
                for perm in _involutive_permutations_canonical(k_set):
                    candidate = indicator_trivolution(algebra, k_set, perm)
                    if classify_star_map(algebra, candidate).is_trivolution:
                        results.append(candidate)
        return results

    if family == "group_quotient":
        group: GroupTable = family_spec["table"]
        if not same_structure(group.structure(), algebra.structure):
            raise UsageError("algebra does not match the supplied group table")
        for subgroup in family_spec.get("normal_subgroups", [[group.identity]]):
            candidate = averaging_trivolution(algebra, group, subgroup)
            if classify_star_map(algebra, candidate).is_trivolution:
                results.append(candidate)
        return results

    raise UsageError(f"unknown family {family!r}")
