"""Dual module actions, Arens products, involution extension, characters, TIMs.

Functionals live in the dual basis, paired bilinearly: ``<f, x> = sum f_i x_i``.
For an introverted subspace ``X`` of the dual, ``X*`` is the quotient
``A / X^perp`` of the second dual (which is ``A`` in finite dimension) by
the annihilator of ``X``, in the coordinates that are not pivots of the
annihilator's echelon form.  These are the coordinates ``algebra.quotient``
uses for the same quotient.  Both Arens products are computed by
unwinding their three-step definitions literally on dual bases.

Every module action is taken over the whole basis at once: the stacks
``lambda . b_i`` and ``b_i . lambda`` for all ``i`` are one contraction
of the structure tensor, and their membership in ``X`` is one batched
reduction.  In finite dimension the second dual is ``A`` itself, so the
functionals ``Phi_i`` that span ``X*`` act as the basis vectors do
(``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``);
the submodule stacks therefore also decide introversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .algebra import (
    Algebra,
    GroupTable,
    Subspace,
    is_commutative,
    left_mult_matrix,
    make_algebra,
    same_structure,
)
from .errors import CertificationFailure, UsageError, certify
from .linalg import (
    EPS,
    EPS_RANK,
    as_complex,
    column_products,
    column_space_and_nullspace,
    max_abs,
)
from .instances import _involutive_permutations_canonical, averaging_trivolution, indicator_trivolution
from .starmap import AlgMap, adjoint
from .trivolution import KIND_INVOLUTION, StarClass, classify_star_map


@dataclass(frozen=True)
class DualVector:
    """Functional in the dual basis of an algebra."""

    coords: np.ndarray
    algebra: Algebra

    def __post_init__(self):
        object.__setattr__(self, "coords", as_complex(self.coords).reshape(-1))


@dataclass(frozen=True)
class Character(DualVector):
    """Nonzero multiplicative functional; certified at construction."""

    residual: float = 0.0


def verify_character(algebra: Algebra, coords, eps: float = EPS) -> Character:
    """Certify multiplicativity on basis pairs and non-vanishing."""
    coords = as_complex(coords).reshape(-1)
    if max_abs(coords) <= eps:
        raise CertificationFailure("the zero functional is not a character",
                                   law="characters are non-zero")
    prods = np.einsum("ijk,k->ij", algebra.structure, coords)
    worst = certify(max_abs(prods - np.outer(coords, coords)), eps, "phi(xy) = phi(x) phi(y)",
                    "functional is not multiplicative")
    return Character(coords=coords, algebra=algebra, residual=worst)


@dataclass(frozen=True)
class CharacterSearch:
    characters: list[Character]
    possibly_incomplete: bool


def find_characters(algebra: Algebra, eps: float = EPS, eps_rank: float = EPS_RANK,
                    seed: int = 0) -> CharacterSearch:
    """All characters of a commutative algebra, via the regular representation.

    Characters are common left eigenvectors of the transposed
    multiplication matrices; a generic element separates them when the
    algebra is semisimple.  The result is complete for commutative
    semisimple algebras and flagged ``possibly_incomplete`` otherwise.
    """
    if not is_commutative(algebra, eps):
        raise CertificationFailure("character discovery is implemented for commutative algebras; "
                                   "verify user-supplied candidates instead", law="ab = ba")
    found: list[Character] = []

    def try_generic(rng_seed: int) -> None:
        rng = np.random.default_rng(rng_seed)
        g = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
        l_g = left_mult_matrix(algebra, g)
        values, vectors = np.linalg.eig(l_g.T)
        for lam, vec in zip(values, vectors.T):
            scale_ref = complex(vec @ g)
            if abs(scale_ref) <= eps_rank or abs(lam) <= eps_rank:
                continue
            candidate = (lam / scale_ref) * vec
            try:
                char = verify_character(algebra, candidate, max(eps, 1e3 * EPS))
            except CertificationFailure:
                continue
            if all(max_abs(char.coords - c.coords) > 1e-6 for c in found):
                found.append(char)

    for attempt in range(3):
        try_generic(seed * 1000 + attempt + 1)
        if len(found) == algebra.dim:
            break
    found.sort(key=lambda c: tuple(np.round(
        np.stack([c.coords.real, c.coords.imag], axis=1).reshape(-1), 6)))
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
    methods take a vector or a matrix of columns.
    """

    algebra: Algebra
    basis: Subspace  # columns are dual-basis coordinate vectors
    annihilator: Subspace  # X^perp in the second dual
    submodule: bool
    left_introverted: bool
    right_introverted: bool
    faithful: bool
    diagnostic: str = ""

    @property
    def introverted(self) -> bool:
        return self.left_introverted and self.right_introverted

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

    def from_values(self, values) -> np.ndarray:
        """Representative of the functional with given values on the X basis."""
        evaluation = self.basis.echelon[:, self.free]  # rows over X basis, cols over free coords
        return self.embed_coords(np.linalg.solve(evaluation, as_complex(values)))


def full_dual(algebra: Algebra) -> IntrovertedSpace:
    """X = A*: always a faithful introverted submodule."""
    return check_introverted(algebra, np.eye(algebra.dim))


def _dual_actions(algebra: Algebra, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lam_s . b_a`` and ``b_a . lam_s`` for every column ``lam_s`` and basis vector ``b_a``.

    Both stacks are indexed ``[s, a, y]``: ``<lam . b_a, b_y> = <lam, b_a b_y>``
    and ``<b_a . lam, b_y> = <lam, b_y b_a>``.
    """
    c = algebra.structure
    return np.einsum("ayk,ks->say", c, lams), np.einsum("yak,ks->say", c, lams)


def check_introverted(algebra: Algebra, x_basis, eps: float = EPS) -> IntrovertedSpace:
    """Certify submodule, introversion and faithfulness flags for ``X``.

    ``X`` is a submodule when every ``lambda_s . b_i`` and ``b_i . lambda_s``
    lies in ``X``.  Introversion asks the same of ``Phi_i . lambda`` and
    ``lambda . Phi_i`` for functionals ``Phi_i`` restricted from a full
    second-dual basis, which surject onto ``X*``.  In finite dimension
    ``Phi_i . lambda = b_i . lambda`` and ``lambda . Phi_i = lambda . b_i``,
    so both introversion flags read the submodule stacks and equal the
    submodule flag.  A failed submodule check reports all-false
    introversion flags with a diagnostic naming the first escape (by
    ``s``, then ``i``, right action first) rather than raising.
    """
    x = Subspace(as_complex(x_basis), algebra)
    n = algebra.dim
    lams = x.canonical_columns()
    right, left = _dual_actions(algebra, lams)
    stacks = np.stack([right, left], axis=2)  # [s, i, side, :]
    escapes = x.residuals(stacks.reshape(-1, n).T).reshape(stacks.shape[:3]) > eps
    submodule = not escapes.any()
    diagnostic = ""
    if not submodule:
        s, i, side = np.unravel_index(int(np.argmax(escapes)), escapes.shape)
        diagnostic = (f"lambda_{s} . b_{i} escapes X" if side == 0
                      else f"b_{i} . lambda_{s} escapes X")
    _, annihilator, _, _ = column_space_and_nullspace(lams.T)  # the null space of evaluation
    return IntrovertedSpace(algebra=algebra, basis=x, annihilator=Subspace(annihilator, algebra),
                            submodule=submodule, left_introverted=submodule,
                            right_introverted=submodule, faithful=x.dim == n,
                            diagnostic=diagnostic)


@dataclass(frozen=True)
class ArensStructure:
    """Both Arens product tensors on ``X*`` and the regularity verdict."""

    box: np.ndarray
    diamond: np.ndarray
    regular: bool
    space: IntrovertedSpace
    box_algebra: Algebra
    residuals: dict = field(default_factory=dict, repr=False)


def arens_products(algebra: Algebra, space: IntrovertedSpace,
                   eps: float = EPS) -> ArensStructure:
    """Compute the left and right Arens products on ``X*`` literally.

    Left product: ``<Phi [] Psi, lam> = <Phi, Psi . lam>`` with
    ``<Psi . lam, a> = <Psi, lam . a>``.  Right product:
    ``<Phi <> Psi, lam> = <Psi, lam . Phi>`` with
    ``<lam . Phi, a> = <Phi, a . lam>``.  Intermediate functionals are
    certified to stay inside ``X`` on the way.
    """
    if not space.introverted:
        raise CertificationFailure("both Arens products need a two-sided introverted subspace",
                                   law="X topologically introverted")
    n = algebra.dim
    free = space.free
    k = len(free)

    # [s, a, y]: lambda_s . b_a and b_a . lambda_s over the standard basis
    right, left = _dual_actions(algebra, space.basis.canonical_columns())
    # Psi_j . lambda_s is right[s, :, free_j]; lambda_s . Phi_i is left[s, :, free_i]
    intermediates = np.concatenate([right[:, :, free], left[:, :, free]], axis=2)
    escape = certify(float(space.basis.residuals(
        intermediates.transpose(1, 0, 2).reshape(n, -1)).max(initial=0.0)), eps,
        "Psi . lambda in X", "an intermediate action escaped X (residual {residual:.3e})")
    # values on the X basis, [i, j, s]: <Psi_j . lambda_s, b_free_i>, <lambda_s . Phi_i, b_free_j>
    box_values = right[:, free][:, :, free].transpose(1, 2, 0)
    diamond_values = left[:, free][:, :, free].transpose(2, 1, 0)
    # convert values-on-X-basis into representatives on the free coordinates
    box = space.from_values(box_values.reshape(k * k, k).T)[free].T.reshape(k, k, k)
    diamond = space.from_values(diamond_values.reshape(k * k, k).T)[free].T.reshape(k, k, k)

    gap = max_abs(box - diamond)
    labels = [algebra.basis_labels[f] for f in free]
    box_algebra = make_algebra(k, box, labels, norm_kind=algebra.norm_kind, eps=max(eps, 1e-12))
    return ArensStructure(box=box, diamond=diamond, regular=gap <= eps, space=space,
                          box_algebra=box_algebra,
                          residuals={"regularity_gap": gap, "introversion_escape": escape})


def extend_involution(algebra: Algebra, theta: AlgMap, arens: ArensStructure,
                      eps: float = EPS, eps_rank: float = EPS_RANK) -> AlgMap:
    """Extend an involution of ``A`` to ``X*`` by the double-adjoint recipe.

    ``arens`` is ``arens_products(algebra, space)`` for the introverted
    ``space`` holding ``X``, taken as given.  Requires the conjugate-linear
    adjoint to leave ``X`` invariant (checked first) and the two Arens
    products to coincide on ``X*``.  The extension is certified as an
    involution of the box product, and certified to agree with ``theta``
    along the canonical embedding when ``X`` is faithful.
    """
    space = arens.space
    theta_verdict = classify_star_map(algebra, theta, eps, eps_rank)
    if theta_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("theta is not an involution on the algebra",
                                   law="theta^2 = id, conjugate-linear anti-homomorphism")
    moved = space.basis.residuals(adjoint(theta).matrix @ np.conj(space.basis.canonical_columns()))
    if np.any(moved > eps):
        raise CertificationFailure("the adjoint moves X off itself",
                                   law="theta*(X) contained in X",
                                   residual=float(moved[np.argmax(moved > eps)]))
    if not arens.regular:
        raise CertificationFailure("the two Arens products differ on X*",
                                   law="box = diamond on X*",
                                   residual=arens.residuals["regularity_gap"])
    # column i: theta applied to the real basis vector b_f, f = free[i]
    matrix = space.rep_coords(theta.matrix[:, space.free])
    extension = AlgMap(matrix=matrix, conjugating=True,
                       source=arens.box_algebra, target=arens.box_algebra)
    verdict = classify_star_map(arens.box_algebra, extension, eps, eps_rank)
    if verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("the double adjoint failed to be an involution on X*",
                                   law="Theta is an involution on (X*, box)",
                                   residual=verdict.residual)
    if space.faithful:
        images = space.rep_coords(np.eye(algebra.dim))  # column a: the class of b_a
        certify(max_abs(extension.matrix @ np.conj(images) - space.rep_coords(theta.matrix)), eps,
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


def tim_set(algebra: Algebra, space: IntrovertedSpace, phi: Character,
            eps: float = EPS, eps_rank: float = EPS_RANK) -> TimSolutionSet:
    """Solve ``<m, phi> = 1`` and ``a.m = m.a = phi(a) m`` for ``m`` in ``X*``."""
    certify(space.basis.residual(phi.coords), eps, "phi in X", "the character does not lie in X")
    n = algebra.dim
    free = space.free
    k = len(free)
    c = algebra.structure
    # [row, a, t]: b_a . b_free_t (left) and b_free_t . b_a (right), as classes in X*
    left = space.rep_coords(c[:, free, :].transpose(2, 0, 1).reshape(n, n * k)).reshape(k, n, k)
    right = space.rep_coords(c[free, :, :].transpose(2, 1, 0).reshape(n, n * k)).reshape(k, n, k)
    # per a, the block rows a.m - phi(a) m and m.a - phi(a) m, then <m, phi> = 1
    blocks = (np.stack([left, right]).transpose(2, 0, 1, 3)
              - phi.coords[:, None, None, None] * np.eye(k))
    system = np.vstack([blocks.reshape(2 * n * k, k), phi.coords[free].reshape(1, -1)])
    target = np.zeros(2 * n * k + 1, dtype=complex)
    target[-1] = 1.0

    _, kernel, u, residual = column_space_and_nullspace(system, eps_rank, target)
    if residual > eps:
        return TimSolutionSet(particular=None, homogeneous=np.zeros((n, 0), dtype=complex))
    return TimSolutionSet(particular=space.embed_coords(u),
                          homogeneous=space.embed_coords(kernel))


@dataclass(frozen=True)
class TimObstructionReport:
    vacuous: bool
    unique: bool
    chain_residuals: dict = field(default_factory=dict)


def tim_obstruction_check(algebra: Algebra, means: TimSolutionSet, phi: Character,
                          star: AlgMap, star_verdict: StarClass, arens: ArensStructure,
                          eps: float = EPS) -> TimObstructionReport:
    """Certify the invariance/absorption/fixed-point chain for each mean.

    ``means`` is ``tim_set(algebra, space, phi)`` and ``arens`` is
    ``arens_products(algebra, space)``, for one introverted ``space``;
    ``star_verdict`` is ``classify_star_map(arens.box_algebra, star)``.
    All three are taken as given, not solved again.  ``star`` must be an
    involution of ``(X*, box)`` compatible with the character
    (``<phi, a*> = conj <phi, a>`` on the embedded algebra).  The chain
    forces any mean to be star-fixed and absorbing, hence unique; the
    solver's affine dimension is certified to agree.
    """
    space = arens.space
    box = arens.box

    if star_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("star is not an involution on (X*, box)",
                                   law="star^2 = id, anti-multiplicative",
                                   residual=star_verdict.residual)
    a_reps = space.rep_coords(np.eye(algebra.dim))  # column a: the class of b_a
    starred = space.embed_coords(star.matrix @ np.conj(a_reps))
    certify(max_abs(phi.coords @ starred - np.conj(phi.coords @ space.embed_coords(a_reps))), eps,
            "<phi, a*> = conj <phi, a>", "star is not compatible with the character")

    if means.is_empty:
        return TimObstructionReport(vacuous=True, unique=True, chain_residuals={})

    free = space.free
    m = means.particular[free]
    m_star = star.matrix @ np.conj(m)
    residuals: dict[str, float] = {}

    # invariance transported through star: a . m* = m* . a = phi(a) m*, column a each
    m_star_full = space.embed_coords(m_star)
    left_action = space.rep_coords(np.einsum("ayk,y->ka", algebra.structure, m_star_full))
    right_action = space.rep_coords(np.einsum("yak,y->ka", algebra.structure, m_star_full))
    scaled = np.outer(phi.coords, m_star).T  # phi(a) first: products keep the scalar's side
    residuals["star_invariance"] = max(max_abs(left_action - scaled),
                                       max_abs(right_action - scaled))

    # absorption: n box m* = <n, phi> m* over the X* basis, row i for n = b_free_i
    absorbed = np.einsum("j,ijt->it", m_star, box)
    residuals["absorption"] = max_abs(absorbed - np.outer(phi.coords[free], m_star))

    # fixed-point chain m = (m*)* = (m box m*)* = m box m* = <m, phi> m* = m*
    m_star_star = star.matrix @ np.conj(m_star)
    residuals["double_star"] = max_abs(m_star_star - m)
    m_box_mstar = column_products(box, m[:, None], m_star[:, None])[0, 0]
    m_phi = complex(phi.coords @ space.embed_coords(m))
    residuals["product_vs_scaling"] = max_abs(m_box_mstar - m_phi * m_star)
    residuals["normalization"] = abs(m_phi - 1.0)
    residuals["star_fixed"] = max_abs(m - m_star)

    certify(max(residuals.values()), eps,
            "a.m* = m*.a = phi(a) m*; n box m* = <n,phi> m*; m = m*",
            "the invariant-mean identity chain failed", details=residuals)
    if not means.is_unique:
        raise CertificationFailure(
            "multiple invariant means coexist with a compatible involution",
            law="at most one phi-TIM under a compatible involution",
            details={"affine_dim": means.affine_dim})
    return TimObstructionReport(vacuous=False, unique=True, chain_residuals=residuals)


# ---------------------------------------------------------------------------
# structured trivolution search
# ---------------------------------------------------------------------------

def _is_pointwise(algebra: Algebra, eps: float) -> bool:
    expected = np.zeros_like(algebra.structure)
    for i in range(algebra.dim):
        expected[i, i, i] = 1.0
    return max_abs(algebra.structure - expected) <= eps


def search_trivolutions(algebra: Algebra, family_spec: dict,
                        eps: float = EPS, eps_rank: float = EPS_RANK) -> list[AlgMap]:
    """Enumerate a structured family of star-map candidates.

    Families: ``function_indicator`` (indicator projection composed with
    conjugation and a canonical involutive permutation of the selected
    coordinates), ``group_quotient`` (standard group-algebra involution
    composed with averaging over supplied normal subgroups of the
    ``GroupTable`` under ``table``), and
    ``pairs`` (explicit projection/involution pairs).  Only candidates
    passing classification are returned; the enumeration is exhaustive
    within the declared family only.
    """
    family = family_spec.get("family")
    results: list[AlgMap] = []

    if family == "function_indicator":
        if not _is_pointwise(algebra, eps):
            raise UsageError("function_indicator requires a pointwise function algebra")
        n = algebra.dim
        for size in range(1, n + 1):
            for k_set in combinations(range(n), size):
                for perm in _involutive_permutations_canonical(k_set):
                    candidate = indicator_trivolution(algebra, k_set, perm)
                    if classify_star_map(algebra, candidate, eps, eps_rank).is_trivolution:
                        results.append(candidate)
        return results

    if family == "group_quotient":
        group: GroupTable = family_spec["table"]
        if not same_structure(group.structure(), algebra.structure, eps):
            raise UsageError("algebra does not match the supplied group table")
        for subgroup in family_spec.get("normal_subgroups", [[group.identity]]):
            candidate = averaging_trivolution(algebra, group, subgroup)
            if classify_star_map(algebra, candidate, eps, eps_rank).is_trivolution:
                results.append(candidate)
        return results

    if family == "pairs":
        from .trivolution import make_trivolution

        for p, rho in family_spec.get("pairs", []):
            try:
                candidate = make_trivolution(algebra, p, rho, eps, eps_rank)
            except CertificationFailure:
                continue
            if classify_star_map(algebra, candidate, eps, eps_rank).is_trivolution:
                results.append(candidate)
        return results

    raise UsageError(f"unknown family {family!r}")
