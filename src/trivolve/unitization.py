"""Trivolution extensions to the unitized algebra.

Adjoining a unit to ``(A, tau)`` gives ``C x A`` with product
``(l, x)(m, y) = (lm, ly + mx + xy)``.  Any extension of ``tau`` is
pinned by the image ``(lambda0, x0)`` of the new unit, and exactly two
families work: ``lambda0 = 1`` with ``x0`` a negated idempotent
annihilating the range and killed by ``tau``, or ``lambda0 = 0`` with
``x0`` the identity of the range.  The solver enumerates the first
family's solution set and the contractivity filter reduces to a norm
computation on the extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Algebra,
    Element,
    algebras_compatible,
    element_norm,
    induced_subalgebra,
    left_mult_matrix,
    multiply,
    right_mult_matrix,
    is_commutative,
)
from .errors import CertificationFailure, UsageError
from .linalg import (
    EPS,
    EPS_RANK,
    column_products,
    column_space_and_nullspace,
    max_abs,
)
from .starmap import AlgMap, apply, kernel_image, map_norm, norm_is_sampled
from .trivolution import classify_star_map

FAMILY_TYPE_I = "type_I"
FAMILY_TYPE_II = "type_II"
FAMILY_INVALID = "invalid"


@dataclass(frozen=True)
class ExtensionSpec:
    """A candidate extension, its family verdict and its certificates."""

    lambda0: complex
    x0: Element
    family: str
    contractive: bool
    norm_of_extension: float
    best_effort: bool = False
    residuals: dict = field(default_factory=dict, repr=False)


def extension_map(algebra: Algebra, tau: AlgMap, lambda0: complex, x0: Element) -> tuple[Algebra, AlgMap]:
    """Generic candidate ``t#(l, x) = (conj(l) lambda0, conj(l) x0 + tau(x))``."""
    if not algebras_compatible(x0.algebra, algebra):
        raise UsageError("x0 must belong to the algebra being unitized")
    sharp = algebra.unitization
    n = algebra.dim
    matrix = np.zeros((n + 1, n + 1), dtype=complex)
    matrix[0, 0] = complex(lambda0)
    matrix[1:, 0] = x0.coords
    matrix[1:, 1:] = tau.matrix
    return sharp, AlgMap(matrix=matrix, conjugating=True, source=sharp, target=sharp)


def range_identity(algebra: Algebra, tau: AlgMap, eps: float = EPS,
                   eps_rank: float = EPS_RANK) -> Element | None:
    """Identity of the range subalgebra, embedded in ambient coordinates."""
    _, image = kernel_image(tau, eps_rank)
    if image.dim == 0:
        return None
    sub, embedding = induced_subalgebra(algebra, image, eps=eps)
    if not sub.is_unital():
        return None
    return Element(embedding @ sub.identity_coords, algebra)


def verify_extension(algebra: Algebra, tau: AlgMap, lambda0: complex, x0,
                     eps: float = EPS, eps_rank: float = EPS_RANK, *,
                     e_b: Element | None) -> ExtensionSpec:
    """Classify a candidate ``(lambda0, x0)`` into a family, twice over.

    The family conditions are checked directly, the generic extension is
    classified on the unitized algebra, and the two verdicts must agree
    (a per-instance soundness and completeness check).  ``family`` is
    ``invalid`` when both reject.  ``e_b`` is ``range_identity(algebra,
    tau)``, built once per ``tau`` by the caller and taken as given.
    """
    if not isinstance(x0, Element):
        x0 = algebra.element(x0)
    lambda0 = complex(lambda0)
    residuals: dict[str, float] = {}

    _, image = kernel_image(tau, eps_rank)
    image_cols = image.canonical_columns()

    # family I: lambda0 = 1, x0^2 = -x0, x0 tau(A) = tau(A) x0 = 0, tau(x0) = 0
    sq = multiply(algebra, x0, x0)
    residuals["x0_negated_idempotent"] = max_abs(sq.coords + x0.coords)
    x0_col = x0.coords[:, None]
    annih = max(max_abs(column_products(algebra.structure, x0_col, image_cols)),
                max_abs(column_products(algebra.structure, image_cols, x0_col)))
    residuals["x0_annihilates_range"] = annih
    residuals["tau_x0"] = max_abs(apply(tau, x0).coords)
    type1 = (abs(lambda0 - 1.0) <= eps
             and residuals["x0_negated_idempotent"] <= eps
             and annih <= eps
             and residuals["tau_x0"] <= eps)

    # family II: lambda0 = 0, x0 the identity of the range
    type2 = False
    if e_b is not None:
        residuals["x0_vs_range_identity"] = max_abs(x0.coords - e_b.coords)
        type2 = abs(lambda0) <= eps and residuals["x0_vs_range_identity"] <= eps

    family = FAMILY_TYPE_I if type1 else FAMILY_TYPE_II if type2 else FAMILY_INVALID

    sharp, candidate = extension_map(algebra, tau, lambda0, x0)
    verdict = classify_star_map(sharp, candidate, eps, eps_rank)
    residuals["anti"] = verdict.anti_residual
    residuals["cube"] = verdict.cube_residual
    if verdict.is_trivolution != (family != FAMILY_INVALID):
        raise CertificationFailure(
            "extension family conditions disagree with direct classification",
            law="t# is a trivolution iff (lambda0, x0) is of family I or II",
            residual=verdict.residual,
            details={"family": family, "classified": verdict.kind})

    # a sampled norm is only a lower bound: ``contractive`` is then best effort
    norm = max(abs(lambda0) + element_norm(x0), map_norm(tau))
    return ExtensionSpec(lambda0=lambda0, x0=x0, family=family,
                         contractive=norm <= 1.0 + eps, norm_of_extension=norm,
                         best_effort=norm_is_sampled(tau), residuals=residuals)


@dataclass(frozen=True)
class Type1Solutions:
    """All admissible family-I elements, with the solver provenance.

    ``specs`` holds the ``verify_extension`` result (``lambda0 = 1``) that
    certified each solution, in the order of ``solutions``; callers read
    the certificates from there instead of verifying again.
    """

    specs: list[ExtensionSpec]
    best_effort: bool

    @property
    def solutions(self) -> list[Element]:
        return [spec.x0 for spec in self.specs]


def _annihilator_intersect_kernel(algebra: Algebra, tau: AlgMap,
                                  eps_rank: float) -> np.ndarray:
    """Basis columns of ker(tau) meet the two-sided annihilator of the range."""
    _, image = kernel_image(tau, eps_rank)
    rows = [np.conj(tau.matrix)]  # tau(x) = 0 iff conj(M) x = 0
    for col in image.canonical_columns().T:
        rows.append(right_mult_matrix(algebra, col))  # x . q = 0
        rows.append(left_mult_matrix(algebra, col))   # q . x = 0
    stacked = np.vstack(rows)
    _, kernel, _, _ = column_space_and_nullspace(stacked, eps_rank)
    return kernel


def _idempotents_exact(sub: Algebra, eps: float) -> list[np.ndarray] | None:
    """All idempotents of a commutative semisimple algebra, by characters.

    Returns None when the character method does not apply (non
    commutative, not semisimple, or too many subsets to enumerate).
    """
    from .duality import find_characters  # deferred: duality sits above this module

    if not is_commutative(sub, eps):
        return None
    if sub.dim > 12:
        return None
    search = find_characters(sub, eps=eps)
    if search.possibly_incomplete or len(search.characters) != sub.dim:
        return None
    phi = np.vstack([c.coords for c in search.characters])
    # column per subset mask: the values 0/1 the idempotent takes on each character
    masks = np.arange(2 ** sub.dim)
    targets = ((masks >> np.arange(sub.dim)[:, None]) & 1).astype(complex)
    return list(np.linalg.solve(phi, targets).T)


def _idempotents_newton(sub: Algebra, seed: int, eps: float) -> list[np.ndarray]:
    """Multi-start damped Newton on ``y . y - y = 0`` inside the subalgebra."""
    rng = np.random.default_rng(seed)
    m = sub.dim
    structure = sub.structure
    found: list[np.ndarray] = [np.zeros(m, dtype=complex)]

    def residual(y):
        return column_products(structure, y[:, None], y[:, None])[0, 0] - y

    for _ in range(50 * m):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for _ in range(100):
            f = residual(y)
            if max_abs(f) <= 1e-12:
                break
            jac = (np.einsum("i,ijk->kj", y, structure)
                   + np.einsum("j,ijk->ki", y, structure)
                   - np.eye(m, dtype=complex))
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            y = y + 0.5 * step
        if max_abs(residual(y)) <= eps:
            if all(max_abs(y - z) > 1e-6 for z in found):
                found.append(y)
    return found


def find_type1_solutions(algebra: Algebra, tau: AlgMap, *, seed: int = 0,
                         eps: float = EPS, eps_rank: float = EPS_RANK) -> Type1Solutions:
    """Enumerate every ``x0`` admissible for a family-I extension.

    The linear conditions carve out a subalgebra ``N``; inside it the
    candidates are exactly ``-y`` for idempotents ``y``.  Idempotents are
    found exactly through characters when ``N`` is commutative and
    semisimple, otherwise by seeded multi-start Newton (flagged
    best-effort).  Every candidate is verified through
    ``verify_extension``, once; ``x0 = 0`` is always included.
    """
    verdict = classify_star_map(algebra, tau, eps, eps_rank)
    if not verdict.is_trivolution:
        raise CertificationFailure("solver requires a trivolution",
                                   law="conjugate-linear anti-homomorphism with t^3 = t")
    n_basis = _annihilator_intersect_kernel(algebra, tau, eps_rank)
    best_effort = False
    candidates = [np.zeros(algebra.dim, dtype=complex)]
    if n_basis.shape[1] > 0:
        from .algebra import Subspace

        n_sub = Subspace(n_basis, algebra)
        sub, embedding = induced_subalgebra(algebra, n_sub, eps=eps)
        idempotents = _idempotents_exact(sub, eps)
        if idempotents is None:
            idempotents = _idempotents_newton(sub, seed, eps)
            best_effort = True
        for y in idempotents:
            candidates.append(-(embedding @ y))

    e_b = range_identity(algebra, tau, eps, eps_rank)
    specs = []
    seen: list[np.ndarray] = []
    for coords in candidates:
        if any(max_abs(coords - s) <= 1e-6 for s in seen):
            continue
        seen.append(coords)
        spec = verify_extension(algebra, tau, 1.0, algebra.element(coords), eps, eps_rank,
                                e_b=e_b)
        if spec.family == FAMILY_TYPE_I:
            specs.append(spec)
    specs.sort(key=lambda spec: tuple(np.round(
        np.stack([spec.x0.coords.real, spec.x0.coords.imag], axis=1).reshape(-1), 6)))
    return Type1Solutions(specs=specs, best_effort=best_effort)


@dataclass(frozen=True)
class ContractiveExtensions:
    """Contractive extensions plus the certified non-contractive rejects."""

    included: list[ExtensionSpec]
    excluded: list[ExtensionSpec]


def contractive_extensions(algebra: Algebra, tau: AlgMap) -> ContractiveExtensions:
    """Extensions of norm one under the unitization norm ``|l| + ||x||``.

    Exactly the canonical extension survives from family I, plus the
    family-II extension when the range has an identity of norm one.
    Family-I candidates with ``x0 != 0`` are certified non-contractive
    and reported in ``excluded``.
    """
    tau_norm = map_norm(tau)
    if tau_norm > 1.0 + EPS:
        raise CertificationFailure(f"the map itself has norm {tau_norm:.6f} > 1",
                                   law="||tau|| <= 1", residual=tau_norm - 1.0)
    e_b = range_identity(algebra, tau)
    included = [verify_extension(algebra, tau, 1.0, algebra.zero(), e_b=e_b)]
    if e_b is not None:
        type2 = verify_extension(algebra, tau, 0.0, e_b, e_b=e_b)
        if type2.family == FAMILY_TYPE_II and type2.contractive:
            included.append(type2)

    excluded = []
    for spec in find_type1_solutions(algebra, tau).specs:
        if max_abs(spec.x0.coords) <= EPS:
            continue
        if spec.norm_of_extension <= 1.0 + EPS:
            raise CertificationFailure(
                "a non-canonical family-I extension certified as contractive",
                law="contractive family-I extensions have x0 = 0",
                residual=spec.norm_of_extension)
        excluded.append(spec)
    return ContractiveExtensions(included=included, excluded=excluded)
