"""Trivolution extensions to the unitized algebra.

Adjoining a unit to ``(A, tau)`` gives ``C x A`` with product
``(l, x)(m, y) = (lm, ly + mx + xy)``.  Any extension of ``tau`` is
pinned by the image ``(lambda0, x0)`` of the new unit, and exactly two
families work: ``lambda0 = 1`` with ``x0`` a negated idempotent
annihilating the range and killed by ``tau``, or ``lambda0 = 0`` with
``x0`` the identity of the range.  The solver enumerates the first
family's solution set and the contractivity filter reduces to a norm
computation on the extension.  That norm, ``|l| + ||x||`` with the ell-1
norm of ``A``, is exact, so ``contractive`` is a certificate.  The one
``best_effort`` flag is solver provenance: ``Type1Solutions.best_effort``
says the idempotents came from the seeded Newton search, which may miss
some, instead of from the characters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Algebra,
    Subspace,
    column_products,
    element_norm,
    induced_subalgebra,
    left_mult_matrix,
    multiply,
    right_mult_matrix,
    is_commutative,
)
from .errors import CertificationFailure
from .linalg import (
    EPS,
    as_complex,
    column_space_and_nullspace,
    freeze,
    max_abs,
    max_abs_each,
)
from .starmap import AlgMap, kernel_image, map_norm
from .trivolution import StarClass, classify_star_map, require_trivolution

FAMILY_TYPE_I = "type_I"
FAMILY_TYPE_II = "type_II"
FAMILY_INVALID = "invalid"


@dataclass(frozen=True)
class ExtensionSpec:
    """A candidate extension, its family verdict and its certificates.

    ``verdict`` is ``classify_star_map``'s verdict on the extension ``t#``.
    """

    lambda0: complex
    x0: np.ndarray  # read-only
    family: str
    contractive: bool
    norm_of_extension: float
    verdict: StarClass
    residuals: dict = field(default_factory=dict, repr=False)


def extension_map(algebra: Algebra, tau: AlgMap, lambda0,
                  x0: np.ndarray) -> tuple[Algebra, AlgMap]:
    """Generic candidate ``t#(l, x) = (conj(l) lambda0, conj(l) x0 + tau(x))``.

    ``lambda0`` of shape ``(B,)`` with the columns ``x0`` of shape ``(n, B)``
    give the ``(B, n + 1, n + 1)`` family of the ``B`` candidates.
    """
    sharp = algebra.unitization
    lambda0 = as_complex(lambda0)
    n = algebra.dim
    matrix = np.zeros((*lambda0.shape, n + 1, n + 1), dtype=complex)
    matrix[..., 0, 0] = lambda0
    matrix[..., 1:, 0] = as_complex(x0).T
    matrix[..., 1:, 1:] = tau.matrix
    return sharp, AlgMap(matrix=matrix, conjugating=True, source=sharp, target=sharp)


def range_identity(algebra: Algebra, image: Subspace) -> np.ndarray | None:
    """Identity of the range subalgebra ``image``, as ambient coordinates.

    None when the range is zero or its induced algebra has no identity.
    """
    if image.dim == 0:
        return None
    sub, embedding = induced_subalgebra(algebra, image)
    if not sub.is_unital():
        return None
    return embedding @ sub.identity_coords


def disagreement(spec: ExtensionSpec) -> CertificationFailure:
    """The failure raised for a candidate whose family verdict and classification disagree."""
    return CertificationFailure(
        "extension family conditions disagree with direct classification",
        law="t# is a trivolution iff (lambda0, x0) is of family I or II",
        residual=spec.verdict.residual,
        details={"family": spec.family, "classified": spec.verdict.kind})


def verify_extension(algebra: Algebra, tau: AlgMap, lambda0, x0, *,
                     e_b: np.ndarray | None, image: Subspace):
    """Classify candidates ``(lambda0, x0)`` into families, twice over.

    The family conditions are checked directly, the generic extension is
    classified on the unitized algebra, and the two verdicts must agree
    (a per-instance soundness and completeness check).  ``family`` is
    ``invalid`` when both reject.  ``image`` is ``kernel_image(tau)[1]``
    and ``e_b`` is ``range_identity(algebra, image)``, both built once
    per ``tau`` by the caller and taken as given.

    The candidates come as ``lambda0`` of shape ``(B,)`` and the columns
    ``x0`` of shape ``(n, B)``, and are checked together: each condition is
    one stacked contraction, in which every candidate sees the same matrix
    products as on its own, with the range basis and ``tau`` shared; the
    ``B`` extensions are one family for ``classify_star_map``.  The result
    is ``(specs, disagreements)``: every spec, in candidate order, and the
    indices where the family verdict and the classification disagree.  A
    scalar ``lambda0`` with a 1-d ``x0`` is one candidate, whose spec comes
    back alone; a disagreement then raises.  Each spec keeps a read-only
    copy of its ``x0``.
    """
    single = np.ndim(lambda0) == 0
    lambdas = as_complex(lambda0).reshape(-1)
    columns = as_complex(x0).reshape(algebra.dim, -1)
    rows = np.ascontiguousarray(columns.T)
    stack = rows[:, :, None]  # candidate b as the (n, 1) column stack[b]
    image_cols = image.canonical_columns()

    # family I: lambda0 = 1, x0^2 = -x0, x0 tau(A) = tau(A) x0 = 0, tau(x0) = 0
    negated_idempotent = max_abs_each(column_products(algebra.structure, stack, stack)[:, 0, 0]
                                      + rows)
    annihilates = np.maximum(
        max_abs_each(column_products(algebra.structure, stack, image_cols)),
        max_abs_each(column_products(algebra.structure, image_cols, stack)))
    tau_x0 = max_abs_each(tau.matrix @ np.conj(stack))
    type1 = ((np.abs(lambdas - 1.0) <= EPS) & (negated_idempotent <= EPS)
             & (annihilates <= EPS) & (tau_x0 <= EPS))

    # family II: lambda0 = 0, x0 the identity of the range
    type2 = np.zeros(len(lambdas), dtype=bool)
    if e_b is not None:
        vs_range_identity = max_abs_each(rows - e_b)
        type2 = (np.abs(lambdas) <= EPS) & (vs_range_identity <= EPS)

    sharp, candidates = extension_map(algebra, tau, lambdas, columns)
    verdicts = classify_star_map(sharp, candidates)
    tau_norm = map_norm(tau)
    specs, disagreements = [], []
    for b, verdict in enumerate(verdicts):
        residuals = {"x0_negated_idempotent": float(negated_idempotent[b]),
                     "x0_annihilates_range": float(annihilates[b]),
                     "tau_x0": float(tau_x0[b])}
        if e_b is not None:
            residuals["x0_vs_range_identity"] = float(vs_range_identity[b])
        residuals["anti"] = verdict.anti_residual
        residuals["cube"] = verdict.cube_residual
        family = FAMILY_TYPE_I if type1[b] else FAMILY_TYPE_II if type2[b] else FAMILY_INVALID
        if verdict.is_trivolution != (family != FAMILY_INVALID):
            disagreements.append(b)
        candidate = freeze(rows[b])
        lam = complex(lambdas[b])
        norm = max(abs(lam) + element_norm(candidate), tau_norm)
        specs.append(ExtensionSpec(lambda0=lam, x0=candidate, family=family,
                                   contractive=norm <= 1.0 + EPS, norm_of_extension=norm,
                                   verdict=verdict, residuals=residuals))
    if not single:
        return specs, disagreements
    if disagreements:
        raise disagreement(specs[0])
    return specs[0]


@dataclass(frozen=True)
class Type1Solutions:
    """All admissible family-I elements, with the solver provenance.

    ``specs`` holds the ``verify_extension`` result (``lambda0 = 1``) that
    certified each solution, in the order of ``solutions``; ``type2`` is
    that of the family-II candidate ``(0, e_B)``, or None when the range
    has no identity.  Callers read the certificates from there instead of
    verifying again.
    """

    specs: list[ExtensionSpec]
    best_effort: bool
    type2: ExtensionSpec | None

    @property
    def solutions(self) -> list[np.ndarray]:
        return [spec.x0 for spec in self.specs]


def _annihilator_intersect_kernel(algebra: Algebra, tau: AlgMap, image: Subspace) -> np.ndarray:
    """Basis columns of ker(tau) meet the two-sided annihilator of the range ``image``."""
    rows = [np.conj(tau.matrix)]  # tau(x) = 0 iff conj(M) x = 0
    for col in image.canonical_columns().T:
        rows.append(right_mult_matrix(algebra, col))  # x . q = 0
        rows.append(left_mult_matrix(algebra, col))   # q . x = 0
    stacked = np.vstack(rows)
    _, kernel, _, _ = column_space_and_nullspace(stacked)
    return kernel


def _idempotents_exact(sub: Algebra) -> list[np.ndarray] | None:
    """All idempotents of a commutative semisimple algebra, by characters.

    Returns None when the character method does not apply (non
    commutative, not semisimple, or too many subsets to enumerate).
    """
    from .duality import find_characters  # deferred: duality sits above this module

    if not is_commutative(sub):
        return None
    if sub.dim > 12:
        return None
    search = find_characters(sub)
    if search.possibly_incomplete or len(search.characters) != sub.dim:
        return None
    phi = np.vstack(search.characters)
    # column per subset mask: the values 0/1 the idempotent takes on each character
    masks = np.arange(2 ** sub.dim)
    targets = ((masks >> np.arange(sub.dim)[:, None]) & 1).astype(complex)
    return list(np.linalg.solve(phi, targets).T)


def _idempotents_newton(sub: Algebra, seed: int) -> list[np.ndarray]:
    """Multi-start damped Newton on ``y . y - y = 0`` inside the subalgebra."""
    rng = np.random.default_rng(seed)
    m = sub.dim
    found: list[np.ndarray] = [np.zeros(m, dtype=complex)]

    def residual(y):
        return multiply(sub, y, y) - y

    for _ in range(50 * m):
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for _ in range(100):
            f = residual(y)
            if max_abs(f) <= 1e-12:
                break
            jac = left_mult_matrix(sub, y) + right_mult_matrix(sub, y) - np.eye(m, dtype=complex)
            try:
                step = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            y = y + 0.5 * step
        if max_abs(residual(y)) <= EPS:
            if all(max_abs(y - z) > 1e-6 for z in found):
                found.append(y)
    return found


def find_type1_solutions(algebra: Algebra, tau: AlgMap, *, seed: int = 0) -> Type1Solutions:
    """Enumerate every ``x0`` admissible for a family-I extension.

    The linear conditions carve out a subalgebra ``N``; inside it the
    candidates are exactly ``-y`` for idempotents ``y``.  Idempotents are
    found exactly through characters when ``N`` is commutative and
    semisimple, otherwise by seeded multi-start Newton (flagged
    best-effort).  The de-duplicated candidates (``x0 = 0`` is always
    one) and the family-II candidate ``(0, e_B)`` are verified together,
    by one ``verify_extension`` call on the same range data, which raises
    on the first candidate whose family verdict and classification disagree.
    """
    require_trivolution(algebra, tau)
    _, image = kernel_image(tau)
    n_basis = _annihilator_intersect_kernel(algebra, tau, image)
    best_effort = False
    candidates = [np.zeros(algebra.dim, dtype=complex)]
    if n_basis.shape[1] > 0:
        n_sub = Subspace(n_basis, algebra)
        sub, embedding = induced_subalgebra(algebra, n_sub)
        idempotents = _idempotents_exact(sub)
        if idempotents is None:
            idempotents = _idempotents_newton(sub, seed)
            best_effort = True
        for y in idempotents:
            candidates.append(-(embedding @ y))

    e_b = range_identity(algebra, image)
    seen, count = np.empty((len(candidates) + 1, algebra.dim), dtype=complex), 0
    for coords in candidates:
        if not (np.abs(seen[:count] - coords).max(axis=1) <= 1e-6).any():
            seen[count] = coords
            count += 1
    lambdas = np.ones(count, dtype=complex)
    if e_b is not None:  # the family-II candidate (0, e_B) goes last
        seen[count] = e_b
        lambdas = np.append(lambdas, 0.0)
    specs, disagreements = verify_extension(algebra, tau, lambdas, seen[:len(lambdas)].T,
                                            e_b=e_b, image=image)
    if disagreements:
        raise disagreement(specs[disagreements[0]])
    type2 = specs.pop() if e_b is not None else None
    specs = [spec for spec in specs if spec.family == FAMILY_TYPE_I]
    specs.sort(key=lambda spec: tuple(np.round(
        np.stack([spec.x0.real, spec.x0.imag], axis=1).reshape(-1), 6)))
    return Type1Solutions(specs=specs, best_effort=best_effort, type2=type2)


@dataclass(frozen=True)
class ContractiveExtensions:
    """Contractive extensions plus the certified non-contractive rejects."""

    included: list[ExtensionSpec]
    excluded: list[ExtensionSpec]


def contractive_extensions(algebra: Algebra, tau: AlgMap) -> ContractiveExtensions:
    """Extensions of norm one under the unitization norm ``|l| + ||x||``.

    Exactly the canonical extension (``x0 = 0``, always a solution of
    ``find_type1_solutions``) survives from family I, plus the family-II
    extension when the range has an identity of norm one.  Family-I
    candidates with ``x0 != 0`` are certified non-contractive and reported
    in ``excluded``.
    """
    tau_norm = map_norm(tau)
    if tau_norm > 1.0 + EPS:
        raise CertificationFailure(f"the map itself has norm {tau_norm:.6f} > 1",
                                   law="||tau|| <= 1", residual=tau_norm - 1.0)
    solutions = find_type1_solutions(algebra, tau)
    included, excluded = [], []
    for spec in solutions.specs:
        if max_abs(spec.x0) <= EPS:
            included.append(spec)
            continue
        if spec.norm_of_extension <= 1.0 + EPS:
            raise CertificationFailure(
                "a non-canonical family-I extension certified as contractive",
                law="contractive family-I extensions have x0 = 0",
                residual=spec.norm_of_extension)
        excluded.append(spec)
    type2 = solutions.type2
    if type2 is not None and type2.family == FAMILY_TYPE_II and type2.contractive:
        included.append(type2)
    return ContractiveExtensions(included=included, excluded=excluded)
