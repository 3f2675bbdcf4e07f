"""Star-map classification and the canonical splitting machinery.

A trivolution is a non-zero conjugate-linear anti-homomorphism ``t``
with ``t^3 = t``.  Every such map splits the algebra as ``A = I + B``
with ``I = ker t``, ``B = t(A)``, ``p = t^2`` a homomorphic projection
onto ``B`` and ``r = t|_B`` an involution on ``B``, and conversely any
such pair ``(p, r)`` produces a trivolution ``r o p``.  This module
computes both directions and certifies every claimed identity, plus the
derived element theory (hermitian/normal/unitary/positive classes and
hermitian functionals).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Algebra,
    Subspace,
    algebras_compatible,
    column_products,
    induced_subalgebra,
    left_mult_matrix,
    make_algebra,
    multiply,
    product_algebra,
    right_mult_matrix,
)
from .errors import CertificationFailure, UsageError, certify
from .linalg import (
    EPS,
    EPS_RANK,
    as_complex,
    column_space_and_nullspace,
    max_abs,
    max_abs_each,
    realify_conjugation_fixed_points,
)
from .starmap import (
    AlgMap,
    adjoint,
    apply,
    classify_multiplicativity,
    compose,
    kernel_image,
    make_map,
    power,
)

KIND_NOT_STAR = "not_star"
KIND_INVOLUTION = "involution"
KIND_TRIVOLUTION_PROPER = "trivolution_proper"


@dataclass(frozen=True)
class StarClass:
    """Verdict of the star-map classifier, with audit residuals."""

    kind: str
    is_conjugate_linear: bool
    is_anti_hom: bool
    cubes_to_self: bool
    is_injective: bool
    anti_residual: float
    cube_residual: float

    @property
    def is_trivolution(self) -> bool:
        return self.kind != KIND_NOT_STAR

    @property
    def residual(self) -> float:
        """The worse of the two audit residuals."""
        return max(self.anti_residual, self.cube_residual)


def classify_star_map(algebra: Algebra, f: AlgMap):
    """Classify an endomorphism as involution / proper trivolution / neither.

    The zero map is excluded by definition; a map with all the axioms
    is an involution exactly when it is injective.  A ``(B, n, n)`` family
    is decided law by law on the whole stack (``classify_multiplicativity``,
    the cube, the rank) and gives a list of ``B`` verdicts, each equal to
    its map's own; a single map gives its verdict alone.  The verdicts are
    kept on ``f``, so a map is classified once.
    """
    if not (algebras_compatible(f.source, algebra) and algebras_compatible(f.target, algebra)):
        raise UsageError("classify_star_map expects an endomorphism of the given algebra")
    family = f.matrix.ndim == 3
    if "verdicts" not in f.cache:
        stack = f.matrix if family else f.matrix[None]
        nonzero = (max_abs_each(stack) > EPS).tolist()
        mult = classify_multiplicativity(f) if family else [classify_multiplicativity(f)]
        cubed = power(f, 3)
        cube_residuals = max_abs_each(cubed.matrix.reshape(stack.shape) - stack).tolist()
        injective = (np.linalg.matrix_rank(stack, EPS_RANK) == algebra.dim).tolist()
        verdicts = []
        for flags, nonzero_b, cube_residual, injective_b in zip(mult, nonzero, cube_residuals,
                                                                  injective):
            cubes = cubed.conjugating == f.conjugating and cube_residual <= EPS
            if not (nonzero_b and f.conjugating and flags.anti_homomorphism and cubes):
                kind = KIND_NOT_STAR
            elif injective_b:
                kind = KIND_INVOLUTION
            else:
                kind = KIND_TRIVOLUTION_PROPER
            verdicts.append(StarClass(
                kind=kind,
                is_conjugate_linear=f.conjugating,
                is_anti_hom=flags.anti_homomorphism,
                cubes_to_self=cubes,
                is_injective=injective_b,
                anti_residual=flags.anti_residual,
                cube_residual=cube_residual,
            ))
        f.cache["verdicts"] = verdicts
    return f.cache["verdicts"] if family else f.cache["verdicts"][0]


def require_trivolution(algebra: Algebra, tau: AlgMap) -> StarClass:
    """``tau``'s verdict, or a failure of the trivolution law when it is not one."""
    verdict = classify_star_map(algebra, tau)
    if not verdict.is_trivolution:
        raise CertificationFailure(
            "map is not a trivolution "
            f"(anti residual {verdict.anti_residual:.3e}, cube residual {verdict.cube_residual:.3e})",
            law="conjugate-linear anti-homomorphism with t^3 = t", residual=verdict.residual)
    return verdict


@dataclass(frozen=True)
class Decomposition:
    """Canonical data ``A = I + B``, ``tau = rho o p``.

    ``involution_rho`` acts on the coordinates of the induced algebra on
    ``B`` (available as ``subalgebra``); ``embedding`` holds the basis
    columns realizing ``B`` inside the ambient algebra.  ``verdict`` is
    the classification of ``tau`` the decomposition was certified on.
    """

    ideal_I: Subspace
    subalg_B: Subspace
    projection_p: AlgMap
    involution_rho: AlgMap
    subalgebra: Algebra
    embedding: np.ndarray
    verdict: StarClass
    residuals: dict = field(repr=False)


def canonical_decomposition(algebra: Algebra, tau: AlgMap) -> Decomposition:
    """Split a trivolution into ``(I, B, p, rho)`` and certify the laws.

    Each law is certified once, and a failure raises with its name:

    - ``tau`` is a trivolution (kept as ``verdict``);
    - ``A = I (+) B`` with ``I = ker tau`` and ``B = tau(A)``;
    - ``p = tau^2`` is a homomorphism and ``p o p = p``;
    - ``p(A) = B`` and ``ker p = I``;
    - ``B`` is a subalgebra and ``tau(B)`` lies in ``B``;
    - ``rho = tau|_B`` is an involution of ``B``;
    - ``tau = rho o p``.

    ``rho`` is in the coordinates of ``B``'s echelon columns.  The
    reconstruction ``rho o p`` is ``make_trivolution``'s formula,
    ``_rho_after_p``, which takes the ``Subspace`` ``p(A)`` and reads
    ``p``'s coordinates at its pivots.  ``embedding`` spans the same space
    but can differ from ``p(A)``'s columns in the last bit, so building on
    it would change the ``reconstruction`` residual.  On ``tau``'s own
    source the decomposition is certified once and kept on ``tau``.
    """
    own = algebra is tau.source
    if own and "decomposition" in tau.cache:
        return tau.cache["decomposition"]
    verdict = require_trivolution(algebra, tau)

    p = compose(tau, tau)
    ideal, image = kernel_image(tau)
    residuals: dict[str, float] = {}

    if ideal.dim + image.dim != algebra.dim:
        raise CertificationFailure("rank-nullity failed in decomposition",
                                   law="dim I + dim B = dim A")
    joint = Subspace(np.hstack([ideal.basis, image.basis]), algebra)
    if joint.dim != algebra.dim:
        raise CertificationFailure("kernel and image do not span the algebra",
                                   law="A = I (+) B direct sum")

    residuals["p_homomorphism"] = certify(classify_multiplicativity(p).hom_residual, EPS,
                                          "p = t^2 is a homomorphism", "t^2 is not multiplicative")
    residuals["p_idempotent"] = certify(max_abs(compose(p, p).matrix - p.matrix), EPS,
                                        "p o p = p", "t^2 is not idempotent")

    p_kernel, p_image = kernel_image(p)
    if not p_image.same_span(image):
        raise CertificationFailure("image of p differs from image of t", law="p(A) = t(A)")
    if not p_kernel.same_span(ideal):
        raise CertificationFailure("kernel of p differs from kernel of t", law="ker p = ker t")

    subalg, embedding = induced_subalgebra(algebra, image)
    rho_matrix, restrict_residual = image.coordinates(tau.matrix @ np.conj(embedding))
    residuals["rho_restriction"] = certify(restrict_residual, EPS, "t(B) contained in B",
                                           "t does not restrict to its image")
    rho = AlgMap(matrix=rho_matrix, conjugating=True, source=subalg, target=subalg)
    rho_verdict = classify_star_map(subalg, rho)
    if rho_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("restriction of t to its image is not an involution",
                                   law="rho = t|_B is an involution", residual=rho_verdict.residual)
    residuals["rho_squared"] = max_abs(compose(rho, rho).matrix - np.eye(subalg.dim))

    rebuilt = _rho_after_p(algebra, p_image, p.matrix, rho.matrix)
    residuals["reconstruction"] = certify(max_abs(rebuilt.matrix - tau.matrix), EPS,
                                          "tau = rho o p",
                                          "rho o p does not reproduce the original map")
    dec = Decomposition(ideal_I=ideal, subalg_B=image, projection_p=p,
                        involution_rho=rho, subalgebra=subalg, embedding=embedding,
                        verdict=verdict, residuals=residuals)
    if own:
        tau.cache["decomposition"] = dec
    return dec


def _rho_after_p(algebra: Algebra, b: Subspace, p: np.ndarray, rho: np.ndarray) -> AlgMap:
    """``rho o p`` on ``algebra``, for ``rho`` in the coordinates of ``b``'s echelon columns
    and the linear ``p`` into ``b``, whose coordinates there are its rows at ``b``'s pivots."""
    matrix = b.canonical_columns() @ rho @ np.conj(p[list(b.pivots)])
    return AlgMap(matrix=matrix, conjugating=True, source=algebra, target=algebra)


def make_trivolution(algebra: Algebra, p: AlgMap, rho: AlgMap) -> AlgMap:
    """Assemble ``tau = rho o p`` from a homomorphic projection and an involution.

    ``p`` is an endomorphism of the algebra; ``rho`` acts on the induced
    coordinates of ``B = p(A)`` (as produced by ``induced_subalgebra``).
    """
    if p.conjugating:
        raise CertificationFailure("projection must be linear", law="p linear")
    if not (algebras_compatible(p.source, algebra) and algebras_compatible(p.target, algebra)):
        raise UsageError("projection is not an endomorphism of the given algebra")
    certify(classify_multiplicativity(p).hom_residual, EPS, "p(xy) = p(x) p(y)",
            "p is not multiplicative")
    certify(max_abs(compose(p, p).matrix - p.matrix), EPS, "p o p = p", "p is not idempotent")
    _, image = kernel_image(p)
    subalg, _ = induced_subalgebra(algebra, image)
    if not algebras_compatible(rho.source, subalg):
        raise UsageError("rho is not defined on the induced algebra of the projection's image")
    if not rho.conjugating:
        raise CertificationFailure("rho must be conjugate-linear", law="rho conjugate-linear")
    rho_verdict = classify_star_map(subalg, rho)
    if rho_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("rho is not an involution on the image subalgebra",
                                   law="rho^2 = id, rho anti-multiplicative",
                                   residual=rho_verdict.residual)
    return _rho_after_p(algebra, image, p.matrix, rho.matrix)


# ---------------------------------------------------------------------------
# factorization through an involutive algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factorization:
    """Data of ``tau = mu o sigma o lambda`` through an involutive algebra C."""

    c: Algebra
    lam: AlgMap
    sigma: AlgMap
    mu: AlgMap
    residuals: dict = field(repr=False)


def factor_through_involution(algebra: Algebra, tau: AlgMap, j: AlgMap) -> Factorization:
    """Factor a proper trivolution through an involutive algebra.

    ``j`` is an ambient conjugate-linear endomorphism whose restriction
    to the ideal ``I = ker tau`` is an involution of ``I``.  The
    construction doubles the coordinatewise algebra on ``I + B`` and
    produces ``lam``, ``sigma``, ``mu`` with ``sigma`` an involution and
    ``mu o sigma o lam = tau``; all three claims are certified.
    """
    dec = canonical_decomposition(algebra, tau)
    if dec.ideal_I.dim == 0:
        raise CertificationFailure("kernel is trivial, the map is an involution and the "
                                   "factorization degenerates", law="ker tau != 0")
    if not j.conjugating:
        raise CertificationFailure("j must be conjugate-linear", law="j conjugate-linear")

    ideal_alg, ideal_cols = induced_subalgebra(algebra, dec.ideal_I)
    j_restricted, escape = dec.ideal_I.coordinates(j.matrix @ np.conj(ideal_cols))
    certify(escape, EPS, "j(I) contained in I", "j does not preserve the ideal")
    j_on_ideal = AlgMap(matrix=j_restricted, conjugating=True, source=ideal_alg, target=ideal_alg)
    j_verdict = classify_star_map(ideal_alg, j_on_ideal)
    if j_verdict.kind != KIND_INVOLUTION:
        raise CertificationFailure("j restricted to the ideal is not an involution",
                                   law="j|_I is an involution", residual=j_verdict.residual)

    n = algebra.dim
    p_b = dec.projection_p.matrix
    p_i = np.eye(n, dtype=complex) - p_b

    # coordinatewise product on I (+) B: drop the cross terms of the ambient product
    split_structure = (column_products(algebra.structure, p_i, p_i)
                       + column_products(algebra.structure, p_b, p_b))
    split_alg = make_algebra(n, split_structure, algebra.basis_labels)
    c = product_algebra(split_alg, split_alg)

    zero = np.zeros((n, n), dtype=complex)
    lam = make_map(np.vstack([p_b, zero]), conjugating=False, source=algebra, target=c)
    mu = make_map(np.hstack([p_b, zero]), conjugating=False, source=c, target=algebra)
    j_pr1 = j.matrix @ np.conj(p_i)
    sigma = make_map(np.block([[tau.matrix, j_pr1], [j_pr1, tau.matrix]]),
                     conjugating=True, source=c, target=c)

    residuals: dict[str, float] = {}
    lam_mult = classify_multiplicativity(lam)
    mu_mult = classify_multiplicativity(mu)
    residuals["lambda_homomorphism"] = lam_mult.hom_residual
    residuals["mu_homomorphism"] = mu_mult.hom_residual
    certify(max(lam_mult.hom_residual, mu_mult.hom_residual), EPS, "lambda, mu multiplicative",
            "factorization legs are not homomorphisms")
    residuals["sigma_anti"] = classify_multiplicativity(sigma).anti_residual
    residuals["sigma_squared"] = max_abs(compose(sigma, sigma).matrix - np.eye(2 * n))
    certify(max(residuals["sigma_anti"], residuals["sigma_squared"]), EPS,
            "sigma^2 = id, sigma anti-multiplicative", "sigma is not an involution on C")
    rebuilt = compose(mu, compose(sigma, lam))
    residuals["factorization"] = max_abs(rebuilt.matrix - tau.matrix)
    if residuals["factorization"] > EPS or rebuilt.conjugating != tau.conjugating:
        raise CertificationFailure("mu o sigma o lambda does not reproduce tau",
                                   law="tau = mu o sigma o lambda",
                                   residual=residuals["factorization"])
    return Factorization(c=c, lam=lam, sigma=sigma, mu=mu, residuals=residuals)


# ---------------------------------------------------------------------------
# trivolutive homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomBlocks:
    """Block decomposition of an intertwining homomorphism."""

    pi11: AlgMap
    pi22: AlgMap
    residuals: dict = field(repr=False)


def check_trivolutive_hom(a1: Algebra, tau1: AlgMap, a2: Algebra, tau2: AlgMap,
                          pi: AlgMap) -> HomBlocks:
    """Verify the block structure of an intertwining homomorphism.

    Relative to the canonical splittings of both sides the map must be
    block diagonal, with ``pi11: I1 -> I2`` and ``pi22: B1 -> B2`` both
    homomorphisms and ``pi22`` intertwining the restricted involutions.
    """
    if pi.conjugating:
        raise UsageError("pi must be a linear map")
    intertwine = certify(max_abs(compose(pi, tau1).matrix - compose(tau2, pi).matrix), EPS,
                         "pi o tau1 = tau2 o pi",
                         "pi o tau1 != tau2 o pi (residual {residual:.3e})")
    certify(classify_multiplicativity(pi).hom_residual, EPS, "pi(xy) = pi(x) pi(y)",
            "pi is not multiplicative")

    dec1 = canonical_decomposition(a1, tau1)
    dec2 = dec1 if a2 is a1 and tau2 is tau1 else canonical_decomposition(a2, tau2)
    qi1, qb1 = dec1.ideal_I.canonical_columns(), dec1.embedding
    qi2, qb2 = dec2.ideal_I.canonical_columns(), dec2.embedding
    t1 = np.hstack([qi1, qb1])
    t2 = np.hstack([qi2, qb2])
    blocks = np.linalg.solve(t2, pi.matrix @ t1)
    k1, k2 = qi1.shape[1], qi2.shape[1]
    pi11_m = blocks[:k2, :k1]
    pi12_m = blocks[:k2, k1:]
    pi21_m = blocks[k2:, :k1]
    pi22_m = blocks[k2:, k1:]

    residuals = {
        "intertwine": intertwine,
        "off_diagonal": certify(max(max_abs(pi12_m), max_abs(pi21_m)), EPS,
                                "pi12 = 0 and pi21 = 0", "off-diagonal blocks do not vanish"),
    }

    ideal1_alg, _ = induced_subalgebra(a1, dec1.ideal_I)
    ideal2_alg = ideal1_alg if dec2 is dec1 else induced_subalgebra(a2, dec2.ideal_I)[0]
    pi11 = make_map(pi11_m, conjugating=False, source=ideal1_alg, target=ideal2_alg)
    pi22 = make_map(pi22_m, conjugating=False, source=dec1.subalgebra, target=dec2.subalgebra)

    if ideal1_alg.dim and ideal2_alg.dim:
        residuals["pi11_homomorphism"] = certify(
            classify_multiplicativity(pi11).hom_residual, EPS, "pi11 multiplicative",
            "ideal block is not a homomorphism")
    residuals["pi22_homomorphism"] = certify(
        classify_multiplicativity(pi22).hom_residual, EPS, "pi22 multiplicative",
        "subalgebra block is not a homomorphism")
    residuals["pi22_involutive"] = certify(
        max_abs(compose(pi22, dec1.involution_rho).matrix
                - compose(dec2.involution_rho, pi22).matrix), EPS,
        "pi22 o rho1 = rho2 o pi22", "subalgebra block does not intertwine the involutions")
    return HomBlocks(pi11=pi11, pi22=pi22, residuals=residuals)


# ---------------------------------------------------------------------------
# right identities
# ---------------------------------------------------------------------------

def right_identity_trivolution(c: Algebra, e: np.ndarray, a_sub: Subspace,
                               tau_on_a: AlgMap) -> AlgMap:
    """Extend a trivolution on ``eC`` to all of ``C`` via left multiplication.

    ``e`` must be a right identity of ``C`` and ``a_sub`` must equal the
    subalgebra ``eC``; ``tau_on_a`` acts on the induced coordinates of
    that subalgebra.  Returns ``tau1 = tau o ell_e`` with the trivolution
    axioms and the range identity certified.
    """
    certify(max_abs(right_mult_matrix(c, e) - np.eye(c.dim)), EPS, "x e = x",
            "e is not a right identity (residual {residual:.3e})")
    l_e = left_mult_matrix(c, e)
    if not Subspace(l_e, c).same_span(a_sub):
        raise CertificationFailure("a_sub differs from eC", law="A = eC")
    sub_alg, embedding = induced_subalgebra(c, a_sub)
    if not algebras_compatible(tau_on_a.source, sub_alg):
        raise UsageError("tau_on_a is not defined on the induced algebra of a_sub")
    inner_verdict = classify_star_map(sub_alg, tau_on_a)
    if not inner_verdict.is_trivolution:
        raise CertificationFailure("tau_on_a is not a trivolution on eC",
                                   law="trivolution axioms on the subalgebra")

    tau1 = _rho_after_p(c, a_sub, l_e, tau_on_a.matrix)
    verdict = classify_star_map(c, tau1)
    if not verdict.is_trivolution:
        raise CertificationFailure("tau o ell_e failed the trivolution axioms",
                                   law="tau1 = tau o ell_e is a trivolution",
                                   residual=verdict.residual)
    _, tau1_image = kernel_image(tau1)
    _, inner_image = kernel_image(tau_on_a)
    embedded = Subspace(embedding @ inner_image.basis if inner_image.dim else
                        np.zeros((c.dim, 0)), c)
    if not tau1_image.same_span(embedded):
        raise CertificationFailure("range of the extension differs from the range of tau",
                                   law="tau1(C) = tau(A)")
    return tau1


# ---------------------------------------------------------------------------
# element classes and hermitian theory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementFlags:
    hermitian: bool
    normal: bool
    projection: bool
    unitary: bool
    positive_witness: np.ndarray | None = None


def element_classes(algebra: Algebra, tau: AlgMap, x: np.ndarray,
                    positive_witness: np.ndarray | None = None) -> ElementFlags:
    """Hermitian / normal / projection / unitary flags for an element.

    The unitary flag needs an identity; it is reported False on
    non-unital algebras.  ``positive_witness`` is stored only when the
    witness actually certifies positivity.
    """
    tx = apply(tau, x)
    t2x = apply(tau, tx)
    hermitian = max_abs(tx - x) <= EPS
    xt = multiply(algebra, x, tx)
    tx_x = multiply(algebra, tx, x)
    xt2 = multiply(algebra, x, t2x)
    t2x_x = multiply(algebra, t2x, x)
    normal = max_abs(xt - tx_x) <= EPS and max_abs(xt2 - t2x_x) <= EPS
    x_squared = multiply(algebra, x, x)
    projection = hermitian and max_abs(x_squared - x) <= EPS
    unitary = False
    if algebra.is_unital():
        e = algebra.identity_coords
        unitary = max_abs(xt - e) <= EPS and max_abs(tx_x - e) <= EPS
    witness = None
    if positive_witness is not None and check_positive(algebra, tau, x, positive_witness):
        witness = positive_witness
    return ElementFlags(hermitian=hermitian, normal=normal, projection=projection,
                        unitary=unitary, positive_witness=witness)


def check_positive(algebra: Algebra, tau: AlgMap, x: np.ndarray, y: np.ndarray) -> bool:
    """True iff ``x`` is hermitian and ``x = tau(y) y`` for the witness ``y``."""
    if max_abs(apply(tau, x) - x) > EPS:
        return False
    return max_abs(x - multiply(algebra, apply(tau, y), y)) <= EPS


def hermitian_decomposition(algebra: Algebra, tau: AlgMap,
                            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write ``x = x1 + i x2`` with both parts hermitian.

    Possible exactly when ``x`` lies in the range of the map; uniqueness
    is certified by solving for every hermitian pair summing to ``x``
    and checking the solution set is a single point.
    """
    kernel, image = kernel_image(tau)
    certify(image.residual(x), EPS, "x in tau(A)",
            "element is outside the range (residual {residual:.3e})")
    tx = apply(tau, x)
    x1 = (x + tx) / 2.0
    x2 = (x - tx) / 2.0j
    for part in (x1, x2):
        certify(max_abs(apply(tau, part) - part), EPS,
                "tau(x1) = x1, tau(x2) = x2", "computed part is not hermitian")
    certify(max_abs(x1 + 1j * x2 - x), EPS, "x = x1 + i x2",
            "parts do not sum back to the element")

    # uniqueness: solve H a + i H b = x over real coefficients and compare
    h = realify_conjugation_fixed_points(tau.matrix)  # spans the hermitians over R
    if h.shape[1]:
        top = np.hstack([h.real, -h.imag])
        bot = np.hstack([h.imag, h.real])
        system = np.vstack([top, bot]).astype(float)
        target = np.concatenate([x.real, x.imag])
        _, kernel, coeffs, residual = column_space_and_nullspace(system, target)
        null_dim = kernel.shape[1]
        if residual > 1e3 * EPS or null_dim != 0:
            raise CertificationFailure("hermitian pair is not unique",
                                       law="uniqueness of x = x1 + i x2",
                                       residual=float(residual),
                                       details={"null_dim": int(null_dim)})
        half = h.shape[1]
        alt1 = h @ coeffs[:half]
        alt2 = h @ coeffs[half:]
        certify(max(max_abs(alt1 - x1), max_abs(alt2 - x2)), 1e3 * EPS,
                "uniqueness of x = x1 + i x2", "alternative hermitian pair differs")
    return x1, x2


@dataclass(frozen=True)
class HermitianFunctionalReport:
    is_hermitian: bool
    adjoint_residual: float
    max_imag_on_hermitians: float
    max_on_kernel: float


def hermitian_functional_check(algebra: Algebra, tau: AlgMap,
                               f_coords) -> HermitianFunctionalReport:
    """Decide whether a functional is hermitian, two independent ways.

    Primary test: the conjugate-linear adjoint fixes ``f``.  Cross-check:
    ``f`` is real on the hermitian real subspace and vanishes on the
    kernel.  The two verdicts must agree; disagreement is an internal
    consistency failure.
    """
    f = as_complex(f_coords).reshape(-1)
    if f.shape != (algebra.dim,):
        raise UsageError("functional has wrong length for the algebra")
    if not tau.conjugating:
        raise UsageError("a hermitian functional needs a conjugate-linear map")
    f_tau = adjoint(tau).matrix @ np.conj(f)
    adjoint_residual = max_abs(f_tau - f)
    primary = adjoint_residual <= EPS

    h = realify_conjugation_fixed_points(tau.matrix)
    max_imag = max((abs(float((f @ col).imag)) for col in h.T), default=0.0)
    kernel, _ = kernel_image(tau)
    max_kernel = max((abs(complex(f @ col)) for col in kernel.basis.T), default=0.0)
    secondary = max_imag <= EPS and max_kernel <= EPS

    if primary != secondary:
        raise CertificationFailure(
            "hermitian-functional criteria disagree",
            law="f^tau = f iff f real on hermitians and zero on ker tau",
            residual=max(adjoint_residual, max_imag, max_kernel),
            details={"primary": primary, "secondary": secondary})
    return HermitianFunctionalReport(is_hermitian=primary,
                                     adjoint_residual=adjoint_residual,
                                     max_imag_on_hermitians=max_imag,
                                     max_on_kernel=max_kernel)
