"""Spectra through the left regular representation.

For a unital algebra the spectrum of ``x`` equals the eigenvalue multiset
of the left-multiplication matrix ``L_x``; non-unital algebras are
computed in their unitization.  The inclusion checker realizes the
conjugation symmetry between the spectrum of ``x`` in ``A`` and the
spectrum of ``tau(x)`` inside the range subalgebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    Algebra,
    induced_subalgebra,
    left_mult_matrix,
    multiply,
)
from .errors import CertificationFailure, certify
from .linalg import EPS, EPS_RANK, max_abs
from .starmap import AlgMap, apply, kernel_image
from .trivolution import require_trivolution

SPECTRUM_TOL = 1e-7


def _sorted_values(values: np.ndarray) -> tuple[complex, ...]:
    ordered = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    return tuple(ordered)


@dataclass(frozen=True)
class Spectrum:
    values: tuple[complex, ...]
    computed_in: str  # "algebra" | "unitization"


def spectrum(algebra: Algebra, x: np.ndarray) -> Spectrum:
    """Eigenvalues of left multiplication, in ``A`` or its unitization."""
    if algebra.is_unital():
        values = np.linalg.eigvals(left_mult_matrix(algebra, x))
        return Spectrum(values=_sorted_values(values), computed_in="algebra")
    sharp = algebra.unitization
    coords = np.concatenate([[0.0], x])
    values = np.linalg.eigvals(left_mult_matrix(sharp, coords))
    return Spectrum(values=_sorted_values(values), computed_in="unitization")


def inverse_element(algebra: Algebra, x: np.ndarray) -> np.ndarray | None:
    """Two-sided inverse, or None when ``L_x`` is singular."""
    if not algebra.is_unital():
        raise CertificationFailure("inverses need an identity", law="A has an identity")
    l_x = left_mult_matrix(algebra, x)
    if np.linalg.matrix_rank(l_x, EPS_RANK) < algebra.dim:
        return None
    y = np.linalg.solve(l_x, algebra.identity_coords)
    left = max_abs(multiply(algebra, x, y) - algebra.identity_coords)
    right = max_abs(multiply(algebra, y, x) - algebra.identity_coords)
    # two-sidedness is verified a bit above EPS: the solve itself already
    # carries conditioning noise near the rank threshold
    if max(left, right) > 1e3 * EPS:
        return None
    return y


@dataclass(frozen=True)
class SpectralInclusionReport:
    spectrum_in_algebra: Spectrum
    spectrum_in_range: Spectrum
    max_mismatch: float
    included: bool
    inverse_checked: bool
    inverse_residual: float


def verify_spectral_inclusion(algebra: Algebra, tau: AlgMap,
                              x: np.ndarray) -> SpectralInclusionReport:
    """Match the range spectrum of ``tau(x)`` into the conjugated spectrum of ``x``.

    The range ``B = tau(A)`` is used with its own regular representation
    and its own identity (which may differ from the ambient identity).
    ``tau`` must be a trivolution; its verdict, its range and the range
    algebra are kept on ``tau``, so a map is certified once for many ``x``.
    ``tau(x)``'s coordinates in ``B`` are certified (``t(x) in t(A)``).
    When ``x`` is invertible the compatibility
    ``tau(x) tau(x^-1) = tau(x^-1) tau(x) = e_B`` is certified too, at ``EPS``.
    """
    if not algebra.is_unital():
        raise CertificationFailure("spectral inclusion needs a unital ambient algebra",
                                   law="A has an identity")
    _, image = kernel_image(tau)
    sub, embedding = induced_subalgebra(algebra, image)
    if not sub.is_unital():
        raise CertificationFailure("the range subalgebra has no identity",
                                   law="tau(A) has an identity")
    require_trivolution(algebra, tau)

    spec_a = spectrum(algebra, x)
    tau_x = apply(tau, x)
    tau_x_in_b, residual = image.coordinates(tau_x)
    certify(residual, EPS, "t(x) in t(A)", "t(x) leaves the range (residual {residual:.3e})")
    spec_b = spectrum(sub, tau_x_in_b)

    conj_a = [complex(v).conjugate() for v in spec_a.values]
    max_mismatch = 0.0
    for mu in spec_b.values:
        nearest = min(abs(mu - lam) for lam in conj_a)
        max_mismatch = max(max_mismatch, nearest)

    inverse_checked = False
    inverse_residual = 0.0
    x_inv = inverse_element(algebra, x)
    if x_inv is not None:
        inverse_checked = True
        tau_x_inv = apply(tau, x_inv)
        e_b = embedding @ sub.identity_coords
        left = multiply(algebra, tau_x, tau_x_inv)
        right = multiply(algebra, tau_x_inv, tau_x)
        inverse_residual = certify(max(max_abs(left - e_b), max_abs(right - e_b)), EPS,
                                   "t(x) t(x^-1) = t(x^-1) t(x) = e_B",
                                   "t(x^-1) is not the inverse of t(x) in t(A) "
                                   "(residual {residual:.3e})")

    return SpectralInclusionReport(
        spectrum_in_algebra=spec_a,
        spectrum_in_range=spec_b,
        max_mismatch=max_mismatch,
        included=max_mismatch <= SPECTRUM_TOL,
        inverse_checked=inverse_checked,
        inverse_residual=inverse_residual,
    )
