"""Exception hierarchy and the pass rule.

Two families matter to callers: ``UsageError`` for malformed inputs and
plumbing mistakes (CLI exit code 2), and ``CertificationFailure`` for
mathematical laws that fail to certify on well-formed inputs (CLI exit
code 1).  Certification failures carry the violated law by name and the
worst residual observed, so reports stay auditable.

The pass rule: a law holds when its residual is finite and at most the
tolerance (a NaN or infinite residual means the arithmetic overflowed).
``certify`` is its one home: a check that raises on one residual goes
through it, unless its report needs a witness found on the way.
"""

from __future__ import annotations

import math


class TrivolveError(Exception):
    """Base class for all package errors."""


class UsageError(TrivolveError):
    """Malformed input, wrong shapes, unknown modes or families."""


class ParseError(UsageError):
    """An input file or inline value failed to parse or validate."""


class AlgebraMismatch(UsageError):
    """An element or map was used with an algebra it does not belong to."""


class ShapeMismatch(UsageError):
    """A matrix shape does not match the declared source/target dims."""


class ModeUnsupported(UsageError):
    """Requested adjoint mode is incompatible with the map's linearity."""


class UnsupportedFamily(UsageError):
    """Unknown family tag passed to the structured trivolution search."""


class CertificationFailure(TrivolveError):
    """A mathematical law failed to hold within tolerance.

    ``law`` names the violated identity, ``residual`` is the worst
    magnitude observed (``None`` where no magnitude applies or it is not
    finite, so reports stay valid JSON), ``details`` is free-form
    diagnostic data.
    """

    def __init__(self, message: str, *, law: str = "", residual: float | None = None,
                 details: dict | None = None):
        super().__init__(message)
        self.law = law
        self.residual = residual if residual is not None and math.isfinite(residual) else None
        self.details = details or {}

    def report(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": str(self),
            "law": self.law,
            "residual": self.residual,
            "details": self.details,
        }


def certify(residual: float, tol: float, law: str, message: str,
            exc: type[CertificationFailure] = CertificationFailure,
            details: dict | None = None) -> float:
    """Return ``residual`` when ``law`` holds by the pass rule, else raise ``exc``.

    ``message`` may quote ``{residual:.3e}``; it is formatted only on failure.
    """
    if math.isfinite(residual) and residual <= tol:
        return residual
    raise exc(message.format(residual=residual), law=law, residual=residual, details=details)


class AssociativityViolation(CertificationFailure):
    pass


class IdentityMismatch(CertificationFailure):
    pass


class NotAGroup(CertificationFailure):
    pass


class NotAnIdeal(CertificationFailure):
    pass


class NotASubalgebra(CertificationFailure):
    pass


class NotATrivolution(CertificationFailure):
    pass


class NotAProjection(CertificationFailure):
    pass


class NotAHomomorphism(CertificationFailure):
    pass


class NotAnInvolution(CertificationFailure):
    pass


class KernelTrivial(CertificationFailure):
    """The map is injective, so the splitting factorization degenerates."""


class JNotInvolution(CertificationFailure):
    pass


class NotIntertwining(CertificationFailure):
    pass


class NotRightIdentity(CertificationFailure):
    pass


class SubalgebraMismatch(CertificationFailure):
    pass


class NotInRange(CertificationFailure):
    pass


class InvalidExtension(CertificationFailure):
    pass


class NotContractive(CertificationFailure):
    pass


class NotUnital(CertificationFailure):
    pass


class BNotUnital(CertificationFailure):
    pass


class NotIntroverted(CertificationFailure):
    pass


class NotInvariant(CertificationFailure):
    pass


class NotArensRegular(CertificationFailure):
    pass


class NotCommutative(CertificationFailure):
    pass


class CharacterNotInX(CertificationFailure):
    pass


class NotCompatibleInvolution(CertificationFailure):
    pass
