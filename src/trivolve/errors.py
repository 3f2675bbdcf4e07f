"""Exception hierarchy.

Two families matter to callers: ``UsageError`` for malformed inputs and
plumbing mistakes (CLI exit code 2), and ``CertificationFailure`` for
mathematical laws that fail to certify on well-formed inputs (CLI exit
code 1).  Certification failures carry the violated law by name and the
worst residual observed, so reports stay auditable.
"""

from __future__ import annotations


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
    magnitude observed (``None`` where no magnitude applies, so reports
    stay valid JSON), ``details`` is free-form diagnostic data.
    """

    def __init__(self, message: str, *, law: str = "", residual: float | None = None,
                 details: dict | None = None):
        super().__init__(message)
        self.law = law
        self.residual = residual
        self.details = details or {}

    def report(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": str(self),
            "law": self.law,
            "residual": self.residual,
            "details": self.details,
        }


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
