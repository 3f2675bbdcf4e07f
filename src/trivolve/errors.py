"""The four exception classes and the pass rule.

``TrivolveError`` is the base of the other three.  ``UsageError`` is a
malformed input or a plumbing mistake: a wrong shape, a map of another
algebra, an unknown family (CLI exit code 2).  ``ParseError``,
a ``UsageError``, is an input file or inline value that does not parse.
``CertificationFailure`` is a mathematical law that fails to certify on
well-formed inputs (CLI exit code 1).  A failure is identified by its
``law``, the name of the violated identity, not by a subclass; it also
carries the worst residual observed, so reports stay auditable.

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
    """Malformed input, wrong shapes, mismatched algebras, unknown families."""


class ParseError(UsageError):
    """An input file or inline value failed to parse or validate."""


class CertificationFailure(TrivolveError):
    """A mathematical law failed to hold within tolerance.

    ``law`` names the violated identity, ``residual`` is the worst
    magnitude observed (``None`` where no magnitude applies or it is not
    finite, so reports stay valid JSON), ``details`` is free-form
    diagnostic data.
    """

    def __init__(self, message: str, *, law: str, residual: float | None = None,
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
            details: dict | None = None) -> float:
    """Return ``residual`` when ``law`` holds by the pass rule, else raise a failure of ``law``.

    ``message`` may quote ``{residual:.3e}``; it is formatted only on failure.
    """
    if math.isfinite(residual) and residual <= tol:
        return residual
    raise CertificationFailure(message.format(residual=residual), law=law, residual=residual,
                               details=details)
