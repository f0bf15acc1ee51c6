"""Exception types shared across the package."""

from __future__ import annotations


class LiequantError(Exception):
    """Base class for all package errors."""


class SchemaError(LiequantError):
    """Malformed, inconsistent or out-of-range input data."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(message if not location else f"{location}: {message}")
        self.message = message
        self.location = location

    def within(self, prefix: str) -> "SchemaError":
        """The same error, located in a document embedded at pointer ``prefix``."""
        return SchemaError(self.message, prefix if self.location == "/" else
                           prefix + self.location)


class MathDefectError(LiequantError):
    """An exact identity required of the input fails (defect is nonzero)."""

    def __init__(self, message: str, defect=None):
        super().__init__(message)
        self.defect = defect


class SolverInconsistencyError(LiequantError):
    """A linear solve produced an inconsistency certificate.

    ``certificate`` is a left null vector of the system matrix that pairs
    nontrivially with the right-hand side.
    """

    def __init__(self, message: str, certificate=None, hint: str = ""):
        super().__init__(message if not hint else f"{message} ({hint})")
        self.certificate = certificate
        self.hint = hint


class InternalCheckError(LiequantError):
    """An identity the theory guarantees has failed; implementation bug."""
