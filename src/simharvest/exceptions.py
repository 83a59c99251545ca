"""Exception types shared across the package.

Every error raised by this package derives from SimHarvestError so callers
can catch one base class. A few types double as builtin exceptions
(ValueError, KeyError) where that is what idiomatic callers expect.
"""

from __future__ import annotations


class SimHarvestError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SimHarvestError, ValueError):
    """Bad configuration file or configuration value."""


class RecordValidationError(SimHarvestError, ValueError):
    """A domain object violates one of its invariants."""


class XmlParseError(SimHarvestError):
    """Input is not well-formed XML. Carries the byte offset of the fault."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class ProtocolMismatchError(SimHarvestError):
    """Well-formed XML that is not the OAI-PMH response we asked for."""


class StorageError(SimHarvestError):
    """Record store corruption or misuse."""


class PathCollisionError(StorageError):
    """Two distinct identifiers mapped onto the same store path."""


class NotFoundError(SimHarvestError, KeyError):
    """A requested identifier or artifact does not exist."""

    def __str__(self) -> str:  # KeyError quotes its argument; keep plain text
        return self.args[0] if self.args else ""


class StalenessError(SimHarvestError):
    """Similarity results are missing or out of date for the current corpus."""


class RequestArgumentError(SimHarvestError, ValueError):
    """Illegal OAI-PMH verb/argument combination on the client side."""


class HarvestError(SimHarvestError):
    """Harvest failed in a way that is not worth resuming."""


class ResumableHarvestError(HarvestError):
    """Harvest failed mid-list; carries the last good resumption cursor."""

    def __init__(self, message: str, cursor: str | None = None):
        super().__init__(message)
        self.cursor = cursor


class RestartRequiredError(HarvestError):
    """Upstream rejected our resumption token; the list must restart."""


class TokenLoopError(HarvestError):
    """Upstream keeps returning the same resumption token."""
