"""Exception hierarchy shared across the package.

Data problems (bad files, broken references, impossible requests against the
loaded tables) raise subclasses of :class:`TimberlineError`.  Misuse of the
command line or of estimator options raises :class:`UsageError`, which the CLI
maps to exit code 2; every other package error maps to exit code 1.
"""

from __future__ import annotations

__all__ = [
    "TimberlineError",
    "LoadError",
    "FetchError",
    "DomainSyntaxError",
    "DomainBindError",
    "EstimationError",
    "GeometryError",
    "UsageError",
]


class TimberlineError(Exception):
    """Base class for all package-raised errors."""


class LoadError(TimberlineError):
    """A CSV file is missing, malformed, or violates the load-time contract."""


class FetchError(TimberlineError):
    """A download failed.

    ``status`` carries the HTTP status code when one was received, and
    ``retriable`` marks failures (connection problems, 5xx) that a caller may
    reasonably retry.
    """

    def __init__(self, message: str, *, status: int | None = None, retriable: bool = False):
        super().__init__(message)
        self.status = status
        self.retriable = retriable


class DomainSyntaxError(TimberlineError):
    """A domain expression could not be parsed; ``position`` is 0-based."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainBindError(TimberlineError):
    """A parsed domain expression references unknown columns or bad types.
    ``problems`` lists each one."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = problems
        super().__init__("; ".join(problems))


class EstimationError(TimberlineError):
    """The requested estimate cannot be produced from the loaded tables."""


class GeometryError(TimberlineError):
    """GeoJSON input is structurally invalid or uses an unsupported CRS."""


class UsageError(TimberlineError):
    """Invalid option combination.  ``problems`` lists every violation found."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = problems
        super().__init__("; ".join(problems))
