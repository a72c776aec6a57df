"""Exception hierarchy shared across the workbench.

Two families matter for exit codes: validation errors (bad user input,
CLI exit code 1) and invariant breaches (corrupted internal state,
CLI exit code 2).
"""


class SseqlabError(Exception):
    """Base class for all workbench errors."""


class UsageError(SseqlabError, ValueError):
    """Caller passed malformed arguments (dimension mismatch, bad flag)."""


class ValidationError(SseqlabError, ValueError):
    """User-supplied data failed a validation gate (config, table, override)."""


class DeclaredNameError(ValidationError):
    """A refusal about one declared name; ``subject``, (section, name), lets a config locate it.

    The name None stands for the section's ``derive`` row.
    """

    def __init__(self, message: str, section: str, name: str | None) -> None:
        super().__init__(message)
        self.subject = (section, name)


class ConfigError(ValidationError):
    """Configuration text failed to parse; carries located messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(str(p) for p in self.problems))


class IncompleteTableError(ValidationError):
    """A homotopy-table degree was queried but never populated.

    Absence is never treated as the zero group.
    """


class InvariantBreach(SseqlabError):
    """Internal data violated a structural invariant (d*d != 0, containment)."""
