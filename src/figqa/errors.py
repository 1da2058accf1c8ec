"""Exception types shared across the package."""

from __future__ import annotations


class FigqaError(Exception):
    """Base class for all package errors."""


class RecursionLimitExceeded(FigqaError):
    """Macro expansion did not reach a fixed point within the depth limit."""


class MissingVariable(FigqaError):
    """A prompt template referenced a variable that was not supplied."""

    def __init__(self, name: str, template: str = ""):
        self.name = name
        self.template = template
        super().__init__(f"template {template!r} is missing variable {name!r}")


class MalformedResponse(FigqaError):
    """A model response did not contain the expected tagged structure."""


class EndpointUnavailable(FigqaError):
    """Transport-level failure that persisted through all retry attempts."""


class RequestRejected(EndpointUnavailable):
    """The endpoint refused the request itself (a 4xx other than 408/429).

    Sending the same request again cannot help, so it is not retried.
    """


class AuthError(FigqaError):
    """The endpoint rejected our credentials; retrying cannot help."""


class ImageUnreadable(FigqaError):
    """An image reference could not be loaded for a vision request."""


class UnscriptedRequest(FigqaError):
    """The mock backend received a request digest it has no response for."""


class InvalidFunnel(FigqaError):
    """Funnel counts are inconsistent (negative or non-monotonic)."""


class SchemaViolation(FigqaError):
    """A JSONL line failed schema validation.

    Carries the 1-based line number and the offending field name.
    """

    def __init__(self, line: int, field: str, detail: str = ""):
        self.line = line
        self.field = field
        self.detail = detail
        msg = f"line {line}: field {field!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class ConfigError(FigqaError):
    """The run configuration is missing or malformed."""


class UpstreamInputError(FigqaError):
    """A stage's required input file is missing or unreadable."""
