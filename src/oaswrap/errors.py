"""Exception hierarchy shared by generation and serving.

Generation-time errors carry a ``kind`` string that ends up in the report's
error field; resolve-time errors become GraphQL execution errors instead.
"""

from __future__ import annotations


class OaswrapError(Exception):
    """Base class for all errors raised by this package."""

    kind = "InternalError"


class ParseError(OaswrapError):
    """Input bytes are not well-formed JSON or YAML."""

    kind = "InvalidOas"


class InvalidOasError(OaswrapError):
    """Document fails structural validation or version detection."""

    kind = "InvalidOas"


class UpconvertError(InvalidOasError):
    """A v2 construct violates the v2 grammar in a way that blocks mapping."""


class MissingRefError(OaswrapError):
    """A reference points at an external document or a nonexistent location."""

    kind = "MissingRef"

    def __init__(self, pointer: str, message: str | None = None):
        super().__init__(message or f"cannot resolve reference {pointer!r}")


class SanitationError(OaswrapError):
    """A name or enum value cannot be made legal for the GraphQL grammar."""

    kind = "SanitationError"


class StrictModeAbort(OaswrapError):
    """Raised in strict mode where non-strict mode would record a warning."""

    def __init__(self, warning_kind: str, location: str, message: str):
        super().__init__(message)
        self.kind = warning_kind
        self.location = location


class GraphQLSyntaxError(OaswrapError):
    """Query or SDL text violates the GraphQL grammar."""

    kind = "SyntaxError"

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.line = line
        self.column = column


class CoercionError(OaswrapError):
    """A variable or argument value does not fit its declared type."""

    kind = "CoercionError"


class ResolveError(OaswrapError):
    """A field resolution failed at serve time; becomes an execution error."""

    kind = "ResolveError"


class MissingRequiredParameter(ResolveError):
    kind = "MissingRequiredParameter"


class MissingCredentials(ResolveError):
    kind = "MissingCredentials"


class ExpressionUnresolvable(ResolveError):
    kind = "ExpressionUnresolvable"


class UpstreamError(ResolveError):
    """Non-2xx upstream status; carries status and a body excerpt."""

    kind = "UpstreamError"

    def __init__(self, status: int, excerpt: str):
        super().__init__(f"upstream responded with status {status}: {excerpt}")
        self.status = status
        self.excerpt = excerpt


class UpstreamNotJson(ResolveError):
    kind = "UpstreamNotJson"


class UpstreamTooLarge(ResolveError):
    """An upstream body exceeds resolver_runtime.MAX_UPSTREAM_BYTES."""

    kind = "UpstreamTooLarge"


class NetworkError(ResolveError):
    kind = "NetworkError"


class RequestTimeout(ResolveError):
    kind = "Timeout"
