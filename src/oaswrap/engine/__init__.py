"""Minimal GraphQL engine: a lexer of the spec's lexical tokens (block strings
dedented), a query parser that refuses directives and subscriptions (a 400 at
the service), validation that compiles each operation's selection sets once,
and an executor that runs them by driving resolve plans against the target API."""

from .parser import parse_query
from .validation import validate_query
from .execution import ExecutionResult, Executor, coerce_variables

__all__ = [
    "parse_query",
    "validate_query",
    "coerce_variables",
    "Executor",
    "ExecutionResult",
]
