"""Minimal GraphQL engine: lexer, query parser, validation (which compiles each
operation's selection sets once), and an executor that runs the compiled sets
by driving resolve plans against the target API."""

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
