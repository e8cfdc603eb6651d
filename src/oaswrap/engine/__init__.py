"""Minimal GraphQL engine: lexer, query parser, SDL parser, validation, and
an executor that drives resolve plans against the target API."""

from .parser import parse_query
from .sdl import parse_sdl
from .validation import validate_query
from .execution import ExecutionResult, Executor, coerce_variables

__all__ = [
    "parse_query",
    "parse_sdl",
    "validate_query",
    "coerce_variables",
    "Executor",
    "ExecutionResult",
]
