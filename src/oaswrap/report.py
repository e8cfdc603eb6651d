"""Generation report: warning taxonomy, strict-mode behavior, JSON output.

Every mitigation performed during generation goes through
:func:`record_warning`, which either appends a warning (non-strict) or aborts
generation with an error of the same kind (strict). This single choke point is
what keeps the strict/non-strict coherence property true by construction.

``evaluate`` relies on it: a strict run succeeds exactly when the non-strict
run succeeds with no warnings, so ``eval --strict-also`` derives each strict
outcome from the non-strict report instead of generating twice. Code that
reads ``Report.mode`` anywhere else breaks that derivation, and must bring
back the second, strict generation in ``evaluate_corpus``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import StrictModeAbort

NON_STRICT = "non_strict"
STRICT = "strict"

# Warning kinds (closed set).
MISSING_RESPONSE_SCHEMA = "MissingResponseSchema"
MULTIPLE_RESPONSES = "MultipleResponses"
INVALID_SCHEMA_TYPE = "InvalidSchemaType"
UNKNOWN_SCHEMA_TYPE = "UnknownSchemaType"
UNSUPPORTED_FEATURE = "UnsupportedFeature"

WARNING_KINDS = frozenset(
    {
        MISSING_RESPONSE_SCHEMA,
        MULTIPLE_RESPONSES,
        INVALID_SCHEMA_TYPE,
        UNKNOWN_SCHEMA_TYPE,
        UNSUPPORTED_FEATURE,
    }
)

# Error kinds reportable on aborted generations. Strict aborts additionally
# reuse the warning kind that triggered them.
INVALID_OAS = "InvalidOas"
SANITATION_ERROR = "SanitationError"
MISSING_REF = "MissingRef"
INTERNAL_ERROR = "InternalError"

ERROR_KINDS = frozenset({INVALID_OAS, SANITATION_ERROR, MISSING_REF, INTERNAL_ERROR}) | WARNING_KINDS


@dataclass
class WarningRecord:
    kind: str
    location: str  # JSON pointer into the source OAS
    mitigation: str


@dataclass
class Stats:
    operations_total: int = 0
    operations_skipped: int = 0
    types_created: int = 0
    links_attached: int = 0
    viewers_created: int = 0


@dataclass
class Report:
    """Structured outcome of one generation run."""

    source: str
    mode: str = NON_STRICT
    outcome: str = "success"
    error_kind: str | None = None
    error_message: str | None = None
    warnings: list[WarningRecord] = field(default_factory=list)
    stats: Stats = field(default_factory=Stats)

    def fail(self, kind: str, message: str) -> None:
        self.outcome = "error"
        self.error_kind = kind
        self.error_message = message

    def warning_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.warnings:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts


def record_warning(report: Report, kind: str, location: str, mitigation: str) -> None:
    """Record a mitigation, or abort if generating in strict mode.

    The abort carries the warning's kind so strict-mode reports name the same
    cause a non-strict run would have warned about.
    """
    if kind not in WARNING_KINDS:
        raise ValueError(f"unknown warning kind {kind!r}")
    if report.mode == STRICT:
        raise StrictModeAbort(kind, location, f"{kind} at {location}: {mitigation}")
    report.warnings.append(WarningRecord(kind, location, mitigation))


def finalize_report(report: Report) -> str:
    """Serialize the report to deterministic JSON (stable key order)."""
    return json.dumps({
        "source": report.source,
        "mode": report.mode,
        "outcome": report.outcome,
        "error": (
            None
            if report.outcome == "success"
            else {"kind": report.error_kind, "message": report.error_message}
        ),
        "warnings": [asdict(w) for w in report.warnings],
        "warning_counts": dict(sorted(report.warning_counts().items())),
        "stats": asdict(report.stats),
    }, indent=2) + "\n"
