"""Corpus evaluation: run generation over a directory of OAS files and
aggregate outcome, error, and warning statistics into machine-readable stats
plus aligned summary tables.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .generator import generate

OAS_SUFFIXES = (".json", ".yaml", ".yml")

HISTOGRAM_BUCKETS = ("0%", "(0,25%)", "[25,50%)", "[50,100%)", "100%")


class FileResult:
    def __init__(self, name: str, outcome: str, error_kind: str | None,
                 warnings: dict[str, int], operations_total: int, operations_skipped: int,
                 strict_outcome: str | None = None):
        self.name, self.outcome, self.error_kind = name, outcome, error_kind
        self.warnings, self.operations_total = warnings, operations_total
        self.operations_skipped, self.strict_outcome = operations_skipped, strict_outcome


class CorpusStats:
    def __init__(self, total: int = 0):
        self.total, self.successes = total, 0
        self.errors_by_kind: dict[str, int] = {}
        self.warnings_by_kind: dict[str, int] = {}
        self.per_api_warnings: dict[str, int] = {}
        self.skipped_histogram = {bucket: 0 for bucket in HISTOGRAM_BUCKETS}
        self.strict_total: int | None = None
        self.strict_successes: int | None = None
        self.files: list[FileResult] = []

    def as_dict(self) -> dict:
        payload = {
            "total": self.total,
            "successes": self.successes,
            "errors": self.total - self.successes,
            "errors_by_kind": dict(sorted(self.errors_by_kind.items())),
            "warnings_by_kind": dict(sorted(self.warnings_by_kind.items())),
            "per_api_warnings": dict(sorted(self.per_api_warnings.items())),
            "skipped_histogram": self.skipped_histogram,
            "files": [
                {
                    "name": f.name,
                    "outcome": f.outcome,
                    "error_kind": f.error_kind,
                    "warnings": dict(sorted(f.warnings.items())),
                    "strict_outcome": f.strict_outcome,
                }
                for f in self.files
            ],
        }
        if self.strict_total is not None:
            payload["strict"] = {"total": self.strict_total, "successes": self.strict_successes}
        return payload


def corpus_files(directory: str | Path) -> list[Path]:
    root = Path(directory)
    return sorted(
        p for p in root.iterdir()
        if p.is_file() and p.suffix.lower() in OAS_SUFFIXES
    )


def evaluate_corpus(directory: str | Path, strict_also: bool = False) -> CorpusStats:
    """Generate every OAS in a directory in non-strict mode and aggregate the
    outcomes; with ``strict_also``, also derive each file's strict outcome
    from its non-strict report. Per-file failures are data, never command
    failures.

    Files run one at a time on one worker thread: more threads only contend
    for the interpreter lock. Unlike the caller's thread, the worker has no
    enclosing trace span, so a tracer wrapping ``generate`` (bench/tracing.py)
    sees each document as an operation of its own.
    """
    files = corpus_files(directory)
    stats = CorpusStats(total=len(files))
    if strict_also:
        stats.strict_total = len(files)
        stats.strict_successes = 0

    def run(path: Path) -> FileResult:
        try:
            report = generate(path).report
            result = FileResult(
                name=path.name,
                outcome=report.outcome,
                error_kind=report.error_kind,
                warnings=report.warning_counts(),
                operations_total=report.stats.operations_total,
                operations_skipped=report.stats.operations_skipped,
            )
        except Exception:  # isolation: a crash is an InternalError datum
            result = FileResult(path.name, "error", "InternalError", {}, 0, 0)
        if strict_also:
            # A strict run aborts exactly where this one records a warning
            # (report.record_warning), so it succeeds only when this run
            # succeeded with none.
            clean = result.outcome == "success" and not result.warnings
            result.strict_outcome = "success" if clean else "error"
        return result

    # One job for the whole loop: the caller and the worker hand off once per pass.
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = pool.submit(lambda: [run(path) for path in files]).result()

    for result in results:
        stats.files.append(result)
        if result.outcome == "success":
            stats.successes += 1
            stats.skipped_histogram[_skip_range(result)] += 1
        else:
            kind = result.error_kind or "InternalError"
            stats.errors_by_kind[kind] = stats.errors_by_kind.get(kind, 0) + 1
        for kind, count in result.warnings.items():
            stats.warnings_by_kind[kind] = stats.warnings_by_kind.get(kind, 0) + count
        stats.per_api_warnings[result.name] = sum(result.warnings.values())
        if strict_also and result.strict_outcome == "success":
            stats.strict_successes += 1
    return stats


def _skip_range(result: FileResult) -> str:
    if result.operations_total == 0 or result.operations_skipped == 0:
        return "0%"
    ratio = result.operations_skipped / result.operations_total
    if ratio >= 1.0:
        return "100%"
    if ratio >= 0.5:
        return "[50,100%)"
    if ratio >= 0.25:
        return "[25,50%)"
    return "(0,25%)"


def render_tables(stats: CorpusStats) -> str:
    """Aligned plain-text summary: overall success/error rates, then the error
    breakdown by kind, then warnings by kind."""
    lines: list[str] = []

    def pct(part: int, whole: int) -> str:
        return f"{100.0 * part / whole:.1f}%" if whole else "n/a"

    lines.append("Overall results")
    lines.append(f"  {'mode':<12} {'succ. (%)':>16} {'errors (%)':>16}")
    err = stats.total - stats.successes
    lines.append(
        f"  {'non-strict':<12} {f'{stats.successes} ({pct(stats.successes, stats.total)})':>16} "
        f"{f'{err} ({pct(err, stats.total)})':>16}"
    )
    if stats.strict_total is not None:
        strict_err = stats.strict_total - (stats.strict_successes or 0)
        lines.append(
            f"  {'strict':<12} "
            f"{f'{stats.strict_successes} ({pct(stats.strict_successes or 0, stats.strict_total)})':>16} "
            f"{f'{strict_err} ({pct(strict_err, stats.strict_total)})':>16}"
        )

    lines.append("")
    lines.append("Errors by kind (non-strict)")
    if stats.errors_by_kind:
        width = max(len(kind) for kind in stats.errors_by_kind)
        for kind in sorted(stats.errors_by_kind):
            lines.append(f"  {kind:<{width}}  {stats.errors_by_kind[kind]:>5}")
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("Warnings by kind (non-strict)")
    if stats.warnings_by_kind:
        width = max(len(kind) for kind in stats.warnings_by_kind)
        for kind in sorted(stats.warnings_by_kind):
            lines.append(f"  {kind:<{width}}  {stats.warnings_by_kind[kind]:>5}")
    else:
        lines.append("  (none)")

    lines.append("")
    lines.append("Skipped-operation ratio over successful wrappers")
    for bucket in HISTOGRAM_BUCKETS:
        lines.append(f"  {bucket:<10} {stats.skipped_histogram[bucket]:>5}")
    return "\n".join(lines) + "\n"


def stats_json(stats: CorpusStats) -> str:
    return json.dumps(stats.as_dict(), indent=2) + "\n"
