"""End-to-end generation pipeline: OAS file in, GraphQL wrapper out.

Errors from the taxonomy (InvalidOas, SanitationError, MissingRef, strict-mode
aborts) are captured into the report rather than raised, so callers inspect
``wrapper.ok`` / ``wrapper.report``.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InvalidOasError, OaswrapError
from .ir import ArgIR, ResolvePlan, SchemaIR
from .oas_ingest import OasDocument, OasOperation, ingest, load_document, validate
from .preprocessing import CAMEL, preprocess
from .report import NON_STRICT, Report
from .schema_gen import assemble_schema, print_sdl


class GenerationOptions:
    def __init__(self, strict: bool = False, casing: str = CAMEL):
        self.strict, self.casing = strict, casing

    @property
    def mode(self) -> str:
        return "strict" if self.strict else NON_STRICT


class GeneratedWrapper:
    """What serving reads; the parsed document and preprocessing stay in generate()."""

    def __init__(self, report: Report, schema: SchemaIR | None = None,
                 plans: dict[str, ResolvePlan] | None = None, sdl: str | None = None):
        self.report, self.schema = report, schema
        self.plans, self.sdl = plans or {}, sdl

    @property
    def ok(self) -> bool:
        return self.report.outcome == "success"


def generate(source: str | Path | bytes, options: GenerationOptions | None = None,
             source_name: str | None = None) -> GeneratedWrapper:
    """Run the whole pipeline; the returned wrapper's report tells the outcome."""
    options = options or GenerationOptions()
    if isinstance(source, (str, Path)) and not source_name:
        source_name = str(source)
    report = Report(source=source_name or "<bytes>", mode=options.mode)
    wrapper = GeneratedWrapper(report=report)
    try:
        _run_pipeline(source, options, wrapper)
    except OaswrapError as exc:
        report.fail(exc.kind, str(exc))
    except RecursionError:
        report.fail("InternalError", "recursion limit exceeded during generation")
    return wrapper


def _run_pipeline(source, options: GenerationOptions, wrapper: GeneratedWrapper) -> None:
    report = wrapper.report
    data = source if isinstance(source, bytes) else Path(source).read_bytes()
    doc = ingest(load_document(data, None, report.source), report)
    errors = validate(doc)
    if errors:
        raise InvalidOasError(errors[0])
    pre = preprocess(doc, report, options.casing)
    wrapper.plans = {op.key: make_resolve_plan(op, doc, pre.fields[op.key].args)
                     for op in doc.operations if op.key in pre.fields}
    wrapper.schema = assemble_schema(doc, pre, report)
    wrapper.sdl = print_sdl(wrapper.schema)


def make_resolve_plan(op: OasOperation, doc: OasDocument,
                      args: dict[str, ArgIR]) -> ResolvePlan:
    """Bind base URL, path, method, arguments, security, and the payload's
    content type for one operation."""
    return ResolvePlan(
        operation_key=op.key,
        method=op.method.upper(),
        path=op.path,
        base_url=doc.servers[0] if doc.servers else "",
        args=args,
        content_type=(op.request_body.content_type or "application/json"
                      if op.request_body is not None else None),
        security=[doc.security_schemes[name] for name in op.security],
    )
