"""Report behavior, strict-mode semantics, CLI exit codes, and corpus eval."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, FIXTURES, corpus_path, load_manifest
from test_oas_ingest import MUTATIONS, _parseable_json_fixtures, mutant
import oaswrap
from oaswrap.cli import main
from oaswrap.errors import StrictModeAbort
from oaswrap.evaluate import evaluate_corpus, render_tables
from oaswrap.generator import GenerationOptions, generate
from oaswrap.report import (
    STRICT,
    WARNING_KINDS,
    Report,
    finalize_report,
    record_warning,
)


# -- record_warning ------------------------------------------------------------


def test_record_warning_non_strict_appends():
    report = Report(source="s")
    record_warning(report, "MissingResponseSchema", "#/paths/~1x/get",
                   "operation skipped")
    assert len(report.warnings) == 1
    assert report.warnings[0].kind == "MissingResponseSchema"


def test_record_warning_strict_aborts_with_same_cause():
    report = Report(source="s", mode=STRICT)
    with pytest.raises(StrictModeAbort) as excinfo:
        record_warning(report, "MultipleResponses", "#/paths/~1x/get/responses",
                       "selected lowest status 200")
    assert excinfo.value.kind == "MultipleResponses"
    assert report.warnings == []


def test_record_warning_rejects_unknown_kind():
    with pytest.raises(ValueError):
        record_warning(Report(source="s"), "NotAKind", "#/", "nope")


# -- finalize_report --------------------------------------------------------------


def test_finalize_report_clean_run():
    report = Report(source="api.json")
    payload = json.loads(finalize_report(report))
    assert payload["outcome"] == "success"
    assert payload["warnings"] == []
    assert payload["error"] is None
    assert set(payload["stats"]) == {
        "operations_total", "operations_skipped", "types_created",
        "links_attached", "viewers_created",
    }


def test_finalize_report_counts_and_order_deterministic():
    wrapper = generate(corpus_path("warn_multiple_responses.json"))
    first = finalize_report(wrapper.report)
    second = finalize_report(generate(corpus_path("warn_multiple_responses.json")).report)
    assert first == second
    payload = json.loads(first)
    assert payload["warning_counts"] == {"MultipleResponses": 1}
    assert payload["warnings"][0]["location"].startswith("#/paths/")


def test_finalize_report_timestamp_excluded_by_default():
    report = Report(source="x")
    assert "generated_at" not in json.loads(finalize_report(report))


def test_aborted_strict_run_echoes_warning_kind():
    wrapper = generate(corpus_path("warn_multiple_responses.json"),
                       GenerationOptions(strict=True))
    payload = json.loads(finalize_report(wrapper.report))
    assert payload["outcome"] == "error"
    assert payload["error"]["kind"] == "MultipleResponses"


def test_taxonomy_closure_on_corpus():
    manifest = load_manifest()
    for name in manifest["files"]:
        wrapper = generate(corpus_path(name))
        for warning in wrapper.report.warnings:
            assert warning.kind in WARNING_KINDS
            assert warning.location.startswith("#/")
            assert warning.mitigation


def test_skip_accounting_matches_root_fields():
    wrapper = generate(corpus_path("warn_missing_response_schema.json"))
    stats = wrapper.report.stats
    placed = stats.operations_total - stats.operations_skipped
    assert placed == len(wrapper.plans) == 1


def test_skip_accounting_invariant_across_corpus():
    # operations_total - operations_skipped equals the number of operation
    # root fields, counting a viewer-wrapped operation once
    for name in load_manifest()["files"]:
        wrapper = generate(corpus_path(name))
        if not wrapper.ok:
            continue
        schema = wrapper.schema
        placed: set[str] = set()
        for fields in (schema.query_fields, schema.mutation_fields):
            for field in fields.values():
                if field.binding is None:
                    continue
                if field.binding.kind == "operation":
                    placed.add(field.binding.plan_key)
                elif field.binding.kind == "viewer":
                    viewer_type = schema.types[field.type.unwrap().name]
                    for inner in viewer_type.fields.values():
                        if inner.binding and inner.binding.kind == "operation":
                            placed.add(inner.binding.plan_key)
        stats = wrapper.report.stats
        assert len(placed) == stats.operations_total - stats.operations_skipped, name


# -- CLI ---------------------------------------------------------------------------


def test_cmd_generate_success_writes_sdl_and_report(tmp_path):
    sdl = tmp_path / "schema.graphql"
    report = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(main, [
        "generate", str(corpus_path("clean_links.json")),
        "--sdl", str(sdl), "--report", str(report),
    ])
    assert result.exit_code == 0, result.output
    assert "type Query" in sdl.read_text()
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "success"


def test_cmd_generate_strict_failure_exit_1(tmp_path):
    report = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(main, [
        "generate", str(corpus_path("warn_multiple_responses.json")),
        "--strict", "--report", str(report),
    ])
    assert result.exit_code == 1
    assert json.loads(report.read_text())["outcome"] == "error"


def test_cmd_generate_nonexistent_path_exit_2():
    runner = CliRunner()
    result = runner.invoke(main, ["generate", "/no/such/file.json"])
    assert result.exit_code == 2


def test_cmd_generate_error_document_exit_1():
    runner = CliRunner()
    result = runner.invoke(main, ["generate", str(corpus_path("error_malformed.json"))])
    assert result.exit_code == 1
    assert "InvalidOas" in result.output


def test_cmd_generate_preserve_casing(tmp_path):
    sdl = tmp_path / "schema.graphql"
    runner = CliRunner()
    result = runner.invoke(main, [
        "generate", str(corpus_path("clean_minimal.json")),
        "--casing", "preserve", "--sdl", str(sdl),
    ])
    assert result.exit_code == 0
    assert "type Query" in sdl.read_text()


def test_cmd_serve_rejects_malformed_header():
    runner = CliRunner()
    result = runner.invoke(main, [
        "serve", str(corpus_path("clean_minimal.json")), "--header", "novalue",
    ])
    assert result.exit_code == 2
    assert "Name: value" in result.output


@pytest.fixture
def served(monkeypatch):
    """The services `serve` hands to the server; none is started."""
    services = []
    monkeypatch.setattr("oaswrap.service.serve_forever",
                        lambda service, host, port: services.append(service))
    return services


def test_cmd_serve_reads_the_bearer_token_from_the_context_file(tmp_path, upstream, served):
    upstream.static("GET", "/private", {"v": "s3cret-data"})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "openapi": "3.0.0", "info": {"title": "Tok", "version": "1"},
        "servers": [{"url": upstream.base_url}],
        "paths": {"/private": {"get": {
            "security": [{"oauth": []}],
            "responses": {"200": {"description": "ok", "content": {"application/json": {
                "schema": {"type": "object", "properties": {"v": {"type": "string"}}}}}}},
        }}},
        "components": {"securitySchemes": {"oauth": {"type": "oauth2", "flows": {}}}},
    }))
    context = tmp_path / "context.json"
    context.write_text(json.dumps({"security": {"oauthToken": "tok-42"}}))
    result = CliRunner().invoke(main, ["serve", str(spec), "--token-path", "security.oauthToken",
                                       "--context-file", str(context)])
    assert result.exit_code == 0, result.output
    [service] = served
    status, payload = service.handle_graphql({"query": "{ getPrivate { v } }"})
    assert (status, payload) == (200, {"data": {"getPrivate": {"v": "s3cret-data"}}})
    assert upstream.requests[-1].headers.get("Authorization") == "Bearer tok-42"
    service.executor.client.close()


@pytest.mark.parametrize("context, token_path, expected", [
    ({"security": {"oauthToken": "tok-42"}}, "security.typo", "names nothing"),
    ({"security": {"oauthToken": {"value": "tok-42"}}}, "security.oauthToken", "names a dict"),
    ({"security": {"oauthToken": ["tok-42"]}}, "security.oauthToken", "names a list"),
    ({"security": {"oauthToken": "tok-42"}}, None, "must be given together"),
    (None, "security.oauthToken", "must be given together"),
])
def test_cmd_serve_refuses_a_token_path_that_names_no_token(tmp_path, served, context,
                                                           token_path, expected):
    args = ["serve", str(corpus_path("clean_minimal.json"))]
    if token_path is not None:
        args += ["--token-path", token_path]
    if context is not None:
        context_file = tmp_path / "context.json"
        context_file.write_text(json.dumps(context))
        args += ["--context-file", str(context_file)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert expected in result.output
    assert served == []


def serve_with(monkeypatch, *options: str):
    """Run `serve` with options it must refuse before it generates a wrapper."""
    monkeypatch.setattr("oaswrap.cli.generate",
                        lambda *args, **kwargs: pytest.fail("serve generated a wrapper"))
    return CliRunner().invoke(main, ["serve", str(corpus_path("clean_minimal.json")), *options])


def test_cmd_serve_refuses_a_port_out_of_range(monkeypatch, served):
    result = serve_with(monkeypatch, "--port", "70000")
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--port'" in result.output
    assert served == []


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e300"])
def test_cmd_serve_refuses_a_timeout_out_of_range(monkeypatch, served, timeout):
    result = serve_with(monkeypatch, "--timeout", timeout)
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--timeout'" in result.output
    assert served == []


def test_cmd_serve_refuses_a_parallelism_below_one(monkeypatch, served):
    result = serve_with(monkeypatch, "--parallelism", "0")
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--parallelism'" in result.output
    assert served == []


@pytest.mark.parametrize("command, option", [
    ("generate", "--sdl"), ("generate", "--report"), ("eval", "--out"),
])
def test_cmd_unwritable_output_is_a_one_line_error(tmp_path, command, option):
    target = tmp_path / "missing" / "out.txt"
    source = corpus_path("clean_links.json") if command == "generate" else CORPUS_DIR
    result = CliRunner().invoke(main, [command, str(source), option, str(target)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert str(target) in line
    assert "Traceback" not in result.output


def test_cmd_eval_writes_stats(tmp_path):
    out = tmp_path / "stats.json"
    runner = CliRunner()
    result = runner.invoke(main, ["eval", str(CORPUS_DIR), "--out", str(out)])
    assert result.exit_code == 0, result.output
    stats = json.loads(out.read_text())
    manifest = load_manifest()["files"]
    assert stats["total"] == len(manifest)
    assert "Overall results" in result.output
    assert "Errors by kind" in result.output


# Written by `oaswrap eval tests/fixtures/corpus --strict-also`, with and
# without `--out`, from the tree in which every document was generated twice.
EVAL_GOLDEN_STDOUT = FIXTURES / "eval_strict_also.txt"
EVAL_GOLDEN_JSON = FIXTURES / "eval_strict_also.json"


def test_cmd_eval_strict_also_table(tmp_path):
    out = tmp_path / "s.json"
    runner = CliRunner()
    result = runner.invoke(main, ["eval", str(CORPUS_DIR), "--strict-also", "--out", str(out)])
    assert result.exit_code == 0
    assert out.read_bytes() == EVAL_GOLDEN_JSON.read_bytes()
    golden = EVAL_GOLDEN_STDOUT.read_text(encoding="utf-8")
    assert result.output == golden[golden.index("Overall results"):]


def test_cmd_eval_strict_also_stdout_matches_golden():
    result = CliRunner().invoke(main, ["eval", str(CORPUS_DIR), "--strict-also"])
    assert result.exit_code == 0
    assert result.output.encode("utf-8") == EVAL_GOLDEN_STDOUT.read_bytes()


# -- evaluate_corpus --------------------------------------------------------------


def test_eval_counts_match_manifest_exactly():
    manifest = load_manifest()["files"]
    stats = evaluate_corpus(CORPUS_DIR)
    expected_errors: dict[str, int] = {}
    expected_warnings: dict[str, int] = {}
    expected_successes = 0
    for spec in manifest.values():
        if spec["outcome"] == "success":
            expected_successes += 1
            for kind, count in spec.get("warnings", {}).items():
                expected_warnings[kind] = expected_warnings.get(kind, 0) + count
        else:
            kind = spec["error_kind"]
            expected_errors[kind] = expected_errors.get(kind, 0) + 1
    assert stats.total == len(manifest)
    assert stats.successes == expected_successes
    assert stats.errors_by_kind == expected_errors
    assert stats.warnings_by_kind == expected_warnings


def test_eval_per_file_isolation(tmp_path):
    (tmp_path / "fine.json").write_text(json.dumps({
        "openapi": "3.0.0", "info": {"title": "F", "version": "1"},
        "servers": [{"url": "https://f.example.com"}],
        "paths": {"/x": {"get": {"responses": {"200": {"description": "ok", "content": {
            "application/json": {"schema": {"type": "string"}}}}}}}},
    }))
    (tmp_path / "broken.json").write_text("{{{{")
    stats = evaluate_corpus(tmp_path)
    assert stats.total == 2
    assert stats.successes == 1
    assert stats.errors_by_kind == {"InvalidOas": 1}


def test_eval_invariant_successes_plus_errors_is_total():
    stats = evaluate_corpus(CORPUS_DIR)
    assert stats.successes + sum(stats.errors_by_kind.values()) == stats.total


def test_render_tables_shape():
    stats = evaluate_corpus(CORPUS_DIR, strict_also=True)
    text = render_tables(stats)
    assert "non-strict" in text
    assert "strict" in text
    assert "Skipped-operation ratio" in text


# -- strict outcomes derived from the non-strict report ---------------------------


def test_derived_strict_outcomes_equal_the_golden_strict_runs():
    golden = json.loads((FIXTURES / "sdl_golden.json").read_text(encoding="utf-8"))
    stats = evaluate_corpus(CORPUS_DIR, strict_also=True)
    assert len(stats.files) == len(load_manifest()["files"])
    for result in stats.files:
        assert result.strict_outcome == golden[f"{result.name}|True|camel"]["report"]["outcome"], \
            result.name


@settings(max_examples=300, deadline=None)
@given(fixture=st.sampled_from(_parseable_json_fixtures()), mutations=MUTATIONS)
def test_derived_strict_outcome_equals_a_strict_run(fixture, mutations):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutant.json"
        path.write_bytes(mutant(fixture, mutations))
        [result] = evaluate_corpus(directory, strict_also=True).files
        strict = generate(path, GenerationOptions(strict=True)).report
    assert result.strict_outcome == strict.outcome


# -- import boundary ---------------------------------------------------------------

# Generation and corpus runs import none of these: they serve queries.
SERVING_MODULES = {"ssl", "http.client", "http.server", "urllib.request", "orjson",
                   "oaswrap.service", "oaswrap.engine", "oaswrap.resolver_runtime"}


# Start-up loads neither: the records are plain classes, not generated ones,
# and only the server logs.
START_UP_MODULES = {"dataclasses", "logging"}


def last_line_after(code: str) -> str:
    """The last line a fresh interpreter prints after running code."""
    src = str(Path(oaswrap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    return set(last_line_after(code + "\nimport sys\nprint(' '.join(sys.modules))").split())


def test_importing_the_cli_loads_no_serving_yaml_or_corpus_module():
    loaded = modules_after("import oaswrap.cli")
    assert "oaswrap.generator" in loaded
    assert not (SERVING_MODULES | {"yaml", "concurrent.futures", "oaswrap.evaluate"}) & loaded


def test_the_service_loads_no_standard_library_server():
    assert not {"http.server", "socketserver"} & modules_after("import oaswrap.service")


def test_the_service_loads_no_dataclasses():
    assert "dataclasses" not in modules_after("import oaswrap.service")


def test_the_cli_and_a_generate_run_load_neither_dataclasses_nor_logging(tmp_path):
    assert not START_UP_MODULES & modules_after("import oaswrap.cli")
    sdl = tmp_path / "schema.graphql"
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['generate', {str(corpus_path('clean_links.json'))!r}, "
        f"'--sdl', {str(sdl)!r}, '--report', {str(tmp_path / 'report.json')!r}], "
        "standalone_mode=False)")
    assert "type Query" in sdl.read_text(encoding="utf-8")
    assert not START_UP_MODULES & loaded


@pytest.mark.parametrize("flags, level", [(["-v"], "DEBUG"), ([], "WARNING")])
def test_serve_configures_logging_and_v_turns_debug_on(flags, level):
    # serve_forever is replaced, so the command returns once the service is built.
    args = [*flags, "serve", str(corpus_path("clean_minimal.json"))]
    assert last_line_after(
        "import logging, oaswrap.service\n"
        "oaswrap.service.serve_forever = lambda service, host, port: None\n"
        "from oaswrap.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        "print(logging.getLevelName(logging.getLogger().level))") == level


@pytest.mark.parametrize("name, options", [("clean_links.json", []),
                                           ("warn_multiple_responses.json", ["--strict"])])
def test_verbose_generate_prints_what_generate_prints(name, options):
    args = ["generate", str(corpus_path(name)), *options]
    plain, verbose = (CliRunner().invoke(main, flags + args) for flags in ([], ["-v"]))
    assert (verbose.exit_code, verbose.output) == (plain.exit_code, plain.output)
    assert plain.output


def test_generate_reads_a_yaml_document_without_loading_serving_modules(tmp_path):
    sdl = tmp_path / "schema.graphql"
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['generate', {str(corpus_path('clean_components.yaml'))!r}, "
        f"'--sdl', {str(sdl)!r}, '--report', {str(tmp_path / 'report.json')!r}], "
        "standalone_mode=False)")
    assert "type Query" in sdl.read_text(encoding="utf-8")
    assert "yaml" in loaded
    assert not SERVING_MODULES & loaded


def test_eval_loads_no_serving_module(tmp_path):
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['eval', {str(CORPUS_DIR)!r}, '--out', {str(tmp_path / 'stats.json')!r}], "
        "standalone_mode=False)")
    assert json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))["total"] > 0
    assert not SERVING_MODULES & loaded
