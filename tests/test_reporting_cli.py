"""Report behavior, strict-mode semantics, CLI exit codes, and corpus eval."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
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


class Run:
    """What one in-process command line run printed, and its exit code."""

    def __init__(self, exit_code: int, out: str, err: str):
        self.exit_code, self.out, self.err = exit_code, out, err


def invoke(*args) -> Run:
    """Run main on args, each as text, capturing stdout, stderr and the exit
    code. Any exception but SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([str(arg) for arg in args])
            code = 0
        except SystemExit as exc:
            code = exc.code
    return Run(code, out.getvalue(), err.getvalue())


def test_cmd_generate_success_writes_sdl_and_report(tmp_path):
    sdl = tmp_path / "schema.graphql"
    report = tmp_path / "report.json"
    result = invoke("generate", corpus_path("clean_links.json"), "--sdl", sdl, "--report", report)
    assert result.exit_code == 0, result.err
    assert "type Query" in sdl.read_text()
    payload = json.loads(report.read_text())
    assert payload["outcome"] == "success"


def test_cmd_generate_strict_failure_exit_1(tmp_path):
    report = tmp_path / "report.json"
    result = invoke("generate", corpus_path("warn_multiple_responses.json"),
                    "--strict", "--report", report)
    assert result.exit_code == 1
    assert json.loads(report.read_text())["outcome"] == "error"


@pytest.mark.parametrize("args, at_fault", [
    (["generate", "/no/such/file.json"], "OAS_PATH"),
    (["generate", CORPUS_DIR], "OAS_PATH"),
    (["generate", corpus_path("clean_minimal.json"), "--sdl", CORPUS_DIR], "--sdl"),
    (["serve", corpus_path("clean_minimal.json"), "--context-file", "/no/such.json"],
     "--context-file"),
    (["eval", corpus_path("clean_minimal.json")], "CORPUS_DIR"),
    (["eval", CORPUS_DIR, "--out", CORPUS_DIR], "--out"),
])
def test_cmd_refuses_a_path_of_the_wrong_kind_with_exit_2(monkeypatch, args, at_fault):
    monkeypatch.setattr("oaswrap.cli.generate",
                        lambda *args, **kwargs: pytest.fail("generated a wrapper"))
    result = invoke(*args)
    assert result.exit_code == 2
    assert f"argument {at_fault}: " in result.err


def test_cmd_generate_error_document_exit_1():
    result = invoke("generate", corpus_path("error_malformed.json"))
    assert result.exit_code == 1
    assert "InvalidOas" in result.err


def test_cmd_generate_preserve_casing(tmp_path):
    sdl = tmp_path / "schema.graphql"
    result = invoke("generate", corpus_path("clean_minimal.json"), "--casing", "preserve",
                    "--sdl", sdl)
    assert result.exit_code == 0
    assert "type Query" in sdl.read_text()


def test_cmd_serve_rejects_malformed_header():
    result = invoke("serve", corpus_path("clean_minimal.json"), "--header", "novalue")
    assert result.exit_code == 2
    assert "Name: value" in result.err


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
    result = invoke("serve", spec, "--token-path", "security.oauthToken",
                    "--context-file", context)
    assert result.exit_code == 0, result.err
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
    result = invoke(*args)
    assert result.exit_code == 2, result.err
    assert expected in result.err
    assert served == []


def serve_with(monkeypatch, *options: str):
    """Run `serve` with options it must refuse before it generates a wrapper."""
    monkeypatch.setattr("oaswrap.cli.generate",
                        lambda *args, **kwargs: pytest.fail("serve generated a wrapper"))
    return invoke("serve", corpus_path("clean_minimal.json"), *options)


def test_cmd_serve_refuses_a_port_out_of_range(monkeypatch, served):
    result = serve_with(monkeypatch, "--port", "70000")
    assert result.exit_code == 2, result.err
    assert "--port" in result.err
    assert served == []


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e300"])
def test_cmd_serve_refuses_a_timeout_out_of_range(monkeypatch, served, timeout):
    result = serve_with(monkeypatch, "--timeout", timeout)
    assert result.exit_code == 2, result.err
    assert "--timeout" in result.err
    assert served == []


def test_cmd_serve_refuses_a_parallelism_below_one(monkeypatch, served):
    result = serve_with(monkeypatch, "--parallelism", "0")
    assert result.exit_code == 2, result.err
    assert "--parallelism" in result.err
    assert served == []


@pytest.mark.parametrize("command, option", [
    ("generate", "--sdl"), ("generate", "--report"), ("eval", "--out"),
])
def test_cmd_unwritable_output_is_a_one_line_error(tmp_path, command, option):
    target = tmp_path / "missing" / "out.txt"
    source = corpus_path("clean_links.json") if command == "generate" else CORPUS_DIR
    # invoke lets any exception but SystemExit through, so exit 1 is a SystemExit.
    result = invoke(command, source, option, target)
    assert result.exit_code == 1, result.err
    [line] = [line for line in result.err.splitlines() if line.startswith("Error:")]
    assert str(target) in line
    assert "Traceback" not in result.out + result.err


def test_cmd_eval_writes_stats(tmp_path):
    out = tmp_path / "stats.json"
    result = invoke("eval", CORPUS_DIR, "--out", out)
    assert result.exit_code == 0, result.err
    stats = json.loads(out.read_text())
    manifest = load_manifest()["files"]
    assert stats["total"] == len(manifest)
    assert "Overall results" in result.out
    assert "Errors by kind" in result.out


def test_help_exits_0_and_names_every_option_the_readme_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    usage = section.split("```")[1].replace("\\\n", " ")
    option = r"(?<![\w-])--?[a-z][a-z-]*"
    helps = []
    for command in ("generate", "serve", "eval"):
        result = invoke(command, "--help")
        assert result.exit_code == 0, result.err
        [line] = [line for line in usage.splitlines() if line.startswith(f"oaswrap {command} ")]
        named = set(re.findall(option, line))
        assert named and named <= set(re.findall(option, result.out)), command
        helps.append(result.out)
    result = invoke("--help")
    assert result.exit_code == 0, result.err
    assert {"-v", "--verbose"} <= set(re.findall(option, result.out))
    helps.append(result.out)
    # Every option the section's text names is in some command's help.
    assert set(re.findall(r"`(--?[a-z][a-z-]*)", section)) <= set(
        re.findall(option, "".join(helps)))


# Written by `oaswrap eval tests/fixtures/corpus --strict-also`, with and
# without `--out`, from the tree in which every document was generated twice.
EVAL_GOLDEN_STDOUT = FIXTURES / "eval_strict_also.txt"
EVAL_GOLDEN_JSON = FIXTURES / "eval_strict_also.json"


def test_cmd_eval_strict_also_table(tmp_path):
    out = tmp_path / "s.json"
    result = invoke("eval", CORPUS_DIR, "--strict-also", "--out", out)
    assert result.exit_code == 0
    assert out.read_bytes() == EVAL_GOLDEN_JSON.read_bytes()
    golden = EVAL_GOLDEN_STDOUT.read_text(encoding="utf-8")
    assert result.out == golden[golden.index("Overall results"):]


def test_cmd_eval_strict_also_stdout_matches_golden():
    result = invoke("eval", CORPUS_DIR, "--strict-also")
    assert result.exit_code == 0
    assert result.out.encode("utf-8") == EVAL_GOLDEN_STDOUT.read_bytes()


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


# Start-up loads none of these: the records are plain classes, not generated
# ones, only the server logs, and the command line is argparse's.
START_UP_MODULES = {"dataclasses", "logging", "click", "inspect"}


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


# Serving loads none of these: the edge and the upstream client speak HTTP/1.1
# through oaswrap.http11, and ssl waits for the first HTTPS connection.
HTTP_LIBRARY_MODULES = {"http", "http.client", "email", "urllib.request", "ssl"}


def test_the_service_and_a_plain_http_send_load_no_http_library_module():
    assert "oaswrap.http11" not in modules_after("import oaswrap.cli")
    assert not HTTP_LIBRARY_MODULES & modules_after("import oaswrap.service")
    loaded = modules_after(
        "import socket, threading, oaswrap.service\n"
        "from oaswrap.resolver_runtime import HttpClient, HttpRequestSpec\n"
        "listener = socket.create_server(('127.0.0.1', 0))\n"
        "def answer():\n"
        "    conn = listener.accept()[0]\n"
        "    while not conn.recv(65536).endswith(b'\\r\\n\\r\\n'): pass\n"
        "    conn.sendall(b'HTTP/1.1 200 OK\\r\\nContent-Length: 2\\r\\n\\r\\n{}')\n"
        "threading.Thread(target=answer, daemon=True).start()\n"
        "url = 'http://127.0.0.1:%d/x' % listener.getsockname()[1]\n"
        "assert HttpClient(timeout=5).send(HttpRequestSpec('GET', url))[2] == b'{}'")
    assert "oaswrap.http11" in loaded
    assert not HTTP_LIBRARY_MODULES & loaded


# A query served from a plain-HTTP upstream loads none of these: kernel
# signatures come from the built-in BLAKE2, so hashlib and OpenSSL stay out,
# and an ASCII upstream host reaches getaddrinfo as bytes, which needs no
# IDNA codec.
OPENSSL_AND_IDNA_MODULES = {"hashlib", "_hashlib", "ssl", "encodings.idna", "stringprep",
                            "unicodedata"}

SERVE_ONE_QUERY = """
import json, os, socket, threading
from oaswrap import generator, service
listener = socket.create_server(("127.0.0.1", 0))
def answer():
    conn = listener.accept()[0]
    while not conn.recv(65536).endswith(b"\\r\\n\\r\\n"):
        pass
    body = b'{"id": "u1", "name": "Uma", "employerId": "c1"}'
    conn.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Type: application/json\\r\\n"
                 b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body)
threading.Thread(target=answer, daemon=True).start()
with open(PATH, encoding="utf-8") as f:
    root = json.load(f)
root["servers"] = [{"url": "http://127.0.0.1:%d" % listener.getsockname()[1]}]
graphql = service.GraphQLService(generator.generate(json.dumps(root).encode()))
assert graphql.handle_graphql({"query": '{ user(id: "u1") { id name } }'}) == (
    200, {"data": {"user": {"id": "u1", "name": "Uma"}}})
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        mapped = [line.split()[-1] for line in f if "libcrypto" in line]
    assert not mapped, mapped
"""


def test_a_query_served_from_a_plain_http_upstream_maps_no_openssl():
    loaded = modules_after(
        SERVE_ONE_QUERY.replace("PATH", repr(str(corpus_path("clean_links.json")))))
    assert "oaswrap.engine.validation" in loaded
    assert not OPENSSL_AND_IDNA_MODULES & loaded


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's hashlib")
def test_kernel_signatures_use_the_blake2b_hashlib_exports():
    import hashlib

    from oaswrap.engine import validation
    assert validation.blake2b is hashlib.blake2b


# Prints the kernel signatures of a set shaped like serve-wide's records (keys
# to sanitize, an enum, a list and a nested object) and of its nested set.
SIGN_A_WIDE_SET = """
import json
from oaswrap.engine import parse_query, validate_query
from oaswrap.generator import generate
record = {"type": "object", "required": ["record_id"], "properties": {
    "record_id": {"type": "string"}, "label-text": {"type": "string"},
    "seat count": {"type": "integer"}, "unit.price": {"type": "number"},
    "in_stock": {"type": "boolean"},
    "status_code": {"type": "string", "enum": ["ok-new", "gone-old"]},
    "tag_list": {"type": "array", "items": {"type": "string"}},
    "owner": {"type": "object", "properties": {
        "owner_id": {"type": "string"}, "e-mail": {"type": "string"}}}}}
root = {"openapi": "3.0.3", "info": {"title": "Wide", "version": "1"},
        "servers": [{"url": "http://127.0.0.1:1"}],
        "paths": {"/records": {"get": {"operationId": "listRecords", "responses": {"200": {
            "description": "ok", "content": {"application/json": {"schema": {
                "type": "array", "items": {"$ref": "#/components/schemas/Record"}}}}}}}}},
        "components": {"schemas": {"Record": record}}}
wrapper = generate(json.dumps(root).encode())
doc = parse_query("{ getRecords { recordId labelText seatCount unitPrice inStock statusCode "
                  "tagList owner { ownerId eMail } } }")
assert validate_query(doc, wrapper.schema) == []
records = doc.operations[0].compiled[1].fields[0].child
print(records.signature, records.fields[-1].child.signature)
"""


def test_the_hashlib_fallback_signs_a_set_as_the_built_in_blake2_does():
    # hashlib takes its blake2b from _blake2 as it loads, so it loads before
    # _blake2 is blocked and the validation module falls back to it.
    fallback = last_line_after("import hashlib, sys\n"
                               "sys.modules['_blake2'] = None\n" + SIGN_A_WIDE_SET)
    # A change to the signed text or the digest would change these, and with
    # them which sets share a kernel.
    assert fallback == last_line_after(SIGN_A_WIDE_SET) == (
        "f8eebe6cb4de902c87e12c3deba9cd7d f31d89a318be2acabfe1e4a00abb6870")


def test_the_service_loads_no_dataclasses():
    assert "dataclasses" not in modules_after("import oaswrap.service")


def test_the_cli_and_a_generate_run_load_no_start_up_module(tmp_path):
    assert not START_UP_MODULES & modules_after("import oaswrap.cli")
    sdl = tmp_path / "schema.graphql"
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['generate', {str(corpus_path('clean_links.json'))!r}, "
        f"'--sdl', {str(sdl)!r}, '--report', {str(tmp_path / 'report.json')!r}])")
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
        f"main({args!r})\n"
        "print(logging.getLevelName(logging.getLogger().level))") == level


@pytest.mark.parametrize("name, options", [("clean_links.json", []),
                                           ("warn_multiple_responses.json", ["--strict"])])
def test_verbose_generate_prints_what_generate_prints(name, options):
    args = ["generate", str(corpus_path(name)), *options]
    plain, verbose = (invoke(*flags, *args) for flags in ([], ["-v"]))
    assert vars(verbose) == vars(plain)
    assert plain.out or plain.err


def test_generate_reads_a_yaml_document_without_loading_serving_modules(tmp_path):
    sdl = tmp_path / "schema.graphql"
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['generate', {str(corpus_path('clean_components.yaml'))!r}, "
        f"'--sdl', {str(sdl)!r}, '--report', {str(tmp_path / 'report.json')!r}])")
    assert "type Query" in sdl.read_text(encoding="utf-8")
    assert "yaml" in loaded
    assert not SERVING_MODULES & loaded


def test_eval_loads_no_serving_module(tmp_path):
    loaded = modules_after(
        "from oaswrap.cli import main\n"
        f"main(['eval', {str(CORPUS_DIR)!r}, '--out', {str(tmp_path / 'stats.json')!r}])")
    assert json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))["total"] > 0
    assert not SERVING_MODULES & loaded
