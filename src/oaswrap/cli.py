"""Command line interface: generate, serve, and eval subcommands.

Exit codes: 0 success, 1 generation error or an output file that cannot be
written, 2 usage error. Every usage error is found before anything is
generated or started: argparse checks each value as it parses, and ``serve``
checks its headers and token before it generates.

Generation imports no serving code: ``serve`` imports the server and the
upstream client, and ``eval`` the corpus runner, when they run. Only the
server logs, so only ``serve`` loads and configures ``logging``; ``-v`` turns
its DEBUG records on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
import threading
from pathlib import Path

from .generator import GenerationOptions, generate
from .report import finalize_report


def path_type(must_exist: bool, directory: bool):
    """An argparse type: a Path that names a directory exactly when directory
    is true, if it exists; if must_exist, it must exist and be readable."""
    def check(text: str) -> Path:
        try:
            is_dir = stat.S_ISDIR(os.stat(text).st_mode)
        except OSError:
            if must_exist:
                raise argparse.ArgumentTypeError(f"'{text}' does not exist") from None
            return Path(text)
        if is_dir != directory:
            raise argparse.ArgumentTypeError(
                f"'{text}' is {'not ' if directory else ''}a directory")
        if must_exist and not os.access(text, os.R_OK):
            raise argparse.ArgumentTypeError(f"'{text}' is not readable")
        return Path(text)
    return check


def number_type(convert, low: float, high: float = math.inf, low_open: bool = False):
    """An argparse type: a number of type convert in [low, high], or in
    (low, high] if low_open. NaN is in no range."""
    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not (low < value if low_open else low <= value) or not value <= high:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {'an integer' if convert is int else 'a number'} in "
                f"{'(' if low_open else '['}{low}, {high}]")
        return value
    return check


def write_output(path: Path, text: str) -> None:
    """Write an output file; one that cannot be written is a one-line error, exit 1."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"Error: could not write '{path}': {exc.strerror or exc}", file=sys.stderr)
        sys.exit(1)


def generation_failed(wrapper) -> None:
    print(f"generation failed: [{wrapper.report.error_kind}] {wrapper.report.error_message}",
          file=sys.stderr)
    sys.exit(1)


def generate_cmd(args: argparse.Namespace) -> None:
    wrapper = generate(args.oas_path, GenerationOptions(strict=args.strict, casing=args.casing))
    report_text = finalize_report(wrapper.report)
    if args.report_path:
        write_output(args.report_path, report_text)
    if not wrapper.ok:
        generation_failed(wrapper)
    if args.sdl_path:
        write_output(args.sdl_path, wrapper.sdl)
    print(f"generated schema for {args.oas_path} "
          f"({wrapper.report.stats.types_created} types, {len(wrapper.plans)} operations, "
          f"{len(wrapper.report.warnings)} warnings)")
    if not args.report_path:
        sys.stdout.write(report_text)


def serve_cmd(args: argparse.Namespace) -> None:
    import logging

    from .resolver_runtime import HttpClient, read_token
    from .service import GraphQLService, serve_forever

    extra_headers = {}
    for header in args.headers:
        key, sep, value = header.partition(":")
        if not sep or not key.strip():
            args.parser.error(f"--header must look like 'Name: value', got {header!r}")
        extra_headers[key.strip()] = value.strip()

    token = None
    token_path, context_file = args.token_path, args.context_file
    if token_path or context_file:
        if not (token_path and context_file):
            args.parser.error("--token-path and --context-file must be given together")
        token = read_token(json.loads(context_file.read_text(encoding="utf-8")), token_path)
        if token is None:
            args.parser.error(f"--token-path {token_path!r} names nothing in {context_file}")
        if isinstance(token, (bool, dict, list)):
            args.parser.error(f"--token-path {token_path!r} names a {type(token).__name__} "
                              f"in {context_file}, not a string or number")

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    wrapper = generate(args.oas_path, GenerationOptions(strict=args.strict, casing=args.casing))
    if not wrapper.ok:
        generation_failed(wrapper)

    service = GraphQLService(wrapper, HttpClient(args.timeout, extra_headers), token=token,
                             max_parallel=args.parallelism)
    serve_forever(service, args.host, args.port)


def eval_cmd(args: argparse.Namespace) -> None:
    from .evaluate import evaluate_corpus, render_tables, stats_json

    stats = evaluate_corpus(args.corpus_dir, strict_also=args.strict_also)
    text = stats_json(stats)
    if args.out_path:
        write_output(args.out_path, text)
    else:
        sys.stdout.write(text)
    sys.stdout.write(render_tables(stats))


def build_parser(prog_name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog_name, allow_abbrev=False,
        description="Wrap REST(-like) APIs described by OpenAPI with a GraphQL interface.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="Enable debug logging (serve).")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)

    def command(name: str, run, summary: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)  # parser: for usage errors found after parsing
        return sub

    output = path_type(False, False)
    gen = command("generate", generate_cmd, "Compile an OAS into a GraphQL schema and report.")
    gen.add_argument("--report", dest="report_path", metavar="PATH", type=output,
                     help="Write the generation report JSON here.")
    gen.add_argument("--sdl", dest="sdl_path", metavar="PATH", type=output,
                     help="Write the generated SDL here.")

    serve = command("serve", serve_cmd,
                    "Generate a wrapper and serve POST /graphql, GET /sdl, GET /report.")
    serve.add_argument("--port", type=number_type(int, 0, 65535), default=8080,
                       help="(default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1", help="(default: %(default)s)")
    serve.add_argument("--header", dest="headers", action="append", default=[], metavar="K:V",
                       help="Static extra header for every upstream request (repeatable).")
    serve.add_argument("--token-path", help="JsonPath to OAuth/OpenID tokens in the context "
                                            "tree, e.g. security.oauthToken.")
    serve.add_argument("--context-file", metavar="PATH", type=path_type(True, False),
                       help="JSON file loaded as the token context tree.")
    serve.add_argument("--timeout", default=30.0,
                       type=number_type(float, 0, threading.TIMEOUT_MAX, low_open=True),
                       help="Upstream request timeout in seconds. (default: %(default)s)")
    serve.add_argument("--parallelism", type=number_type(int, 1), default=8,
                       help="Bound on concurrent sibling field resolutions. "
                            "(default: %(default)s)")

    for sub in (gen, serve):
        sub.add_argument("oas_path", metavar="OAS_PATH", type=path_type(True, False))
        sub.add_argument("--strict", action="store_true",
                         help="Fail on any mitigation instead of warning.")
        sub.add_argument("--casing", choices=["camel", "preserve"], default="camel",
                         help="Name sanitation casing policy. (default: %(default)s)")

    corpus = command("eval", eval_cmd,
                     "Run generation over a corpus directory and summarize outcomes.")
    corpus.add_argument("corpus_dir", metavar="CORPUS_DIR", type=path_type(True, True))
    corpus.add_argument("--strict-also", action="store_true",
                        help="Also report each file's strict-mode outcome, derived from its "
                             "non-strict report: strict succeeds exactly when non-strict "
                             "succeeds with no warnings.")
    corpus.add_argument("--out", dest="out_path", metavar="PATH", type=output,
                        help="Write the stats JSON here.")
    return parser


def main(argv: list[str] | None = None, prog_name: str = "oaswrap") -> None:
    """Run the command that argv (sys.argv[1:] if None) names. Returns on
    success; exits with code 1 or 2 otherwise."""
    args = build_parser(prog_name).parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()
