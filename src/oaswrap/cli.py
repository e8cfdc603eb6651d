"""Command line interface: generate, serve, and eval subcommands.

Exit codes: 0 success, 1 generation error or an output file that cannot be
written, 2 usage error.

Generation imports no serving code: ``serve`` imports the server and the
upstream client, and ``eval`` the corpus runner, when they run. Only the
server logs, so only ``serve`` loads and configures ``logging``; ``-v`` turns
its DEBUG records on.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import click

from .generator import GenerationOptions, generate
from .report import finalize_report


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging (serve).")
@click.pass_context
def main(ctx: click.Context, verbose: bool) -> None:
    """Wrap REST(-like) APIs described by OpenAPI with a GraphQL interface."""
    ctx.obj = verbose


def write_output(path: Path, text: str) -> None:
    """Write an output file; one that cannot be written is a one-line error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise click.FileError(str(path), hint=exc.strerror or str(exc)) from exc


def not_nan(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if math.isnan(value):
        raise click.BadParameter(f"{value} is not a number.")
    return value


casing_option = click.option(
    "--casing", type=click.Choice(["camel", "preserve"]), default="camel",
    show_default=True, help="Name sanitation casing policy.",
)


@main.command()
@click.argument("oas_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--strict", is_flag=True, help="Fail on any mitigation instead of warning.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the generation report JSON here.")
@click.option("--sdl", "sdl_path", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the generated SDL here.")
@casing_option
def generate_cmd(oas_path: Path, strict: bool, report_path: Path | None,
                 sdl_path: Path | None, casing: str) -> None:
    """Compile an OAS into a GraphQL schema and report."""
    wrapper = generate(oas_path, GenerationOptions(strict=strict, casing=casing))
    report_text = finalize_report(wrapper.report)
    if report_path:
        write_output(report_path, report_text)
    if wrapper.ok and sdl_path:
        write_output(sdl_path, wrapper.sdl)
    if wrapper.ok:
        click.echo(f"generated schema for {oas_path} "
                   f"({wrapper.report.stats.types_created} types, "
                   f"{len(wrapper.plans)} operations, "
                   f"{len(wrapper.report.warnings)} warnings)")
        if not report_path:
            click.echo(report_text, nl=False)
    else:
        click.echo(f"generation failed: [{wrapper.report.error_kind}] "
                   f"{wrapper.report.error_message}", err=True)
        sys.exit(1)


main.add_command(generate_cmd, name="generate")


@main.command()
@click.argument("oas_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--port", type=click.IntRange(0, 65535), default=8080, show_default=True)
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--strict", is_flag=True)
@click.option("--header", "headers", multiple=True, metavar="K:V",
              help="Static extra header for every upstream request (repeatable).")
@click.option("--token-path", help="JsonPath to OAuth/OpenID tokens in the context tree, "
                                   "e.g. security.oauthToken.")
@click.option("--context-file", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="JSON file loaded as the token context tree.")
@click.option("--timeout", type=click.FloatRange(0, threading.TIMEOUT_MAX, min_open=True),
              callback=not_nan, default=30.0, show_default=True,
              help="Upstream request timeout in seconds.")
@click.option("--parallelism", type=click.IntRange(min=1), default=8, show_default=True,
              help="Bound on concurrent sibling field resolutions.")
@casing_option
@click.pass_obj
def serve(verbose: bool, oas_path: Path, port: int, host: str, strict: bool,
          headers: tuple[str, ...], token_path: str | None, context_file: Path | None,
          timeout: float, parallelism: int, casing: str) -> None:
    """Generate a wrapper and serve POST /graphql, GET /sdl, GET /report."""
    import logging

    from .resolver_runtime import HttpClient, read_token
    from .service import GraphQLService, serve_forever

    extra_headers = {}
    for header in headers:
        key, sep, value = header.partition(":")
        if not sep or not key.strip():
            raise click.UsageError(f"--header must look like 'Name: value', got {header!r}")
        extra_headers[key.strip()] = value.strip()

    token = None
    if token_path or context_file:
        if not (token_path and context_file):
            raise click.UsageError("--token-path and --context-file must be given together")
        token = read_token(json.loads(context_file.read_text(encoding="utf-8")), token_path)
        if token is None:
            raise click.UsageError(f"--token-path {token_path!r} names nothing in {context_file}")
        if isinstance(token, (bool, dict, list)):
            raise click.UsageError(f"--token-path {token_path!r} names a {type(token).__name__} "
                                   f"in {context_file}, not a string or number")

    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    wrapper = generate(oas_path, GenerationOptions(strict=strict, casing=casing))
    if not wrapper.ok:
        click.echo(f"generation failed: [{wrapper.report.error_kind}] "
                   f"{wrapper.report.error_message}", err=True)
        sys.exit(1)

    service = GraphQLService(wrapper, HttpClient(timeout, extra_headers), token=token,
                             max_parallel=parallelism)
    serve_forever(service, host, port)


@main.command(name="eval")
@click.argument("corpus_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--strict-also", is_flag=True,
              help="Also report each file's strict-mode outcome, derived from its non-strict "
                   "report: strict succeeds exactly when non-strict succeeds with no warnings.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the stats JSON here.")
def eval_cmd(corpus_dir: Path, strict_also: bool, out_path: Path | None) -> None:
    """Run generation over a corpus directory and summarize outcomes."""
    from .evaluate import evaluate_corpus, render_tables, stats_json

    stats = evaluate_corpus(corpus_dir, strict_also=strict_also)
    text = stats_json(stats)
    if out_path:
        write_output(out_path, text)
    else:
        click.echo(text, nl=False)
    click.echo(render_tables(stats), nl=False)


if __name__ == "__main__":
    main()
