"""Start a wrapper the way `oaswrap serve` starts, optionally traced.

    python3 bench/wrapper.py TRACE_PATH|- serve SPEC --port N ...

Everything after the trace path goes to the oaswrap command line unchanged.
With a trace path, spans are recorded around the generation and serving
layers and written there when the server stops (SIGINT).

For each line read on standard input, the process runs the host-speed
reference loop and writes its time on standard output. The client asks for
one between queries, while the wrapper is idle, so the loop measures the
speed of the process that serves.
"""

from __future__ import annotations

import signal
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refloop import reference_loop  # noqa: E402


def answer_reference_requests() -> None:
    for _ in sys.stdin:
        sys.stdout.write(f"{reference_loop()!r}\n")
        sys.stdout.flush()


def main(argv: list[str]) -> None:
    trace_path = argv[1]
    # A process started in the background inherits SIGINT ignored; the
    # benchmark stops the wrapper with SIGINT, as Ctrl-C stops `oaswrap serve`.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=answer_reference_requests, daemon=True).start()
    from oaswrap import cli

    tracer = None
    if trace_path != "-":
        from tracing import Tracer, install_generation, install_serving

        tracer = Tracer()
        install_generation(tracer)
        install_serving(tracer)
    try:
        cli.main(argv[2:], prog_name="oaswrap")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    main(sys.argv)
