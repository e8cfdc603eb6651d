"""Shared pieces of the benchmark: checkout paths, the host-speed
correction, percentiles and process helpers.

This module imports nothing from the program, so every process of the
benchmark can use it.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE_CORPUS = ROOT / "tests" / "fixtures" / "corpus"
MANIFEST = ROOT / "tests" / "fixtures" / "corpus_manifest.json"
OUT = BENCH_DIR / "out"

# One pass of refloop.reference_loop() and one reference_spawn() take about this
# long on the 2-core host the benchmark was tuned on. Corrected timings read
# as they would at that speed.
NOMINAL_REF_S = 0.0022
NOMINAL_SPAWN_S = 0.13
REF_SPAWN_MODULES = ("argparse", "email.mime.multipart", "xml.dom.minidom", "http.cookiejar",
                     "decimal", "tarfile", "zipfile", "csv", "sqlite3", "difflib", "pydoc")
# A run goes on past its length until it has this many timed operations,
# so that a p95 always has ten samples beyond it.
MIN_SAMPLES = 220


def reference_spawn() -> float:
    """Time a fresh interpreter that imports a fixed set of standard-library
    modules the program does not use (s). Set-up is import work, which a slow
    phase of the host slows more than it slows reference_loop()."""
    start = time.perf_counter()
    subprocess.run([python(), "-c", "import " + ", ".join(REF_SPAWN_MODULES)], check=True)
    return time.perf_counter() - start


def correct_series(raw: list[float], ref: list[float],
                   nominal: float = NOMINAL_REF_S) -> list[float]:
    """Scale each operation to the nominal host speed by the mean of the
    reference times that bracket it: ref[i] was taken just before operation
    i, ref[i + 1] just after."""
    last = len(ref) - 1
    return [value * nominal / ((ref[i] + ref[min(i + 1, last)]) / 2.0)
            for i, value in enumerate(raw)]


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, share: float) -> int:
    return count - max(1, math.ceil(share * count))


def program_env() -> dict[str, str]:
    """Environment for a process that runs the program from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def python() -> str:
    """The interpreter running the benchmark, without any launcher shim."""
    return sys.executable


def stop(proc: subprocess.Popen, signal_first=None, timeout: float = 10.0) -> None:
    """Stop a child and wait until it has ended."""
    if proc.poll() is None:
        if signal_first is not None:
            proc.send_signal(signal_first)
        else:
            proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (VmHWM), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
