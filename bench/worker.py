"""Generation worker: runs the program on the generation workloads in a
process of its own, so its peak RSS and timings exclude the benchmark's
input generators and checkers.

    python3 bench/worker.py JOB_JSON

The job names the workload, the inputs, the run length, the result path and
an optional trace path. The worker times each operation and the reference
loop just before it, then records the outputs the checkers need. Each
operation starts from a collected heap, as in a fresh `oaswrap generate`
or `oaswrap eval` process.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import MIN_SAMPLES  # noqa: E402
from refloop import reference_loop  # noqa: E402


def done(start: float, job: dict, samples: int) -> bool:
    """The run length has passed and the p95 has ten samples beyond it."""
    return time.perf_counter() - start >= job["seconds"] and samples >= MIN_SAMPLES


def run_dedup(job: dict, generator) -> dict:
    docs = job["docs"]
    first = {path: _outputs(path, generator.generate(path)) for path in docs}  # warm-up
    raw, ref = [], []
    failed = mismatched = 0
    start = time.perf_counter()
    while True:
        for path in docs:
            gc.collect()
            ref.append(reference_loop())
            t0 = time.perf_counter()
            wrapper = generator.generate(path)
            raw.append(time.perf_counter() - t0)
            if not wrapper.ok:
                failed += 1
            elif wrapper.sdl != first[path]["sdl"]:
                mismatched += 1
            del wrapper  # so that the next gc.collect() starts from an empty heap
        if done(start, job, len(raw)):
            break
    window = (start, time.perf_counter())
    return {"raw_s": raw, "ref_s": ref, "attempted": len(raw), "failed": failed,
            "mismatched": mismatched, "window": window, "outputs": list(first.values())}


def run_corpus(job: dict, generator, evaluate, tracer) -> dict:
    directory = job["corpus_dir"]

    def one_pass():
        if tracer is None:
            return evaluate.evaluate_corpus(directory, strict_also=True)
        return tracer.call("evaluate.pass", evaluate.evaluate_corpus, (directory,),
                           {"strict_also": True})

    first = _corpus_digest(one_pass())  # warm-up pass
    raw, ref = [], []
    attempted = failed = mismatched = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        ref.append(reference_loop())
        t0 = time.perf_counter()
        stats = one_pass()
        raw.append(time.perf_counter() - t0)
        attempted += stats.total
        failed += sum(1 for f in stats.files if f.error_kind == "InternalError")
        if _corpus_digest(stats) != first:
            mismatched += 1
        if done(start, job, len(raw)):
            break
    window = (start, time.perf_counter())
    files = json.loads(first)
    outputs = []
    for entry in files["files"]:
        path = str(Path(directory) / entry["name"])
        outputs.append(dict(_outputs(path, generator.generate(path)), file=entry))
    return {"raw_s": raw, "ref_s": ref, "attempted": attempted, "failed": failed,
            "mismatched": mismatched, "window": window, "outputs": outputs,
            "stats": files}


def _corpus_digest(stats) -> str:
    payload = stats.as_dict()
    for entry, result in zip(payload["files"], stats.files):
        entry["operations_total"] = result.operations_total
    return json.dumps(payload, sort_keys=True)


def _outputs(path: str, wrapper) -> dict:
    report = wrapper.report
    return {"path": path, "outcome": report.outcome, "error_kind": report.error_kind,
            "warnings": report.warning_counts(), "sdl": wrapper.sdl,
            "operations_total": report.stats.operations_total,
            "types_created": report.stats.types_created}


def main(argv: list[str]) -> None:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    from oaswrap import evaluate, generator

    tracer = None
    if job.get("trace"):
        from tracing import Tracer, install_generation

        tracer = Tracer()
        install_generation(tracer)
    if job["workload"] == "gen-dedup":
        result = run_dedup(job, generator)
    else:
        result = run_corpus(job, generator, evaluate, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(job["trace"])
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv)
