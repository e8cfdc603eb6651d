"""The oaswrap benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for their make-up and why each was chosen):
    gen-dedup     generate() of documents whose schemas share top-level keys
    gen-corpus    evaluate_corpus(strict_also=True) over fixtures + synthetic
    serve-fanout  aliased link chains and mutations, stub with service time
    serve-wide    one upstream call returning a wide list

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 a separate traced run reports the
per-layer metrics. Lines before it show every figure, raw ones included.
Every output is checked; "correct" is false when one is wrong. The run
exits non-zero, without a result, when the checkout lacks the program or the
run cannot finish.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    FIXTURE_CORPUS,
    MANIFEST,
    MIN_SAMPLES,
    NOMINAL_SPAWN_S,
    OUT,
    SRC,
    correct_series,
    peak_rss_mb,
    percentile,
    program_env,
    python,
    reference_spawn,
    samples_beyond,
    stop,
)

WORKLOADS = ("gen-dedup", "gen-corpus", "serve-fanout", "serve-wide")

# Set-up is short, so each run repeats it and reports the median.
SETUPS = 7
# Stub service time per upstream request (ms). One client sends queries.
SERVICE_MS = {"serve-fanout": 5.0, "serve-wide": 0.0}
# Query ids of the warm-up round, apart from those of the timed loop.
WARM_UP_IDS = 1_000_000
TAIL = 0.95

END_TO_END = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p95_ms", "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
         "peak_rss_mb": "MB"}
# Per-layer metrics in the result line: those every workload measures.
# Generation layers run in every workload (the serve workloads generate at
# wrapper start-up); the serving counts read 0 where nothing is served.
PER_LAYER = {
    "oas_ingest.load_ms": "ms", "oas_ingest.ingest_ms": "ms",
    "oas_ingest.validate_ms": "ms", "preprocessing.preprocess_ms": "ms",
    "preprocessing.deep_equal_calls": "count", "preprocessing.types_created": "count",
    "resolver_runtime.plans_ms": "ms", "schema_gen.assemble_ms": "ms",
    "schema_gen.print_ms": "ms", "schema_gen.sdl_bytes": "bytes",
    "generator.self_ms": "ms", "upstream_calls_per_query": "1",
    "resolver_runtime.upstream_calls": "count", "engine.pools_created": "count",
    "service.response_bytes": "bytes", "resolver_runtime.upstream_bytes": "bytes",
}


class BenchError(Exception):
    """The run cannot produce a result."""


# -- timing helpers ------------------------------------------------------------------


def latency_metrics(samples_s: list[float]) -> dict[str, float]:
    if samples_beyond(len(samples_s), TAIL) < 10:
        raise BenchError(f"only {len(samples_s)} samples: too few for a p95 "
                         f"with ten beyond it; raise --seconds")
    return {"latency_p50_ms": median(samples_s) * 1000.0,
            "latency_p95_ms": percentile(samples_s, TAIL) * 1000.0}


def setup_times(start_once) -> tuple[float, float]:
    """Median set-up time over SETUPS fresh starts, after one untimed start
    that fills the bytecode cache, each corrected by the reference spawns
    that bracket it. Returns (corrected, raw)."""
    start_once()
    raw, ref = [], [reference_spawn()]
    for _ in range(SETUPS):
        raw.append(start_once())
        ref.append(reference_spawn())
    return median(correct_series(raw, ref, NOMINAL_SPAWN_S)), median(raw)


# -- generation workloads ------------------------------------------------------------


def gen_setup() -> float:
    """A fresh interpreter until the CLI is imported and ready."""
    start = time.perf_counter()
    done = subprocess.run([python(), "-c", "import oaswrap.cli"], env=program_env(),
                          capture_output=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"importing oaswrap.cli failed: {done.stderr.decode()[-400:]}")
    return elapsed


def run_worker(job: dict, work: Path) -> dict:
    job_path = work / "job.json"
    job["result"] = str(work / "worker-result.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    done = subprocess.run([python(), str(BENCH_DIR / "worker.py"), str(job_path)],
                          env=program_env(), capture_output=True,
                          timeout=job["seconds"] + 120)
    if done.returncode != 0:
        raise BenchError(f"worker failed: {done.stderr.decode()[-2000:]}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def gen_dedup(args, work: Path, trace: Path | None) -> dict:
    docs = inputs.make_dedup_documents(args.seed)
    paths = []
    for n, doc in enumerate(docs):
        path = work / f"dedup_{n}.json"
        path.write_bytes(inputs.dumps(doc))
        paths.append(str(path))
    setup = setup_times(gen_setup)
    out = run_worker({"workload": "gen-dedup", "docs": paths, "seconds": args.seconds,
                      "trace": str(trace) if trace else None}, work)
    problems = checks.check_dedup(out["outputs"], [inputs.dedup_expected(d) for d in docs])
    return _gen_result(setup, out, problems, args, files_per_op=1)


def gen_corpus(args, work: Path, trace: Path | None) -> dict:
    corpus = work / "corpus"
    corpus.mkdir()
    for path in sorted(FIXTURE_CORPUS.iterdir()):
        shutil.copyfile(path, corpus / path.name)
    synthetic = {}
    for name, data, ops in inputs.make_corpus_documents(args.seed):
        (corpus / name).write_bytes(data)
        synthetic[name] = ops
    setup = setup_times(gen_setup)
    out = run_worker({"workload": "gen-corpus", "corpus_dir": str(corpus),
                      "seconds": args.seconds, "trace": str(trace) if trace else None}, work)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    problems = checks.check_corpus(out["outputs"], manifest, synthetic)
    return _gen_result(setup, out, problems, args, files_per_op=out["stats"]["total"])


def _gen_result(setup: tuple[float, float], out: dict, problems: list[str], args,
                files_per_op: int) -> dict:
    """Metrics of a generation run; files_per_op documents make one operation."""
    if out["mismatched"]:
        problems.append(f"{out['mismatched']} operations gave other outputs than the first")
    raw, ref = out["raw_s"], out["ref_s"]
    timed = correct_series(raw, ref)
    reported, raw_setup = setup
    metrics = {"setup_s": reported,
               "ops_per_s": len(timed) * files_per_op / sum(timed),
               **latency_metrics(timed),
               "peak_rss_mb": out["peak_rss_mb"]}
    raw_figures = {"setup_s": raw_setup, "ops_per_s": len(raw) * files_per_op / sum(raw),
                   **latency_metrics(raw), "ref_ms": median(ref) * 1000.0}
    layer = {}
    if args.trace:
        spans, counts = tracing.load_trace(out_trace_path(args))
        ops = layers.generation_ops(spans, counts, window=out["window"])
        if args.workload == "gen-corpus":
            passes = [(s[4], s[5]) for s in spans if s[3] == "evaluate.pass"
                      and out["window"][0] <= s[4] <= out["window"][1]]
            layer = layers.per_pass(ops, passes, files_per_op)
        else:
            layer = layers.per_document(ops)
        layer.update({"upstream_calls_per_query": 0, "resolver_runtime.upstream_calls": 0,
                      "engine.pools_created": 0, "service.response_bytes": 0,
                      "resolver_runtime.upstream_bytes": 0})
    return {"metrics": metrics, "raw": raw_figures, "layers": layer, "problems": problems,
            "attempted": out["attempted"], "failed": out["failed"], "samples": len(raw)}


# -- serving workloads ------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post(port: int, payload: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", "/graphql", body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def request_bytes(query: str, op_id: int) -> bytes:
    return json.dumps({"query": query, "extensions": {"benchOp": op_id}}).encode("utf-8")


def stub_get(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


class Serving:
    """The stub and the wrapper processes of one serve run."""

    def __init__(self, work: Path, stub_model: dict, spec: dict, service_ms: float,
                 first_query: str, trace_dir: Path | None):
        self.work = work
        self.trace_dir = trace_dir
        self.first_query = first_query
        self.wrappers = 0
        self.wrapper: subprocess.Popen | None = None
        model_path = work / "stub-model.json"
        model_path.write_text(json.dumps(stub_model), encoding="utf-8")
        self.stub = subprocess.Popen([python(), str(BENCH_DIR / "stub.py"), str(model_path),
                                      str(service_ms)],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.stub.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            stop(self.stub)
            raise BenchError("the stub upstream did not start")
        self.stub_port = int(line[1])
        self.spec_path = work / "spec.json"
        self.spec_path.write_bytes(inputs.spec_bytes(spec, f"http://127.0.0.1:{self.stub_port}"))

    def trace_path(self, n: int) -> Path | None:
        return self.trace_dir / f"wrapper-{n}.jsonl" if self.trace_dir else None

    def start_wrapper(self) -> float:
        """Spawn a wrapper as `oaswrap serve` does and time it until its
        first query is answered; the previous wrapper is stopped first."""
        self.stop_wrapper()
        port = free_port()
        trace = self.trace_path(self.wrappers)
        self.wrappers += 1
        log = open(self.work / f"wrapper-{self.wrappers}.log", "wb")
        payload = request_bytes(self.first_query, -1)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [python(), str(BENCH_DIR / "wrapper.py"), str(trace) if trace else "-",
             "serve", str(self.spec_path), "--host", "127.0.0.1", "--port", str(port)],
            env=program_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)
        log.close()
        self.wrapper = proc
        while True:
            try:
                status, body = post(port, payload)
                break
            except ConnectionRefusedError:
                if proc.poll() is not None:
                    raise BenchError("the wrapper exited before answering: "
                                     + self.wrapper_log()) from None
                time.sleep(0.002)
        elapsed = time.perf_counter() - start
        if status != 200 or b'"errors"' in body:
            raise BenchError(f"first query failed ({status}): {body[:300]!r}")
        self.port = port
        return elapsed

    def reference(self) -> float:
        """Time the reference loop inside the wrapper process."""
        self.wrapper.stdin.write(b"\n")
        self.wrapper.stdin.flush()
        return float(self.wrapper.stdout.readline())

    def wrapper_log(self) -> str:
        return (self.work / f"wrapper-{self.wrappers}.log").read_text(errors="replace")[-2000:]

    def stop_wrapper(self) -> None:
        if self.wrapper is not None:
            stop(self.wrapper, signal.SIGINT)
            self.wrapper = None

    def close(self) -> None:
        self.stop_wrapper()
        stop(self.stub)


def closed_loop(port: int, seconds: float, make_round, reference, first_id: int,
                min_samples: int = MIN_SAMPLES) -> list[tuple]:
    """One client sends rounds of queries back to back until, at the end of
    a round, the run length has passed and min_samples queries are done.
    make_round() gives a list of (query text, check key). Before each
    query the wrapper process times the reference loop while it is idle."""
    records = []
    start = time.perf_counter()
    while True:
        for query, key in make_round():
            op_id = first_id + len(records)
            payload = request_bytes(query, op_id)
            ref = reference()
            t0 = time.perf_counter()
            status, body = post(port, payload)
            latency = time.perf_counter() - t0
            records.append((op_id, key, status, body, latency, ref))
        if time.perf_counter() - start >= seconds and len(records) >= min_samples:
            return records


def serve_run(args, work: Path, trace: Path | None, workload: str) -> dict:
    if workload == "serve-fanout":
        model = inputs.make_fanout(args.seed)
        stub_model = inputs.fanout_stub_model(model)
        first = (f'{{ viewerBenchKey(apiKey: "{model["api_key"]}") '
                 f'{{ company(companyId: "{next(iter(model["companies"]))}") '
                 f'{{ companyId }} }} }}')
    else:
        model = inputs.make_wide(args.seed)
        stub_model = inputs.wide_stub_model(model)
        first = model["queries"][0]["query"]
    trace_dir = None
    if trace:
        trace_dir = work / "traces"
        trace_dir.mkdir()
    serving = Serving(work, stub_model, model["spec"], SERVICE_MS[workload], first, trace_dir)
    try:
        result = _serve_measure(args, serving, model, workload, trace_dir)
    finally:
        serving.close()
    if trace:
        shutil.copyfile(serving.trace_path(serving.wrappers - 1), trace)
    return result


def _serve_measure(args, serving: Serving, model: dict, workload: str,
                   trace_dir: Path | None) -> dict:
    reported_setup, raw_setup = setup_times(serving.start_wrapper)
    sent_mutations: list[dict] = []
    expected: dict = {}

    if workload == "serve-fanout":
        for n, read in enumerate(model["reads"]):
            expected[f"read{n}"] = read["expected"]
        reads = [(read["query"], f"read{n}") for n, read in enumerate(model["reads"])]

        def make_round():
            qid = len(sent_mutations)
            mutation = inputs.fanout_mutation(model, qid)
            sent_mutations.append({"id": qid, "payloads": mutation["payloads"]})
            expected[f"q{qid}"] = mutation["expected"]
            return reads + [(mutation["query"], f"q{qid}")]
    else:
        for n, query in enumerate(model["queries"]):
            expected[f"page{n}"] = query["expected"]

        def make_round():
            return [(q["query"], f"page{n}") for n, q in enumerate(model["queries"])]

    closed_loop(serving.port, 0.0, make_round, serving.reference, WARM_UP_IDS, 0)
    stub_get(serving.stub_port, "/__reset")
    warm_up_mutations = len(sent_mutations)
    records = closed_loop(serving.port, args.seconds, make_round, serving.reference, 0)
    del sent_mutations[:warm_up_mutations]
    rss = peak_rss_mb(serving.wrapper.pid)
    log = stub_get(serving.stub_port, "/__log")
    serving.stop_wrapper()

    problems = []
    seen: dict[tuple[str, bytes], int] = {}
    failed = 0
    for _, key, status, body, _, _ in records:
        if status != 200:
            failed += 1
        seen[(key, body)] = seen.get((key, body), 0) + 1
    for (key, body), times in seen.items():
        for problem in checks.response_problems(body, expected[key]):
            problems.append(f"{key} (x{times}): {problem}")
    if log["missing_key"]:
        problems.append(f"{log['missing_key']} upstream requests lacked the API key")
    problems += checks.check_mutation_posts(log["posts"], sent_mutations)

    raw = [r[4] for r in records]
    timed = correct_series(raw, [r[5] for r in records])
    ops_per_s = len(timed) / sum(timed)
    metrics = {"setup_s": reported_setup, "ops_per_s": ops_per_s, **latency_metrics(timed),
               "peak_rss_mb": rss}
    calls_per_query = log["requests"] / len(records)
    raw_figures = {"setup_s": raw_setup, "ops_per_s": len(raw) / sum(raw),
                   **latency_metrics(raw), "upstream_calls_per_query": calls_per_query,
                   "ref_ms": median([r[5] for r in records]) * 1000.0}
    layer = {}
    if trace_dir is not None:
        layer = _serve_layers(trace_dir, serving.wrappers, records)
        layer["upstream_calls_per_query"] = calls_per_query
    return {"metrics": metrics, "raw": raw_figures, "layers": layer, "problems": problems,
            "attempted": len(records), "failed": failed, "samples": len(records)}


def _serve_layers(trace_dir: Path, wrappers: int, records: list) -> dict:
    """Serving layers from the measured wrapper; generation layers from the
    start-up generate() of every timed wrapper start."""
    gen_ops = []
    for n in range(1, wrappers):
        spans, counts = tracing.load_trace(trace_dir / f"wrapper-{n}.jsonl")
        gen_ops += layers.generation_ops(spans, counts)
    spans, counts = tracing.load_trace(trace_dir / f"wrapper-{wrappers - 1}.jsonl")
    client = {r[0]: (r[4], len(r[3])) for r in records}
    result = layers.per_document(gen_ops)
    result.update(layers.per_query(layers.serving_ops(spans, counts, client)))
    return result


# -- entry point ---------------------------------------------------------------------------

RUNNERS = {
    "gen-dedup": gen_dedup,
    "gen-corpus": gen_corpus,
    "serve-fanout": lambda args, work, trace: serve_run(args, work, trace, "serve-fanout"),
    "serve-wide": lambda args, work, trace: serve_run(args, work, trace, "serve-wide"),
}


def out_trace_path(args) -> Path:
    return OUT / f"trace-{args.workload}.jsonl"


def preflight() -> None:
    """The benchmark measures the program of its own checkout, nothing else."""
    missing = [str(p) for p in (SRC / "oaswrap" / "__init__.py", MANIFEST, FIXTURE_CORPUS)
               if not p.exists()]
    if missing:
        raise BenchError(f"this checkout lacks {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the stub and wrapper processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        preflight()
        OUT.mkdir(exist_ok=True)
        work = OUT / f"work-{os.getpid()}"
        work.mkdir()
        try:
            trace = None
            if args.trace:
                trace = out_trace_path(args)
            result = RUNNERS[args.workload](args, work, trace)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for problem in result["problems"][:20]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not result["problems"]
    if args.trace:
        metrics = {name: {"value": float(result["layers"][name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": float(result["metrics"][name]), "unit": UNITS[name]}
                   for name in END_TO_END}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: {result['attempted']} attempted, {result['failed']} failed, "
          f"{result['samples']} timed samples, correct {correct}")
    for group in ("metrics", "layers", "raw"):
        for name, value in sorted(result[group].items()):
            print(f"  {group:7s} {name:42s} {value:14.4f}")
    record = {"correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, seed=args.seed, end_to_end=result["metrics"],
                        layers=result["layers"], raw=result["raw"],
                        problems=result["problems"]), indent=1), encoding="utf-8")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
