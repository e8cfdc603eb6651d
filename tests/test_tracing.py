"""The benchmark's tracer installs against the program: every name it patches
still exists where it looks, and every span the per-layer metrics read is
recorded. The tracer patches modules globally, so the check runs in a fresh
interpreter; bench/ is imported, never written (no bytecode)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import oaswrap

REPO = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys, threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, sys.argv[1])
import layers, tracing

tracer = tracing.Tracer()
tracing.install_generation(tracer)
tracing.install_serving(tracer)

from oaswrap import generator, service


class Stub(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        body = json.dumps({"id": "u1", "name": "Uma", "employerId": "c1"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


stub = ThreadingHTTPServer(("127.0.0.1", 0), Stub)
threading.Thread(target=stub.serve_forever, daemon=True).start()
root = json.loads(open(sys.argv[2], encoding="utf-8").read())
root["servers"] = [{"url": "http://127.0.0.1:%d" % stub.server_address[1]}]
wrapper = generator.generate(json.dumps(root).encode())
assert wrapper.ok, wrapper.report.error_message
graphql = service.GraphQLService(wrapper)
try:
    status, payload = graphql.handle_graphql({"query": '{ user(id: "u1") { id name } }'})
finally:
    graphql.executor.client.close()
    stub.shutdown()
    stub.server_close()
assert (status, payload) == (200, {"data": {"user": {"id": "u1", "name": "Uma"}}}), payload
wanted = {*layers.GEN_PHASES.values(), *layers.EXECUTE_CHILDREN, "generator.generate",
          "service.handle", "engine.execute"}
print(json.dumps(sorted(wanted - {span[3] for span in tracer.spans})))
"""


def test_the_benchmark_tracer_records_every_layer_it_reads():
    src = str(Path(oaswrap.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(REPO / "bench"),
         str(REPO / "tests" / "fixtures" / "corpus" / "clean_links.json")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
