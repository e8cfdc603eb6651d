"""Tests of the benchmark itself: its input generators are pure functions of
the seed, and each checker rejects a deliberately wrong output.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from common import correct_series, percentile, samples_beyond  # noqa: E402
from oaswrap import generate  # noqa: E402


def _all_bytes(seed: int) -> list[bytes]:
    fanout = inputs.make_fanout(seed)
    wide = inputs.make_wide(seed)
    out = [inputs.dumps(d) for d in inputs.make_dedup_documents(seed)]
    out += [data for _, data, _ in inputs.make_corpus_documents(seed)]
    out += [inputs.spec_bytes(fanout["spec"], "http://127.0.0.1:1"),
            json.dumps(inputs.fanout_stub_model(fanout)).encode(),
            json.dumps(fanout["reads"]).encode(),
            json.dumps(inputs.fanout_mutation(fanout, 7)).encode(),
            inputs.spec_bytes(wide["spec"], "http://127.0.0.1:1"),
            json.dumps(inputs.wide_stub_model(wide)).encode(),
            json.dumps(wide["queries"]).encode()]
    return out


def test_generators_repeat_bytes_for_a_seed():
    assert _all_bytes(3) == _all_bytes(3)


def test_seed_changes_the_inputs_but_not_the_work():
    first, second = _all_bytes(3), _all_bytes(4)
    fanout_spec = 12  # fixed names; the seed varies the data and the key
    assert [n for n, (a, b) in enumerate(zip(first, second)) if a == b] == [fanout_spec]
    assert ([inputs.dedup_expected(d) for d in inputs.make_dedup_documents(3)]
            == [inputs.dedup_expected(d) for d in inputs.make_dedup_documents(4)])
    assert ([ops for _, _, ops in inputs.make_corpus_documents(3)]
            == [ops for _, _, ops in inputs.make_corpus_documents(4)])


def _dedup_outputs(seed: int = 5):
    doc = inputs.make_dedup_documents(seed)[0]
    wrapper = generate(inputs.dumps(doc))
    out = {"path": "dedup_0.json", "outcome": wrapper.report.outcome,
           "warnings": wrapper.report.warning_counts(), "sdl": wrapper.sdl,
           "operations_total": wrapper.report.stats.operations_total}
    return out, inputs.dedup_expected(doc)


def test_dedup_check_accepts_the_program_and_rejects_a_merged_type():
    out, expected = _dedup_outputs()
    assert checks.check_dedup([out], [expected]) == []

    # Merge enum Kind2 into Kind: one type fewer than distinct structures.
    merged = re.sub(r"enum Kind2 \{[^}]*\}\n*", "", out["sdl"])
    merged = re.sub(r": Kind2\b", ": Kind", merged)
    assert merged != out["sdl"]
    problems = checks.check_dedup([dict(out, sdl=merged)], [expected])
    assert any("distinct structures" in p for p in problems)


def test_dedup_check_rejects_a_wrong_operation_count_and_invalid_sdl():
    out, expected = _dedup_outputs()
    assert checks.check_dedup([dict(out, operations_total=1)], [expected])
    broken = out["sdl"].replace(": Kind2", ": Missing", 1)
    assert checks.check_dedup([dict(out, sdl=broken)], [expected])


def _corpus_case():
    manifest = {"files": {"clean_x.json": {"outcome": "success", "warnings": {}},
                          "error_y.json": {"outcome": "error", "error_kind": "InvalidOas"}}}
    sdl = "type Query {\n  a: String\n}\n"
    outputs = [
        {"outcome": "success", "sdl": sdl, "operations_total": 1,
         "file": {"name": "clean_x.json", "outcome": "success", "error_kind": None,
                  "warnings": {}, "strict_outcome": "success"}},
        {"outcome": "error", "sdl": None, "operations_total": 0,
         "file": {"name": "error_y.json", "outcome": "error", "error_kind": "InvalidOas",
                  "warnings": {}, "strict_outcome": "error"}},
        {"outcome": "success", "sdl": sdl, "operations_total": 4,
         "file": {"name": "synthetic_00.json", "outcome": "success", "error_kind": None,
                  "warnings": {}, "strict_outcome": "success"}},
    ]
    return outputs, manifest, {"synthetic_00.json": 4}


def test_corpus_check_rejects_a_wrong_manifest_outcome():
    outputs, manifest, synthetic = _corpus_case()
    assert checks.check_corpus(outputs, manifest, synthetic) == []

    wrong = copy.deepcopy(outputs)
    wrong[1]["file"].update(outcome="success", error_kind=None, strict_outcome="success")
    assert any("manifest" in p for p in checks.check_corpus(wrong, manifest, synthetic))

    wrong = copy.deepcopy(outputs)
    wrong[1]["file"]["error_kind"] = "MissingRef"
    assert checks.check_corpus(wrong, manifest, synthetic)


def test_corpus_check_rejects_incoherent_strict_mode_and_lost_operations():
    outputs, manifest, synthetic = _corpus_case()
    wrong = copy.deepcopy(outputs)
    wrong[0]["file"]["strict_outcome"] = "error"
    assert any("strict" in p for p in checks.check_corpus(wrong, manifest, synthetic))

    wrong = copy.deepcopy(outputs)
    wrong[2]["operations_total"] = 3
    assert checks.check_corpus(wrong, manifest, synthetic)


def test_response_check_rejects_a_renamed_field_and_errors():
    expected = inputs.make_wide(2)["queries"][0]["expected"]
    body = json.dumps(expected).encode()
    assert checks.response_problems(body, expected) == []

    renamed = body.replace(b'"recordId"', b'"record_id"', 1)
    assert checks.response_problems(renamed, expected)
    with_errors = json.dumps(dict(expected, errors=[{"message": "x"}])).encode()
    assert checks.response_problems(with_errors, expected)


def test_mutation_check_rejects_dropped_reordered_and_extra_posts():
    model = inputs.make_fanout(2)
    sent = []
    posts = []
    for qid in (4, 9):
        mutation = inputs.fanout_mutation(model, qid)
        sent.append({"id": qid, "payloads": mutation["payloads"]})
        posts += [{"path": "/users", "body": p} for p in mutation["payloads"]]
    assert checks.check_mutation_posts(posts, sent) == []

    # Order is checked within each mutation query, not across queries.
    interleaved = [posts[0], posts[3], posts[1], posts[4], posts[2], posts[5]]
    assert checks.check_mutation_posts(interleaved, sent) == []

    assert checks.check_mutation_posts(posts[:2] + posts[3:], sent)
    assert checks.check_mutation_posts([posts[1], posts[0]] + posts[2:], sent)
    assert checks.check_mutation_posts(posts + [posts[0]], sent)
    renamed = copy.deepcopy(posts)
    renamed[0]["body"]["firstName"] = renamed[0]["body"].pop("first_name")
    assert checks.check_mutation_posts(renamed, sent)


def test_correction_and_percentiles():
    # Each operation is scaled by the mean of the references around it.
    assert correct_series([1.0, 3.0], [2.0, 4.0, 1.0], nominal=2.0) == [2.0 / 3.0, 2.4]
    assert correct_series([1.0, 1.0], [2.0, 4.0], nominal=2.0) == [2.0 / 3.0, 0.5]
    values = [float(n) for n in range(1, 201)]
    assert percentile(values, 0.95) == 190.0
    assert samples_beyond(200, 0.95) == 10
