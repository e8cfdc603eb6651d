"""Every fixture generation's SDL and report, pinned byte for byte.

``fixtures/sdl_golden.json`` maps ``"<fixture>|<strict>|<casing>"`` to the
SDL (or null) and the ``finalize_report`` JSON of that generation. A change
that moves any of them must show up here and be re-pinned on purpose.
"""

from __future__ import annotations

import json

from conftest import CORPUS_DIR, FIXTURES

from oaswrap.generator import GenerationOptions, generate
from oaswrap.report import finalize_report

GOLDEN_PATH = FIXTURES / "sdl_golden.json"


def _generation(name: str, strict: bool, casing: str) -> dict:
    wrapper = generate(CORPUS_DIR / name, GenerationOptions(strict=strict, casing=casing),
                       source_name=name)
    report = json.loads(finalize_report(wrapper.report))
    report.pop("timings_ms", None)
    return {"sdl": wrapper.sdl, "report": report}


def test_fixture_generations_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    actual = {f"{path.name}|{strict}|{casing}": _generation(path.name, strict, casing)
              for path in sorted(CORPUS_DIR.iterdir())
              for strict in (False, True) for casing in ("camel", "preserve")}
    assert sorted(actual) == sorted(golden)
    for key in sorted(golden):
        for part in ("sdl", "report"):
            assert actual[key][part] == golden[key][part], f"first difference: {key} {part}"
