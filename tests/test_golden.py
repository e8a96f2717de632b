"""Golden verdicts of the bundled scenarios.

The data file pins, for every check of ``std-r3`` and ``twisted-r3`` and
of the test documents ``tests/data/conformal-r3.json`` and
``tests/data/apath-fail-r3.json``, whose exact A-path certificates fail
(keys ``<name>@0``), what a refactor must not change: name, verdict, pass flag,
assumptions and item lines exactly, and the maximal residual to a relative
1e-9.  Timings are left out.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

only when a verdict is meant to change, and say why in CHANGES.md.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from twistcheck.scenario import load, run

DATA = Path(__file__).parent / "data" / "golden_verdicts.json"
SCENARIOS = ("std-r3", "twisted-r3", "conformal-r3", "apath-fail-r3")
TEST_DOCUMENTS = ("conformal-r3", "apath-fail-r3")


def verdict_records(name: str) -> list[dict]:
    root = DATA.parent if name in TEST_DOCUMENTS else resources.files("twistcheck") / "scenarios"
    sc = load(str(root / f"{name}.json"))
    return [
        {
            "name": o.name,
            "verdict": o.verdict,
            "passed": o.passed,
            "assumptions": o.assumptions,
            "lines": o.lines,
            "max_residual": o.max_residual,
        }
        for o in run(sc)
    ]


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_verdicts(name):
    want = json.loads(DATA.read_text())[f"{name}@0"]
    got = verdict_records(name)
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        residual = w.pop("max_residual")
        assert g.pop("max_residual") == pytest.approx(residual, rel=1e-9), g["name"]
        assert g == w


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    doc = {f"{n}@0": verdict_records(n) for n in SCENARIOS}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
