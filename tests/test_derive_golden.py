"""Golden output of ``twistcheck derive``.

The data file pins, for every structure of the bundled scenarios and of
the test documents ``conformal-r3`` and ``tilted-quotient-r3`` (exp-weighted
and quotient inputs, whose printed forms depend most on the order in which
terms are summed) and every construction, the exit code, standard output
and standard error of ``twistcheck derive``; error exits are pinned too.
Derived expressions are printed with their coefficients, so this is where a
change of the number types inside the exact core would show.  Regenerate
the file with

    PYTHONPATH=src python tests/test_derive_golden.py

only when an output is meant to change, and say why in CHANGES.md.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from twistcheck.cli import main

DATA = Path(__file__).parent / "data" / "golden_derive.json"
SCENARIOS = ("std-r3", "twisted-r3", "conformal-r3", "tilted-quotient-r3")
TEST_DOCUMENTS = ("conformal-r3", "tilted-quotient-r3")
CONSTRUCTIONS = ("jacobi", "poissonize", "pair_groupoid", "induced_base")


def scenario_path(name: str) -> str:
    root = DATA.parent if name in TEST_DOCUMENTS else resources.files("twistcheck") / "scenarios"
    return str(root / f"{name}.json")


def cases() -> list[tuple[str, str, str]]:
    out = []
    for name in SCENARIOS:
        doc = json.loads(Path(scenario_path(name)).read_text())
        for obj in doc["structures"]:
            out.extend((name, obj, c) for c in CONSTRUCTIONS)
    return out


def derive_output(name: str, obj: str, construction: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["derive", scenario_path(name), obj, construction])
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_case_list_matches_data():
    want = json.loads(DATA.read_text())
    assert sorted(want) == sorted("/".join(c) for c in cases())
    assert len(want) == 40


@pytest.mark.parametrize("case", cases(), ids="/".join)
def test_golden_derive(case):
    want = json.loads(DATA.read_text())["/".join(case)]
    assert derive_output(*case) == want


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    doc = {"/".join(c): derive_output(*c) for c in cases()}
    DATA.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
