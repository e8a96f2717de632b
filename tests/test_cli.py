"""Scenario loading, the check/derive commands, and report determinism."""

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from twistcheck import scenario
from twistcheck.cli import main
from twistcheck.expr import sample_points
from twistcheck.scenario import ScenarioError, derive, load, loads, run


def bundled(name: str) -> str:
    return str(resources.files("twistcheck") / "scenarios" / name)


def write_scenario(tmp_path, doc) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_bundled_scenarios_pass(tmp_path):
    for name in ("std-r3.json", "twisted-r3.json"):
        out = tmp_path / (name + "l")
        code = main(["check", bundled(name), "--json", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records and all(r["verdict"] != "NonZero" for r in records)
        assert all(set(r) == {"name", "verdict", "max_residual", "assumptions", "ms"}
                   for r in records)


def test_report_determinism_modulo_timing(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.jsonl"
        assert main(["check", bundled("twisted-r3.json"), "--json", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for r in records:
            r.pop("ms")
        outs.append(json.dumps(records, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("option, value", [("--seed", "5"), ("--samples", "3"),
                                           ("--tol", "1e-3")])
def test_check_has_no_sampling_options(capsys, option, value):
    # every verdict is exact and every witness is found at fixed points
    with pytest.raises(SystemExit) as exit_:
        main(["check", bundled("std-r3.json"), option, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def broken_std_r3(structure: str, field: str, value) -> dict:
    """std-r3 with "pair" replaced by the pair groupoid it names, written out
    as a groupoid, and one field (a dotted path) of one structure replaced."""
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    frag = derive(loads(json.dumps(doc)), "std-contact", "pair_groupoid")
    doc["charts"].update(frag["charts"])
    doc["structures"]["pair"] = frag["structures"]["std-contact.pair_groupoid"]
    owner = doc["structures"][structure]
    *path, key = field.split(".")
    for part in path:
        owner = owner[part]
    owner[key] = value
    return doc


WITNESS = re.compile(r"\[FAIL\] [^:]*: NonZero\(witness=\(([^)]*)\)")


def witnesses(lines: list[str]) -> list[tuple[float, ...]]:
    return [tuple(float(v) for v in m.group(1).split(", "))
            for m in map(WITNESS.match, lines) if m]


# (check kind, target, chart of its first failing residual) -> the change to
# std-r3 that fails it
_BROKEN = {
    ("poissonization", "std-jacobi", "R3xs"): ("std-jacobi", "lam", {"d/dx^d/dy": "z"}),
    ("induced_base", "pair", "R3"): ("pair", "omega0", {"dx^dy": "1"}),
    ("suspension", "pair", "Pair(R3)xs"): ("pair", "omega", {"dx1^dt": "1"}),
    ("suspension", "pair", "Pair2(R3)xs"): ("pair", "theta", {"dz1": "1", "dx1": "-y1",
                                                               "dt": "2"}),
    ("algebroid_morphism", "pair", "Pair(R3)"): ("pair", "omega0", {"dx^dy": "1"}),
    ("groupoid_properties", "pair", "Pair(R3)"): ("pair", "omega", {"dx1^dy1": "1"}),
    ("multiplicativity", "pair", "Pair2(R3)"): ("pair", "omega", {"dx1^dy1": "1"}),
}


def record_reports(monkeypatch) -> list:
    """The check reports of the runs that follow, in order."""
    reports = []
    original = scenario._report_outcome

    def recording(name, report, start):
        reports.append(report)
        return original(name, report, start)

    monkeypatch.setattr(scenario, "_report_outcome", recording)
    return reports


@pytest.mark.parametrize("kind, target, chart", list(_BROKEN))
def test_samples_are_drawn_on_the_residual_chart(monkeypatch, kind, target, chart):
    # one witness per failing item, a sample point of the chart of its
    # residual
    reports = record_reports(monkeypatch)
    doc = broken_std_r3(*_BROKEN[kind, target, chart])
    doc["checks"] = [{"check": kind, "target": target}]
    (outcome,) = run(loads(json.dumps(doc)))
    assert not outcome.passed and outcome.verdict == "NonZero"
    (report,) = reports
    searched = [item.verdict for item in report.items if item.verdict.residual is not None]
    assert searched[0].residual.chart.name == chart
    assert [v.witness for v in searched] == witnesses(outcome.lines)
    for v in searched:
        assert v.witness in sample_points(v.residual.chart), v.residual.chart.name
    assert outcome.max_residual > 0


def e_tilt_doc(checks: list[dict]) -> dict:
    """E = d/dz + d/dx on the standard Jacobi bivector: [E, Lambda] = 0, but
    the trivector identity fails (residual -2y d/dx^d/dy^d/dz)."""
    return {"charts": {"R3": ["x", "y", "z"]},
            "structures": {"j": {"type": "jacobi", "chart": "R3",
                                 "lam": {"d/dx^d/dy": "1", "d/dy^d/dz": "-y"},
                                 "e": {"d/dz": "1", "d/dx": "1"}}},
            "checks": checks}


def test_checks_that_share_a_structure_find_their_own_witnesses(monkeypatch):
    # both checks read the one residual the structure computes on the first
    # of them; each must still get verdicts of its own, so that its witness
    # search is its own and falls in its own ms
    reports = record_reports(monkeypatch)
    check = {"check": "twisted_jacobi", "target": "j"}
    sc = loads(json.dumps(e_tilt_doc([check, check])))
    first, second = run(sc)
    (fresh,) = run(loads(json.dumps(e_tilt_doc([check]))))
    assert not first.passed and first.lines == second.lines == fresh.lines
    (witness,) = witnesses(first.lines)
    assert witness in sample_points(sc.charts["R3"])
    mine, theirs = reports[0].items[0].verdict, reports[1].items[0].verdict
    assert mine.residual is theirs.residual and mine is not theirs


def test_empty_check_list_passes(tmp_path):
    path = write_scenario(tmp_path, {"charts": {}, "structures": {}, "checks": []})
    assert main(["check", path]) == 0


def test_degenerate_contact_fails(tmp_path):
    doc = {
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"flat": {"type": "contact", "chart": "R3",
                                "theta": {"dz": "1"}, "omega": {}}},
        "checks": [{"check": "contact", "target": "flat"}],
    }
    assert main(["check", write_scenario(tmp_path, doc)]) == 1


def test_precondition_failure_reported_and_suite_continues(tmp_path):
    doc = {
        "charts": {"R2": ["x", "y"]},
        "structures": {
            "even": {"type": "contact", "chart": "R2", "theta": {"dx": "1"}, "omega": {}},
            "fine": {"type": "jacobi", "chart": "R2",
                     "lam": {"d/dx^d/dy": "1"}, "e": {}, "omega": {}},
        },
        "checks": [
            {"check": "contact", "target": "even"},
            {"check": "twisted_jacobi", "target": "fine"},
        ],
    }
    sc = load(write_scenario(tmp_path, doc))
    outcomes = run(sc)
    assert outcomes[0].verdict == "Error" and not outcomes[0].passed
    assert outcomes[1].passed


def test_schema_errors_are_positioned():
    with pytest.raises(ScenarioError) as err:
        loads('{"charts": {"R3": ["x", "x", "z"]}}')
    assert "charts.R3" in str(err.value)
    sc = loads(json.dumps({
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"j": {"type": "jacobi", "chart": "R3",
                             "lam": {"d/dy^d/dx": "1"}, "e": {}, "omega": {}}},
        "checks": [{"check": "twisted_jacobi", "target": "j"}],
    }))
    with pytest.raises(ScenarioError) as err:
        run(sc)
    assert "structures.j.lam" in str(err.value)


def test_unresolved_reference():
    sc = loads(json.dumps({
        "charts": {},
        "structures": {},
        "checks": [{"check": "contact", "target": "ghost"}],
    }))
    with pytest.raises(ScenarioError) as err:
        run(sc)
    assert "ghost" in str(err.value)


def test_derive_jacobi_round_trip(tmp_path):
    # jacobi derivation re-parses and re-verifies
    sc = load(bundled("std-r3.json"))
    frag = derive(sc, "std-contact", "jacobi")
    doc = {
        "charts": frag["charts"],
        "structures": frag["structures"],
        "checks": [{"check": "twisted_jacobi", "target": "std-contact.jacobi"},
                   {"check": "poissonization", "target": "std-contact.jacobi"}],
    }
    assert main(["check", write_scenario(tmp_path, doc)]) == 0


def test_derive_poissonize_round_trip(tmp_path):
    sc = load(bundled("twisted-r3.json"))
    frag = derive(sc, "twisted-jacobi", "poissonize")
    (sname,) = frag["structures"].keys()
    sdef = frag["structures"][sname]
    assert sdef["type"] == "homogeneous"
    assert frag["charts"][sdef["chart"]] == ["x", "y", "z", "s"]
    doc = {
        "charts": frag["charts"],
        "structures": frag["structures"],
        "checks": [{"check": "homogeneous", "target": sname}],
    }
    assert main(["check", write_scenario(tmp_path, doc)]) == 0


def test_derived_structures_re_parse_and_render_the_same():
    # every construction that prints a structure type, applied to every
    # structure of the bundled scenarios that it accepts
    fragments = []
    for name in ("std-r3.json", "twisted-r3.json"):
        sc = load(bundled(name))
        for obj in list(sc.structures):
            for construction in ("jacobi", "poissonize", "pair_groupoid", "induced_base"):
                try:
                    fragments.append(derive(sc, obj, construction))
                except ScenarioError as exc:
                    assert "needs" in str(exc)
    assert len(fragments) == 10
    assert {s["type"] for f in fragments for s in f["structures"].values()} == {
        "jacobi", "homogeneous", "groupoid"}
    for frag in fragments:
        (sname, sdef), = frag["structures"].items()
        again = loads(json.dumps(frag))
        built = scenario._resolve(again, sname, "structures")
        assert scenario.render_structure(built, dict(again.charts)) == sdef


def test_a_derived_negated_power_reads_back_as_itself():
    # Lambda~ = -x^2 e^{-s} d/dx^d/dy is printed "-x^2*exp(-s)", which must
    # read back as -(x^2) e^{-s}, not (-x)^2 e^{-s}; the input is written
    # without a unary minus, so only the printed document is read back
    doc = {"charts": {"R3": ["x", "y", "z"]},
           "structures": {"j": {"type": "jacobi", "chart": "R3",
                                "lam": {"d/dx^d/dy": "0 - x^2"}, "e": {}, "omega": {}}},
           "checks": []}
    frag = derive(loads(json.dumps(doc)), "j", "poissonize")
    (sname, sdef), = frag["structures"].items()
    assert sdef["lam"] == {"d/dx^d/dy": "-x^2*exp(-s)"}
    again = loads(json.dumps(frag))
    built = scenario._resolve(again, sname, "structures")
    assert scenario.render_structure(built, dict(again.charts)) == sdef


def test_derive_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["derive", bundled("twisted-r3.json"), "twisted-contact",
                     "jacobi"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_runs_as_module():
    import twistcheck

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(twistcheck.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcheck", "derive", bundled("std-r3.json"),
         "std-contact", "jacobi"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["structures"]["std-contact.jacobi"]["e"] == {"d/dz": "1"}


def run_into_a_closed_pipe(args: list[str], unbuffered: bool) -> subprocess.CompletedProcess:
    """``python -m twistcheck *args`` with stdout a pipe whose reader has
    closed its end, as with `| head`: unbuffered, the first print meets the
    closed pipe; buffered, the flush does."""
    import twistcheck

    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(twistcheck.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "twistcheck", *args], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("doc, want", [
    pytest.param(bundled("twisted-r3.json"), 0, id="twisted-r3"),
    pytest.param(str(Path(__file__).parent / "data" / "apath-fail-r3.json"), 1,
                 id="apath-fail-r3")])
def test_a_closed_stdout_keeps_the_verdict_and_the_json_report(tmp_path, doc, want,
                                                               unbuffered):
    # `twistcheck check ... --json out.jsonl | head -2`: the report is
    # written and the exit status is the verdict's
    out = tmp_path / "out.jsonl"
    proc = run_into_a_closed_pipe(["check", doc, "--json", str(out)], unbuffered)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr and "Broken pipe" not in proc.stderr, proc.stderr
    assert main(["check", doc, "--json", str(tmp_path / "in-process.jsonl")]) == want
    strip = [[{k: v for k, v in json.loads(line).items() if k != "ms"}
              for line in path.read_text().splitlines()]
             for path in (out, tmp_path / "in-process.jsonl")]
    assert strip[0] and strip[0] == strip[1]


@pytest.mark.parametrize("unbuffered", [True, False])
def test_derive_into_a_closed_stdout_exits_quietly(unbuffered):
    # `twistcheck derive ... pair_groupoid | head -c 0`
    proc = run_into_a_closed_pipe(
        ["derive", bundled("std-r3.json"), "std-contact", "pair_groupoid"], unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_runs_without_numpy():
    # the package needs only the standard library: importing it, running both
    # bundled scenarios and a derive never loads numpy
    import twistcheck

    script = "\n".join([
        "import sys",
        "import twistcheck",
        "from twistcheck import scenario",
        "from twistcheck.cli import main",
        "for path in sys.argv[1:]:",
        "    scenario.run(scenario.load(path))",
        "assert main(['derive', sys.argv[1], 'std-contact', 'pair_groupoid']) == 0",
        "print('numpy' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(twistcheck.__file__).parent.parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", script, bundled("std-r3.json"), bundled("twisted-r3.json")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_missing_file_is_reported(capsys):
    assert main(["check", "/nonexistent/scenario.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_number_without_digit_is_a_scenario_error(tmp_path, capsys):
    doc = {
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"c": {"type": "contact", "chart": "R3",
                             "theta": {"dx": "-y*.", "dz": "1"}, "omega": {}}},
        "checks": [{"check": "contact", "target": "c"}],
    }
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "structures.c.theta" in err[0] and "a number needs a digit" in err[0]


@pytest.mark.parametrize("check, field", [
    # fields that no check kind reads
    ({"tol": 1e-9}, "tol"),
    ({"samples": 3}, "samples"),
    ({"seed": 5}, "seed"),
    ({"targets": "std-contact"}, "targets"),
    # fields of another kind
    ({"max": 1e-9}, "max"),
    ({"check": "twisted_jacobi", "target": "std-jacobi", "sections": []}, "sections"),
    ({"check": "anchor_residual", "target": "line-path", "atol": 1e-9}, "atol"),
    ({"check": "cocycle_integral", "target": "line-path", "expect": -1.0, "max": 1e-9},
     "max"),
    # limits, which no check reads
    ({"check": "anchor_residual", "target": "line-path", "max": -1e-6}, "max"),
    ({"check": "anchor_residual", "target": "line-path", "max": float("nan")}, "max"),
    ({"check": "cocycle_integral", "target": "line-path", "expect": -1.0,
      "atol": float("inf")}, "atol"),
])
def test_bad_or_unread_check_field_is_a_scenario_error(tmp_path, capsys, check, field):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "contact", "target": "std-contact", **check}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checks[0].{field}: "), err
    assert captured.out == ""


@pytest.mark.parametrize("expect", ["abc", True, None, float("nan"), "t + 1", [-1],
                                    float("inf")])
def test_bad_cocycle_expectation_is_a_scenario_error(tmp_path, capsys, expect):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "cocycle_integral", "target": "line-path", "expect": expect}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checks[0].expect: "), err
    assert captured.out == ""


@pytest.mark.parametrize("expect", [-1, -1.0, "exp(0) - 2", "-2/2"])
def test_cocycle_expectation_takes_any_finite_number(tmp_path, expect):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "cocycle_integral", "target": "line-path", "expect": expect}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 0


def test_each_apath_check_can_fail_through_a_document(tmp_path, capsys):
    # f = 2 doubles the anchor image f E = d/dz against the velocity of
    # gamma(t) = (0, 0, t); the integral of -<zeta, E> is -1, not 0
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["structures"]["line-path"]["f"] = "2"
    doc["checks"] = [{"check": "anchor_residual", "target": "line-path"},
                     {"check": "cocycle_integral", "target": "line-path", "expect": 0}]
    out = tmp_path / "report.jsonl"
    assert main(["check", write_scenario(tmp_path, doc), "--json", str(out)]) == 1
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["name"], r["verdict"]) for r in records] == [
        ("anchor_residual(line-path)", "NonZero"), ("cocycle_integral(line-path)", "NonZero")]
    assert all(abs(r["max_residual"] - 1.0) < 1e-9 for r in records)
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    failing = [line for line in lines if line.startswith("[FAIL] ") and "(line-path)" not in line]
    assert [line.split(":")[0] for line in failing] == [
        "[FAIL] anchor residual d/dz", "[FAIL] cocycle integral = 0"], lines
    assert all(line.endswith("leading term: -1)") for line in failing), failing


@pytest.mark.parametrize("expect, shown, term", [
    (-0.5, "-1/2", "-1/2"), ("exp(1)", "exp(1)", "-exp(1)")])
def test_a_wrong_cocycle_expectation_fails_on_its_exact_difference(tmp_path, capsys, expect,
                                                                  shown, term):
    # the integral along line-path is exactly -1
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "cocycle_integral", "target": "line-path", "expect": expect}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 1
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    assert lines[1].startswith(f"[FAIL] cocycle integral = {shown}: NonZero(")
    assert lines[1].endswith(f"leading term: {term})"), lines


@pytest.mark.parametrize("check, name, field", [
    ("anchor_residual", "line-path", "n"),
    ("anchor_residual", "line-path", "max"),
    ("contact", "std-contact", "lam"),
    ("contact", "std-contact", "n"),
    ("twisted_jacobi", "std-jacobi", "theta"),
    ("groupoid_axioms", "pair", "omega"),
])
def test_unread_structure_field_is_a_scenario_error(tmp_path, capsys, check, name, field):
    # a field that the structure's type does not read, such as an A-path's
    # "n", is reported, not ignored
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["structures"][name][field] = 64
    doc["checks"] = [{"check": check, "target": name}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: structures.{name}.{field}: not a field of a {doc['structures'][name]['type']}"
        " structure"]
    assert captured.out == ""


def test_a_structure_no_check_names_is_still_validated(tmp_path, capsys):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["structures"]["line-path"]["n"] = 64
    doc["checks"] = [{"check": "contact", "target": "std-contact"}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: structures.line-path.n: not a field of a apath structure"]
    assert captured.out == ""


PAIR = "std-contact.pair_groupoid"


@pytest.mark.parametrize("check, target, owner, key, value, path", [
    ("anchor_residual", "line-path", "structure", "n", "x", "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "n", None, "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "n", "64", "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "n", 64.9, "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "n", 0, "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "gamma", 5, "structures.line-path.gamma"),
    ("anchor_residual", "line-path", "structure", "zeta", "001", "structures.line-path.zeta"),
    ("algebroid", "std-jacobi", "check", "sections", 5, "checks[0].sections"),
    ("algebroid", "std-jacobi", "check", "sections", [5], "checks[0].sections[0]"),
    ("groupoid_axioms", PAIR, "structure", "maps", 5, f"structures.{PAIR}.maps"),
    ("groupoid_axioms", PAIR, "maps", "eps", 7, f"structures.{PAIR}.maps.eps"),
    ("contact", "std-contact", "check", "check", ["contact"], "checks[0]"),
    ("twisted_jacobi", "std-jacobi", "structure", "chart", ["R3"], "structures.std-jacobi.chart"),
    ("contact", "std-contact", "structures", "std-contact", 5, "structures.std-contact"),
    ("anchor_residual", "line-path", "structure", "param", ["t"], "structures.line-path.param"),
    # last, so that the index-based ids of the rows above stay as they were
    ("anchor_residual", "line-path", "structure", "n", 6, "structures.line-path.n"),
    ("anchor_residual", "line-path", "structure", "n", 7, "structures.line-path.n"),
])
def test_malformed_field_is_a_scenario_error(tmp_path, capsys, check, target, owner, key,
                                             value, path):
    # each stopped with a traceback and exit 1, or was reported at another
    # path, before it was validated
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    frag = derive(loads(json.dumps(doc)), "std-contact", "pair_groupoid")
    doc["charts"].update(frag["charts"])
    doc["structures"].update(frag["structures"])
    doc["checks"] = [{"check": check, "target": target}]
    owners = {"check": doc["checks"][0], "structure": doc["structures"][target],
              "structures": doc["structures"]}
    owners["maps"] = owners["structure"].get("maps")
    owners[owner][key] = value
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    assert captured.out == ""
