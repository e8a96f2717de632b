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
from twistcheck.jacobi import check_twisted_jacobi
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
        assert main(["check", bundled("twisted-r3.json"), "--seed", "5",
                     "--json", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        for r in records:
            r.pop("ms")
        outs.append(json.dumps(records, sort_keys=True))
    assert outs[0] == outs[1]


def test_a_passing_report_does_not_depend_on_the_sampling_settings(tmp_path):
    # samples, seed and tol only shape the witnesses of failing items
    for name in ("std-r3.json", "twisted-r3.json"):
        records = []
        for options in ([], ["--seed", "5", "--samples", "3", "--tol", "1e-3"]):
            out = tmp_path / f"{name}.{len(options)}.jsonl"
            assert main(["check", bundled(name), "--json", str(out), *options]) == 0
            records.append([{k: v for k, v in json.loads(line).items() if k != "ms"}
                            for line in out.read_text().splitlines()])
        assert records[0] == records[1]


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


@pytest.mark.parametrize("kind, target, chart", list(_BROKEN))
def test_samples_are_drawn_on_the_residual_chart(monkeypatch, kind, target, chart):
    # one witness search per failing item, on the chart of its residual,
    # with the run's sample count and seed
    drawn = []
    original = scenario.sample_points

    def recording(ch, *args, **kwargs):
        drawn.append((ch.name, original(ch, *args, **kwargs)))
        return drawn[-1][1]

    monkeypatch.setattr(scenario, "sample_points", recording)
    doc = broken_std_r3(*_BROKEN[kind, target, chart])
    doc["checks"] = [{"check": kind, "target": target}]
    sc = loads(json.dumps(doc))
    for options, count in (({"samples": 3, "seed": 5}, 3), ({"seed": 5}, 25)):
        drawn.clear()
        (outcome,) = run(sc, **options)
        assert not outcome.passed and outcome.verdict == "NonZero"
        found = witnesses(outcome.lines)
        assert drawn[0][0] == chart and len(drawn) == len(found) > 0
        for (name, points), witness in zip(drawn, found):
            assert len(points) == count and witness in points, name
        assert outcome.max_residual > 0


def test_a_witness_is_drawn_with_the_run_seed_and_count():
    # eps moves the unit off t = 0, so r after eps = x + 1/3 on the base R3;
    # the witness is the first seed-5 point of R3, not one of the base
    # chart's default points
    doc = broken_std_r3("pair", "maps.eps", ["x", "y", "z", "x", "y", "z", "x + 1/3"])
    doc["checks"] = [{"check": "groupoid_properties", "target": "pair"}]
    sc = loads(json.dumps(doc))
    (outcome,) = run(sc, samples=3, seed=5)
    line = next(l for l in outcome.lines if l.startswith("[FAIL] (i) r after eps = 0: "))
    (witness,) = witnesses([line])
    points = scenario.sample_points(sc.charts["R3"], 3, 5)
    assert witness == points[0]
    assert outcome.max_residual >= abs(points[0][0] + 1 / 3)
    # the check's tol shapes the search alone: no point clears 10 times
    # the largest term, so there is no witness, and the item still fails
    doc["checks"][0]["tol"] = 10.0
    (outcome,) = run(loads(json.dumps(doc)), samples=3, seed=5)
    assert not outcome.passed and outcome.max_residual == 0.0
    assert "[FAIL] (i) r after eps = 0: NonZero(leading term: x)" in outcome.lines


def e_tilt_doc(checks: list[dict]) -> dict:
    """E = d/dz + d/dx on the standard Jacobi bivector: [E, Lambda] = 0, but
    the trivector identity fails (residual -2y d/dx^d/dy^d/dz)."""
    return {"charts": {"R3": ["x", "y", "z"]},
            "structures": {"j": {"type": "jacobi", "chart": "R3",
                                 "lam": {"d/dx^d/dy": "1", "d/dy^d/dz": "-y"},
                                 "e": {"d/dz": "1", "d/dx": "1"}}},
            "checks": checks}


def test_checks_that_share_a_structure_find_their_own_witnesses():
    # both checks read the one residual the structure computes on the first
    # of them; each must still search its own sample points, in both runs
    sc = loads(json.dumps(e_tilt_doc([{"check": "twisted_jacobi", "target": "j", "samples": 3},
                                      {"check": "twisted_jacobi", "target": "j"}])))
    found = []
    for seed in (5, 0):
        for outcome, count in zip(run(sc, seed=seed), (3, 25)):
            alone = e_tilt_doc([{"check": "twisted_jacobi", "target": "j"}])
            (fresh,) = run(loads(json.dumps(alone)), samples=count, seed=seed)
            assert not outcome.passed and outcome.lines == fresh.lines
            (witness,) = witnesses(outcome.lines)
            assert witness in scenario.sample_points(sc.charts["R3"], count, seed)
            found.append(witness)
    assert len(set(found)) == 4
    # and each call's verdicts are its own: locating one leaves the other
    j = sc.structures["j"]
    first, second = (check_twisted_jacobi(j).items[0].verdict for _ in range(2))
    points = [scenario.sample_points(j.chart, count, seed) for count, seed in ((3, 5), (25, 0))]
    first.locate(points[0])
    second.locate(points[1])
    assert first.witness == found[0] and second.witness == found[3]


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


def test_derive_reeb_and_round_trip(tmp_path, capsys):
    code = main(["derive", bundled("std-r3.json"), "std-contact", "reeb"])
    assert code == 0
    fragment = json.loads(capsys.readouterr().out)
    vec = fragment["structures"]["std-contact.reeb"]
    assert vec["components"] == {"d/dz": "1"}
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
         "std-contact", "reeb"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["structures"]["std-contact.reeb"]["components"] == {"d/dz": "1"}


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
        "    scenario.run(scenario.load(path), seed=0)",
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


@pytest.mark.parametrize("options, check, field", [
    (["--tol", "-1"], {}, "tol"),  # would make every sample point a witness
    (["--tol", "nan"], {}, "tol"),  # would make no sample point a witness
    (["--samples", "0"], {}, "samples"),  # would leave no point to search
    ([], {"tol": "abc"}, "tol"),  # would stop with a ValueError traceback
    ([], {"samples": True}, "samples"),
    ([], {"samples": 2.5}, "samples"),
    ([], {"check": "anchor_residual", "target": "line-path", "max": -1e-6}, "max"),
    ([], {"check": "cocycle_integral", "target": "line-path", "expect": -1.0,
          "atol": float("inf")}, "atol"),
])
def test_bad_tolerance_or_sample_count_is_a_scenario_error(tmp_path, capsys, options,
                                                          check, field):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "contact", "target": "std-contact", **check}]
    assert main(["check", write_scenario(tmp_path, doc), *options]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checks[0].{field}: "), err
    assert captured.out == ""


@pytest.mark.parametrize("expect", ["abc", True, None, float("nan")])
def test_bad_cocycle_expectation_is_a_scenario_error(tmp_path, capsys, expect):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "cocycle_integral", "target": "line-path", "expect": expect}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checks[0].expect: "), err
    assert captured.out == ""


@pytest.mark.parametrize("expect", [-1, -1.0])
def test_cocycle_expectation_takes_any_finite_number(tmp_path, expect):
    doc = json.loads(Path(bundled("std-r3.json")).read_text())
    doc["checks"] = [{"check": "cocycle_integral", "target": "line-path", "expect": expect}]
    assert main(["check", write_scenario(tmp_path, doc)]) == 0


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
