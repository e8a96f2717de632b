"""Tests of the benchmark's inputs, known answers and tracer."""

import json
import random
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import sympy as sp

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import round as bench_round  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from twistcheck import report, scenario  # noqa: E402
from twistcheck.expr import is_zero  # noqa: E402


def test_same_seed_gives_identical_documents():
    for w in workloads.WORKLOADS:
        for k in (0, 1):
            a = workloads.round_jobs(w, 7, k)
            b = workloads.round_jobs(w, 7, k)
            assert [j.text.encode() for j in a] == [j.text.encode() for j in b]
            assert [j.expected for j in a] == [j.expected for j in b]
    for w in ("pair-r5", "batch-r3"):
        assert [j.text for j in workloads.round_jobs(w, 7, 0)] != \
            [j.text for j in workloads.round_jobs(w, 8, 0)]


def test_every_check_has_an_expected_answer():
    families = set()
    for w in workloads.WORKLOADS:
        for job in workloads.round_jobs(w, 3, 0):
            doc = json.loads(job.text)
            names = [f"{c['check']}({c['target']})" for c in doc["checks"]]
            assert names == [name for name, _ in job.expected]
            assert all(isinstance(p, bool) for _, p in job.expected)
            families.add(job.name.split(" ")[0])
    assert {"std-r3", "twisted-r3", "pair-r5", "poly-twist", "conformal",
            "exact-theta", "e-tilt"} <= families


def test_batch_composition_is_fixed_per_round():
    for seed in (1, 2):
        jobs = workloads.round_jobs("batch-r3", seed, 0)
        counts = {}
        for job in jobs:
            counts[job.name] = counts.get(job.name, 0) + 1
        tilts = {k: v for k, v in counts.items() if k.startswith("e-tilt")}
        assert len(tilts) == len(workloads.E_TILT_EPSILONS)
        assert sum(tilts.values()) == dict(workloads.BATCH_FAMILIES)["e-tilt"]
        assert len(jobs) == sum(n for _, n in workloads.BATCH_FAMILIES)


def _contact_volume(structure):
    """theta ^ (d theta + omega) on R3, computed with sympy."""
    x, y, z = sp.symbols("x y z")
    env = {"x": x, "y": y, "z": z, "exp": sp.exp}
    coords = (x, y, z)

    def expr(text):
        return sp.sympify(text, locals=env)

    th = [expr(structure["theta"].get(f"d{c}", "0")) for c in "xyz"]
    om = {}
    for key, text in structure["omega"].items():
        a, b = ("xyz".index(part[1]) for part in key.split("^"))
        om[(a, b)] = expr(text)
    sym = {}
    for a, b in ((0, 1), (0, 2), (1, 2)):
        dth = sp.diff(th[b], coords[a]) - sp.diff(th[a], coords[b])
        sym[(a, b)] = dth + om.get((a, b), 0)
    vol = th[0] * sym[(1, 2)] - th[1] * sym[(0, 2)] + th[2] * sym[(0, 1)]
    return vol, coords


def test_contact_answers_agree_with_an_independent_volume():
    seen = {}
    for job in workloads.round_jobs("batch-r3", 5, 0):
        structure = json.loads(job.text)["structures"].get("c")
        if structure is None or seen.get(job.name, 0) >= 4:
            continue
        seen[job.name] = seen.get(job.name, 0) + 1
        vol, coords = _contact_volume(structure)
        if dict(job.expected)["contact(c)"]:
            grid = product((-1, 0, 1), repeat=3)
            values = [float(vol.subs(dict(zip(coords, pt)))) for pt in grid]
            assert min(values) > 0 or max(values) < 0, job.text
        else:
            assert sp.expand(vol) == 0, job.text
    assert set(seen) == {"poly-twist", "conformal", "exact-theta"}


def test_pair_twist_stays_below_one_half():
    for k in range(4):
        job = workloads.round_jobs("pair-r5", 11, k)[0]
        omega = json.loads(job.text)["structures"]["base"]["omega"]
        for text in omega.values():
            coeff = Fraction(text.split(")")[0].lstrip("("))
            assert 0 < abs(coeff) <= Fraction(1, 2)


def _records(outcomes):
    return [[o.name, o.verdict, o.passed, o.max_residual, o.assumptions] for o in outcomes]


def test_tracer_leaves_outcomes_unchanged_and_is_removed():
    rng = random.Random(4)
    jobs = [workloads._poly_twist_job(rng), workloads._exact_theta_job(rng),
            workloads._e_tilt_job(Fraction(1, 1000))]
    plain = [_records(scenario.run(scenario.loads(j.text))) for j in jobs]
    tracer = Tracer()
    with tracer:
        traced = [_records(scenario.run(scenario.loads(j.text))) for j in jobs]
    assert traced == plain
    # aliases were traced: report reaches is_zero through its own name
    assert tracer.agg["expr.is_zero"].calls > 0
    assert tracer.agg["jacobi.check_twisted_jacobi"].calls > 0
    assert tracer.agg["expr.new"].calls > 0
    names = {name for _, _, name, _, _ in tracer.spans}
    assert {"scenario._run_check", "contact.check_contact", "linsolve.solve"} <= names
    # every check is timed under its own kind, and the kinds add up to the
    # per-check spans
    checks = tracer.agg["scenario._run_check"]
    kinds = {n: a for n, a in tracer.agg.items() if n.startswith("check.")}
    assert {n: a.calls for n, a in kinds.items()} == {
        "check.contact": 2, "check.jacobi_from_contact": 1, "check.twisted_jacobi": 1}
    assert abs(sum(a.total for a in kinds.values()) - checks.total) < 1e-9
    # and everything was put back
    assert report.is_zero is is_zero
    assert not hasattr(scenario.run, "__wrapped__")


def test_a_job_that_raises_fails_its_checks_and_the_run(monkeypatch, capsys):
    def boom(sc):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(scenario, "run", boom)
    argv = ["--workload", "pair-r5", "--seed", "1", "--round", "0",
            "--spawned-ns", str(time.monotonic_ns())]
    assert bench_round.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(result["errors"]) == 1 and result["errors"][0].endswith("ZeroDivisionError: boom")
    assert result["checks"] and all(c[4] == "Error" for c in result["checks"])
    summary = bench_run.verdict_summary([result])
    assert summary["errors"] == summary["attempted"] == len(result["checks"])
