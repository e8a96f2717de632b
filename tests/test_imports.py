"""What importing twistcheck and loading a document cost: the groupoid and
A-path layers run only for documents that use them, and no module imports
``dataclasses``.

Each case runs in a fresh interpreter started with ``-S``, so that no site
hook imports a module first, and with ``-B``, so that it writes no bytecode
into the source tree.
"""

import json
import subprocess
import sys
from pathlib import Path

import twistcheck

SRC = Path(twistcheck.__file__).resolve().parent.parent
SCENARIOS = Path(twistcheck.__file__).resolve().parent / "scenarios"

# everything ``dir(twistcheck)`` listed when ``twistcheck/__init__.py`` still
# imported the groupoid and A-path modules, with the one ``pushforward`` in
# place of the two partial ones it replaced
EXPORTS = (
    "APath", "Chart", "CheckItem", "CheckReport", "CotangentModel", "EvalError", "Expr",
    "ExprError", "Form", "GroupoidModel", "HomTwistedPoisson", "MultiVec", "ParseError",
    "ProjectabilityFailure", "ProjectionAlongE", "Scenario",
    "ScenarioError", "SmoothMap", "SuspendedModel", "TwistedContact", "TwistedJacobi",
    "TwistedPoisson", "Verdict", "algebroid_anchor", "algebroid_bracket", "anchor_residual",
    "apath", "base_coincidence_check", "bracket", "check_algebroid", "check_algebroid_morphism",
    "check_axioms", "check_contact", "check_homogeneous", "check_multiplicativity",
    "check_properties", "check_twisted_jacobi", "cocycle_integral", "concatenate", "conformal",
    "contact", "contact_bivector", "contact_poissonization_check",
    "cotangent_twisted_symplectic", "derive", "differential", "expr", "ext_d", "groupoid",
    "hamiltonian", "induced_base_structure", "interior", "is_zero", "jacobi", "jacobi_anomaly",
    "jacobi_from_contact", "lie", "linsolve", "load", "loads", "parse",
    "path_from_exprs", "poissonize", "project_along_E", "project_homogeneous", "pullback",
    "pushforward", "rational", "reeb", "reparameterize",
    "report", "run", "sample_points", "scenario", "schouten", "sharp", "sharp1", "sharp_tensor",
    "strip_suspension", "suspend", "tensor", "tensor_zero_verdict", "wedge",
)

# prints, as JSON, which of the given modules have run their body: a module
# that is only registered for lazy loading is not yet a plain module object
PROBE = """
import json, sys, types

def ran(*names):
    return {n: type(sys.modules.get(n)) is types.ModuleType for n in names}
"""


def run_fresh(body: str) -> dict:
    # -B: the child's environment is only PYTHONPATH, so without it the child
    # would write bytecode next to the sources
    proc = subprocess.run([sys.executable, "-B", "-S", "-c", PROBE + body],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


LAYERS = '"twistcheck.groupoid", "twistcheck.apath"'


def test_a_contact_document_never_runs_the_groupoid_and_apath_layers():
    doc = {
        "charts": {"R3": ["x", "y", "z"]},
        "structures": {"c": {"type": "contact", "chart": "R3",
                             "theta": {"dz": "1", "dx": "-y"}, "omega": {"dx^dy": "x"}}},
        "checks": [{"check": kind, "target": "c"}
                   for kind in ("contact", "jacobi_from_contact", "poissonization")],
    }
    got = run_fresh(f"""
from twistcheck import scenario
outcomes = scenario.run(scenario.loads({json.dumps(json.dumps(doc))}))
print(json.dumps({{"passed": [o.passed for o in outcomes], "ran": ran({LAYERS}),
                  "dataclasses": "dataclasses" in sys.modules}}))
""")
    assert got["passed"] == [True, True, True]
    assert got["ran"] == {"twistcheck.groupoid": False, "twistcheck.apath": False}
    assert got["dataclasses"] is False


def test_loads_runs_the_layers_its_document_names_before_any_check():
    got = run_fresh(f"""
from twistcheck import scenario
before = ran({LAYERS})
sc = scenario.load({str(SCENARIOS / "std-r3.json")!r})
print(json.dumps({{"before": before, "after_loads": ran({LAYERS})}}))
""")
    assert got["before"] == {"twistcheck.groupoid": False, "twistcheck.apath": False}
    assert got["after_loads"] == {"twistcheck.groupoid": True, "twistcheck.apath": True}


def test_every_export_resolves_by_attribute_and_by_from_import():
    got = run_fresh(f"""
import twistcheck
names = {EXPORTS!r}
missing = [n for n in names if not hasattr(twistcheck, n)]
for n in names:
    exec(f"from twistcheck import {{n}}")
same = (twistcheck.GroupoidModel is twistcheck.groupoid.GroupoidModel
        and twistcheck.APath is twistcheck.apath.APath)
star = {{}}
exec("from twistcheck import *", star)
print(json.dumps({{"missing": missing, "same": same,
                  "not_listed": sorted(set(names) - set(dir(twistcheck))),
                  "not_starred": sorted(set(names) - set(star))}}))
""")
    assert got == {"missing": [], "same": True, "not_listed": [], "not_starred": []}


def test_from_import_of_a_layer_name_runs_that_layer_only():
    got = run_fresh(f"""
from twistcheck import APath
print(json.dumps(ran({LAYERS})))
""")
    assert got == {"twistcheck.groupoid": False, "twistcheck.apath": True}
