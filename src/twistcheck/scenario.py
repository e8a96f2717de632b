"""Scenario files: JSON documents declaring charts, structures and checks.

Schema
------
{
  "charts": {"R3": ["x", "y", "z"]},
  "structures": {
    "std-contact": {"type": "contact", "chart": "R3",
                    "theta": {"dz": "1", "dx": "-y"}, "omega": {}},
    "std-jacobi":  {"type": "jacobi", "chart": "R3",
                    "lam": {"d/dx^d/dy": "1"}, "e": {"d/dz": "1"},
                    "omega": {}},
    "hom":         {"type": "homogeneous", ... "z": {"d/ds": "1"}},
    "pair":        {"type": "pair_groupoid", "base": "std-contact"},
    "path":        {"type": "apath", "structure": "std-jacobi", "param": "t",
                    "gamma": [...], "zeta": [...], "f": "1", "n": 64}
  },
  "checks": [{"check": "contact", "target": "std-contact", "tol": 1e-9}, ...]
}

Component keys: forms use "dx^dy" (degree 0: "1"), multivectors use
"d/dx^d/dy".  Expression strings follow the expression grammar.

Layers
------
The groupoid and A-path modules are loaded on demand.  Importing this module
registers ``twistcheck.groupoid`` and ``twistcheck.apath`` in ``sys.modules``
without running them (``importlib.util.LazyLoader``).  ``_LAYERS`` maps each
structure type and check kind that needs one of them to its module:
``pair_groupoid``, ``groupoid`` and the nine groupoid check kinds to
``groupoid``, ``apath``, ``anchor_residual`` and ``cocycle_integral`` to
``apath``.  ``loads`` runs the modules that its document names, so their
import cost falls in the load phase and never in a check's ``ms``; a
document that names neither never runs them.  Builders, runners and the
derive table read the layers' attributes at call time.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import time
from typing import Any, Optional

from .expr import DEFAULT_SAMPLES, Chart, Expr, ExprError, parse, sample_points
from .report import CheckReport
from .tensor import Form, MultiVec, SmoothMap
from .jacobi import (
    HomTwistedPoisson,
    TwistedJacobi,
    check_algebroid,
    check_homogeneous,
    check_twisted_jacobi,
    poissonize,
    poissonized_chart,
)
from .contact import (
    TwistedContact,
    check_contact,
    contact_bivector,
    contact_jacobi,
    contact_poissonization_check,
    jacobi_from_contact,
    reeb,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "CheckOutcome",
    "load",
    "loads",
    "run",
    "derive",
    "render_structure",
]


def _lazy_layer(name: str):
    """The package module ``name``, registered in ``sys.modules`` and on the
    package without running its body, which runs on first attribute access
    (``importlib.util.LazyLoader``)."""
    fullname = f"{__package__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


_groupoid = _lazy_layer("groupoid")
_apath = _lazy_layer("apath")

# structure type or check kind -> the layer module that implements it
_LAYERS = {
    **dict.fromkeys(("pair_groupoid", "groupoid", "groupoid_axioms", "multiplicativity",
                     "groupoid_properties", "induced_base", "suspension",
                     "base_coincidence", "algebroid_morphism"), _groupoid),
    **dict.fromkeys(("apath", "anchor_residual", "cocycle_integral"), _apath),
}


class ScenarioError(ExprError):
    """Schema violation, annotated with the JSON path of the offender."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


class CheckOutcome:
    def __init__(self, name: str, verdict: str, passed: bool, max_residual: float,
                 assumptions: list[str], ms: float, lines: Optional[list[str]] = None):
        self.name = name
        self.verdict = verdict  # SymbolicZero | SampledZero | NonZero | Error
        self.passed = passed
        self.max_residual = max_residual
        self.assumptions = assumptions
        self.ms = ms
        self.lines = [] if lines is None else lines

    def machine_record(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "assumptions": self.assumptions,
            "ms": round(self.ms, 3),
        }


class Scenario:
    def __init__(self, charts: dict[str, Chart], structures: dict[str, Any],
                 checks: list[dict], raw: dict):
        self.charts = charts
        self.structures = structures
        self.checks = checks
        self.raw = raw


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError(where, message)


def _setting(cdef: dict, key: str, default: Any, where: str) -> Any:
    """A check's ``key`` field, else the run-wide default, validated: a
    tolerance or limit is a finite number >= 0 and ``samples`` an integer
    >= 1 (``None`` for the default count)."""
    value = cdef.get(key, default)
    where = f"{where}.{key}"
    if key == "samples":
        _expect(value is None or (type(value) is int and value >= 1), where,
                f"expected an integer >= 1, got {value!r}")
        return value
    _expect(type(value) in (int, float) and math.isfinite(value) and value >= 0, where,
            f"expected a finite number >= 0, got {value!r}")
    return float(value)


def _parse_expr(text: Any, chart: Chart, where: str) -> Expr:
    _expect(isinstance(text, str), where, "expected an expression string")
    try:
        return parse(text, chart)
    except ExprError as exc:
        raise ScenarioError(where, str(exc)) from exc


def _key_indices(key: str, chart: Chart, prefix: str, where: str) -> tuple[int, ...]:
    if key == "1":
        return ()
    idx = []
    for part in key.split("^"):
        _expect(part.startswith(prefix), where, f"component key part {part!r} must start with {prefix!r}")
        coord = part[len(prefix):]
        try:
            idx.append(chart.index(coord))
        except ExprError as exc:
            raise ScenarioError(where, str(exc)) from exc
    _expect(list(idx) == sorted(set(idx)), where, f"key {key!r} must use strictly increasing coordinates")
    return tuple(idx)


_KEY_PREFIX = {Form: "d", MultiVec: "d/d"}


def _parse_tensor(cls, data: Any, chart: Chart, degree: int, where: str):
    """A Form or MultiVec (``cls``) from its component table."""
    _expect(isinstance(data, dict), where, "expected a component table")
    comps = {}
    for key, text in data.items():
        idx = _key_indices(key, chart, _KEY_PREFIX[cls], f"{where}.{key}")
        _expect(len(idx) == degree, f"{where}.{key}", f"expected a degree-{degree} key")
        comps[idx] = _parse_expr(text, chart, f"{where}.{key}")
    return cls(chart, degree, comps)


def _render_comps(t) -> dict[str, str]:
    prefix = _KEY_PREFIX[type(t)]
    return {
        "^".join(prefix + t.chart.coords[i] for i in idx) if idx else "1": str(v)
        for idx, v in t.comps.items()
    }


# structure class -> (scenario type, tensor fields)
_RENDERED = {
    TwistedJacobi: ("jacobi", ("lam", "e", "omega")),
    HomTwistedPoisson: ("homogeneous", ("lam", "omega", "z")),
    TwistedContact: ("contact", ("theta", "omega")),
}


def render_structure(obj, charts: dict[str, Chart]) -> dict:
    """Scenario-syntax definition of a derived object (round-trippable).
    Charts not yet declared are added to the passed registry."""
    name_of = {chart: name for name, chart in charts.items()}

    def chart_name(chart: Chart) -> str:
        if chart not in name_of:
            name_of[chart] = chart.name
            charts.setdefault(chart.name, chart)
        return name_of[chart]

    for cls, (kind, parts) in _RENDERED.items():
        if isinstance(obj, cls):
            return {"type": kind, "chart": chart_name(obj.chart),
                    **{part: _render_comps(getattr(obj, part)) for part in parts}}
    if isinstance(obj, MultiVec):
        return {"type": "multivector", "chart": chart_name(obj.chart),
                "components": _render_comps(obj)}
    if isinstance(obj, _groupoid.GroupoidModel):
        return {
            "type": "groupoid",
            "base_chart": chart_name(obj.base),
            "total_chart": chart_name(obj.total),
            "composable_chart": chart_name(obj.composable),
            "maps": {
                key: [str(c) for c in getattr(obj, key).components]
                for key in ("alpha", "beta", "iota", "eps", "pr1", "pr2", "m")
            },
            "r": str(obj.r),
            "theta": _render_comps(obj.theta),
            "omega0": _render_comps(obj.omega0),
            "omega": _render_comps(obj.omega),
        }
    raise ScenarioError("derive", f"cannot render a {type(obj).__name__}")


def _required(d: dict, key: str, where: str):
    _expect(key in d, where, f"missing field {key!r}")
    return d[key]


def _chart_of(sc: Scenario, d: dict, where: str, key: str = "chart") -> Chart:
    name = _required(d, key, where)
    _expect(name in sc.charts, f"{where}.{key}", f"unknown chart {name!r}")
    return sc.charts[name]


def _build_structure(sc: Scenario, name: str, d: dict):
    where = f"structures.{name}"
    _expect(isinstance(d, dict), where, "expected an object")
    kind = _required(d, "type", where)
    if kind == "jacobi":
        chart = _chart_of(sc, d, where)
        return TwistedJacobi(
            chart,
            _parse_tensor(MultiVec, _required(d, "lam", where), chart, 2, f"{where}.lam"),
            _parse_tensor(MultiVec, _required(d, "e", where), chart, 1, f"{where}.e"),
            _parse_tensor(Form, d.get("omega", {}), chart, 2, f"{where}.omega"),
        )
    if kind == "contact":
        chart = _chart_of(sc, d, where)
        # constructor errors are domain preconditions, reported per check
        return TwistedContact(
            chart,
            _parse_tensor(Form, _required(d, "theta", where), chart, 1, f"{where}.theta"),
            _parse_tensor(Form, d.get("omega", {}), chart, 2, f"{where}.omega"),
        )
    if kind == "homogeneous":
        chart = _chart_of(sc, d, where)
        return HomTwistedPoisson(
            chart,
            _parse_tensor(MultiVec, _required(d, "lam", where), chart, 2, f"{where}.lam"),
            _parse_tensor(Form, d.get("omega", {}), chart, 2, f"{where}.omega"),
            _parse_tensor(MultiVec, _required(d, "z", where), chart, 1, f"{where}.z"),
        )
    if kind == "pair_groupoid":
        base = _resolve(sc, _required(d, "base", where), f"{where}.base")
        _expect(isinstance(base, TwistedContact), f"{where}.base",
                "the pair-groupoid base must be a contact structure")
        return _groupoid.pair_groupoid(base)
    if kind == "groupoid":
        base = _chart_of(sc, d, where, "base_chart")
        total = _chart_of(sc, d, where, "total_chart")
        comp = _chart_of(sc, d, where, "composable_chart")
        maps = _required(d, "maps", where)

        def smooth(key: str, src: Chart, tgt: Chart, section_of: Optional[str] = None) -> SmoothMap:
            comps_txt = _required(maps, key, f"{where}.maps")
            _expect(isinstance(comps_txt, list) and len(comps_txt) == tgt.dim,
                    f"{where}.maps.{key}", f"expected {tgt.dim} component expressions")
            comps = tuple(_parse_expr(t, src, f"{where}.maps.{key}") for t in comps_txt)
            section = None
            if section_of is not None and section_of in maps:
                stexts = maps[section_of]
                section = tuple(_parse_expr(t, tgt, f"{where}.maps.{section_of}") for t in stexts)
            return SmoothMap(src, tgt, comps, section=section)

        return _groupoid.GroupoidModel(
            base=base, total=total, composable=comp,
            alpha=smooth("alpha", total, base, section_of="eps"),
            beta=smooth("beta", total, base, section_of="eps"),
            iota=smooth("iota", total, total, section_of="iota"),
            eps=smooth("eps", base, total),
            pr1=smooth("pr1", comp, total),
            pr2=smooth("pr2", comp, total),
            m=smooth("m", comp, total),
            r=_parse_expr(_required(d, "r", where), total, f"{where}.r"),
            theta=_parse_tensor(Form, _required(d, "theta", where), total, 1, f"{where}.theta"),
            omega0=_parse_tensor(Form, _required(d, "omega0", where), base, 2, f"{where}.omega0"),
            omega=(
                _parse_tensor(Form, d["omega"], total, 2, f"{where}.omega")
                if "omega" in d else None
            ),
        )
    if kind == "apath":
        j = _resolve(sc, _required(d, "structure", where), f"{where}.structure")
        _expect(isinstance(j, TwistedJacobi), f"{where}.structure",
                "an A-path needs a twisted Jacobi structure")
        param = Chart(f"{name}-param", (str(d.get("param", "t")),))
        gamma = [_parse_expr(t, param, f"{where}.gamma") for t in _required(d, "gamma", where)]
        zeta = [_parse_expr(t, param, f"{where}.zeta") for t in _required(d, "zeta", where)]
        f = _parse_expr(_required(d, "f", where), param, f"{where}.f")
        n = int(d.get("n", 64))
        return _apath.path_from_exprs(j, gamma, zeta, f, n)
    raise ScenarioError(where, f"unknown structure type {kind!r}")


def _resolve(sc: Scenario, name: Any, where: str):
    _expect(isinstance(name, str), where, "expected a structure name")
    if name not in sc.structures:
        raise ScenarioError(where, f"unresolved reference {name!r}")
    value = sc.structures[name]
    if isinstance(value, dict):  # not yet built
        sc.structures[name] = None  # cycle guard
        try:
            sc.structures[name] = _build_structure(sc, name, value)
        except BaseException:
            sc.structures[name] = value  # keep re-buildable for later checks
            raise
        value = sc.structures[name]
    if value is None:
        raise ScenarioError(where, f"cyclic reference through {name!r}")
    return value


def loads(text: str) -> Scenario:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"line {exc.lineno} column {exc.colno}", exc.msg) from exc
    _expect(isinstance(raw, dict), "$", "top level must be an object")
    charts_raw = raw.get("charts", {})
    _expect(isinstance(charts_raw, dict), "charts", "expected an object")
    charts = {}
    for name, coords in charts_raw.items():
        _expect(isinstance(coords, list) and all(isinstance(c, str) for c in coords),
                f"charts.{name}", "expected a list of coordinate names")
        try:
            charts[name] = Chart(name, tuple(coords))
        except ExprError as exc:
            raise ScenarioError(f"charts.{name}", str(exc)) from exc
    structures = raw.get("structures", {})
    _expect(isinstance(structures, dict), "structures", "expected an object")
    checks = raw.get("checks", [])
    _expect(isinstance(checks, list), "checks", "expected a list")
    sc = Scenario(charts, dict(structures), list(checks), raw)
    named = [d.get("type") for d in sc.structures.values() if isinstance(d, dict)]
    named += [c.get("check") for c in sc.checks if isinstance(c, dict)]
    for name in named:
        if isinstance(name, str) and name in _LAYERS:
            getattr(_LAYERS[name], "__all__")  # runs the body of a layer still lazy
    return sc


def load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# check execution


def _report_outcome(name: str, report: CheckReport, ms: float) -> CheckOutcome:
    if not report.passed:
        verdict = "NonZero"
    else:
        kinds = {item.verdict.kind for item in report.items}
        verdict = "SampledZero" if "SampledZero" in kinds else "SymbolicZero"
    lines = [item.line() for item in report.items] + [f"note: {n}" for n in report.notes]
    return CheckOutcome(name, verdict, report.passed, report.max_residual,
                        report.assumptions, ms, lines)


def _numeric_outcome(name: str, value: float, limit: float, ms: float,
                     label: str) -> CheckOutcome:
    passed = abs(value) <= limit
    verdict = "SampledZero" if passed else "NonZero"
    return CheckOutcome(name, verdict, passed, abs(value), [label], ms,
                        [f"[{'PASS' if passed else 'FAIL'}] {label}: {value!r} (limit {limit!r})"])


class _CheckCall:
    """One check definition as its runner sees it."""

    def __init__(self, cdef: dict, where: str, tol: float, count: Optional[int], seed: int):
        self.cdef = cdef
        self.where = where
        self.tol = tol
        self.count = count
        self.seed = seed

    def samples(self, chart: Chart):
        count = DEFAULT_SAMPLES if self.count is None else self.count
        return sample_points(chart, count=count, seed=self.seed)


def _algebroid(target: TwistedJacobi, call: _CheckCall) -> CheckReport:
    chart = target.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    for extra in call.cdef.get("sections", []):
        sections.append((
            _parse_tensor(Form, extra.get("zeta", {}), chart, 1, f"{call.where}.sections"),
            _parse_expr(extra.get("f", "0"), chart, f"{call.where}.sections"),
        ))
    return check_algebroid(target, sections, call.samples(chart), call.tol)


def _poissonization(target, call: _CheckCall) -> CheckReport:
    samples = call.samples(poissonized_chart(target.chart))
    if isinstance(target, TwistedContact):
        return contact_poissonization_check(target, samples, call.tol)
    return check_homogeneous(poissonize(target), samples, call.tol)


def _anchor_residual(target, call: _CheckCall) -> tuple[float, float, str]:
    limit = _setting(call.cdef, "max", call.tol, call.where)
    return _apath.anchor_residual(target), limit, "anchor residual"


def _cocycle_integral(target, call: _CheckCall) -> tuple[float, float, str]:
    value = _apath.cocycle_integral(target)
    expect = _required(call.cdef, "expect", call.where)
    _expect(type(expect) in (int, float) and math.isfinite(expect), f"{call.where}.expect",
            f"expected a finite number, got {expect!r}")
    expect = float(expect)
    limit = _setting(call.cdef, "atol", 1e-8, call.where)
    return value - expect, limit, f"cocycle integral minus {expect}"


# (accepted target types, read at call time so that a layer's classes are
# looked up only once it runs, and what the target must be)
_CONTACT = (lambda: (TwistedContact,), "a contact structure")
_JACOBI = (lambda: (TwistedJacobi,), "a twisted Jacobi structure")
_HOMOGENEOUS = (lambda: (HomTwistedPoisson,), "homogeneous twisted Poisson")
_GROUPOID = (lambda: (_groupoid.GroupoidModel,), "a groupoid model")
_APATH = (lambda: (_apath.APath,), "an A-path")

# kind -> (accepted target types, what the target must be, runner).  A runner
# returns a CheckReport or, for the numeric A-path checks, a
# (value, limit, label) triple.
_CHECKS = {
    "contact": (*_CONTACT, lambda t, c: check_contact(t, c.samples(t.chart), c.tol)),
    "twisted_jacobi": (*_JACOBI, lambda t, c: check_twisted_jacobi(t, c.samples(t.chart), c.tol)),
    "jacobi_from_contact": (*_CONTACT,
                            lambda t, c: jacobi_from_contact(t, c.samples(t.chart), c.tol)[1]),
    "algebroid": (*_JACOBI, _algebroid),
    "homogeneous": (*_HOMOGENEOUS, lambda t, c: check_homogeneous(t, c.samples(t.chart), c.tol)),
    "poissonization": (lambda: (TwistedContact, TwistedJacobi), _JACOBI[1], _poissonization),
    "groupoid_axioms": (*_GROUPOID, lambda t, c: _groupoid.check_axioms(t)),
    "multiplicativity": (*_GROUPOID, lambda t, c: _groupoid.check_multiplicativity(
        t, c.samples(t.composable), c.tol)),
    "groupoid_properties": (*_GROUPOID, lambda t, c: _groupoid.check_properties(
        t, c.samples(t.total), c.tol)),
    "induced_base": (*_GROUPOID, lambda t, c: _groupoid.induced_base_structure(
        t, c.samples(t.base), c.tol)[1]),
    "suspension": (*_GROUPOID, lambda t, c: _groupoid.suspend(
        t, c.samples(t.suspension().total), c.tol)[1]),
    "base_coincidence": (*_GROUPOID, lambda t, c: _groupoid.base_coincidence_check(
        t, c.samples(t.suspension().total), c.tol)),
    "algebroid_morphism": (*_GROUPOID, lambda t, c: _groupoid.check_algebroid_morphism(
        t, c.samples(t.total), c.tol)),
    "anchor_residual": (*_APATH, _anchor_residual),
    "cocycle_integral": (*_APATH, _cocycle_integral),
}


def _run_check(sc: Scenario, cdef: dict, idx: int,
               tol: float, count: Optional[int], seed: int) -> CheckOutcome:
    where = f"checks[{idx}]"
    kind = _required(cdef, "check", where)
    target_name = _required(cdef, "target", where)
    call = _CheckCall(cdef, where, _setting(cdef, "tol", tol, where),
                      _setting(cdef, "samples", count, where), seed)
    name = f"{kind}({target_name})"
    start = time.perf_counter()
    try:
        target = _resolve(sc, target_name, where)
        if kind not in _CHECKS:
            raise ScenarioError(where, f"unknown check {kind!r}")
        types, what, runner = _CHECKS[kind]
        _expect(isinstance(target, types()), where, f"target is not {what}")
        result = runner(target, call)
    except ScenarioError:
        raise
    except ExprError as exc:
        ms = (time.perf_counter() - start) * 1000.0
        return CheckOutcome(name, "Error", False, 0.0, [str(exc)], ms,
                            [f"[FAIL] precondition failure: {exc}"])
    ms = (time.perf_counter() - start) * 1000.0
    if isinstance(result, CheckReport):
        return _report_outcome(name, result, ms)
    value, limit, label = result
    return _numeric_outcome(name, value, limit, ms, label)


def run(sc: Scenario, tol: float = 1e-9, samples: Optional[int] = None,
        seed: int = 0) -> list[CheckOutcome]:
    """Execute all checks in declaration order, continuing past failures."""
    outcomes = []
    for idx, cdef in enumerate(sc.checks):
        _expect(isinstance(cdef, dict), f"checks[{idx}]", "expected an object")
        outcomes.append(_run_check(sc, cdef, idx, tol, samples, seed))
    return outcomes


# construction -> (accepted target types, what the target must be, builder)
_DERIVE = {
    "reeb": (*_CONTACT, lambda t: reeb(t)[0]),
    "bivector": (*_CONTACT, lambda t: contact_bivector(t)[0]),
    "jacobi": (*_CONTACT, contact_jacobi),
    "poissonize": (lambda: (TwistedContact, TwistedJacobi), _JACOBI[1], lambda t: poissonize(
        contact_jacobi(t) if isinstance(t, TwistedContact) else t)),
    "pair_groupoid": (*_CONTACT, lambda t: _groupoid.pair_groupoid(t)),
    "induced_base": (*_GROUPOID, lambda t: t.induced_base()),
}


def derive(sc: Scenario, object_name: str, construction: str) -> dict:
    """Build a derived structure and return a self-contained scenario
    fragment (charts plus one structure definition) that re-parses."""
    target = _resolve(sc, object_name, "derive")
    if construction not in _DERIVE:
        raise ScenarioError("derive", f"unknown construction {construction!r}")
    types, what, build = _DERIVE[construction]
    _expect(isinstance(target, types()), "derive", f"{construction} needs {what}")
    registry = dict(sc.charts)
    sdef = render_structure(build(target), registry)
    chart_names = {sdef[k] for k in
                   ("chart", "base_chart", "total_chart", "composable_chart")
                   if k in sdef}
    charts = {n: list(ch.coords) for n, ch in registry.items() if n in chart_names}
    return {
        "charts": charts,
        "structures": {f"{object_name}.{construction}": sdef},
    }
