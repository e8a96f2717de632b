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
                    "gamma": [...], "zeta": [...], "f": "1"}
  },
  "checks": [{"check": "contact", "target": "std-contact"},
             {"check": "cocycle_integral", "target": "path", "expect": -1}, ...]
}

A structure reads "type" and the fields of its type (``_STRUCTURE_FIELDS``),
which ``loads`` checks on every structure, named by a check or not; a check
reads "check" and "target", and only these fields beyond them:
"sections" for ``algebroid`` and "expect" for ``cocycle_integral``.  Any
other field is a schema error at its JSON path.  "expect" is a JSON number,
read as the decimal it prints as (``-1.0`` is -1), or an expression string
on the path's parameter chart that does not depend on the parameter, such
as "exp(2)/4 + 1/4".

Component keys: forms use "dx^dy" (degree 0: "1"), multivectors use
"d/dx^d/dy".  Expression strings follow the expression grammar.

Layers
------
The groupoid and A-path modules are loaded on demand.  Importing this module
registers ``twistcheck.groupoid`` and ``twistcheck.apath`` in ``sys.modules``
without running them (``importlib.util.LazyLoader``).  ``_LAYERS`` maps each
structure type and check kind that needs one of them to its module:
``pair_groupoid``, ``groupoid`` and the seven groupoid check kinds to
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

from .expr import Chart, Expr, ExprError, is_zero, parse
from .rational import exact
from .report import CheckReport
from .tensor import Form, MultiVec, SmoothMap
from .jacobi import (
    HomTwistedPoisson,
    TwistedJacobi,
    check_algebroid,
    check_homogeneous,
    check_twisted_jacobi,
)
from .contact import (
    TwistedContact,
    check_contact,
    contact_poissonization_check,
    jacobi_from_contact,
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
        self.verdict = verdict  # SymbolicZero | NonZero | Error
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
                 checks: list[dict]):
        self.charts = charts
        self.structures = structures
        self.checks = checks


def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ScenarioError(where, message)


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


# scenario type -> (structure class, its tensor fields in constructor order
# as (field, tensor class, degree, required)); a field that is not required
# defaults to the zero tensor
_STRUCTURES = {
    "jacobi": (TwistedJacobi, (("lam", MultiVec, 2, True), ("e", MultiVec, 1, True),
                               ("omega", Form, 2, False))),
    "contact": (TwistedContact, (("theta", Form, 1, True), ("omega", Form, 2, False))),
    "homogeneous": (HomTwistedPoisson, (("lam", MultiVec, 2, True), ("omega", Form, 2, False),
                                        ("z", MultiVec, 1, True))),
}

# the charts of a groupoid, each declared by the field "<chart>_chart"
_GROUPOID_CHARTS = ("base", "total", "composable")
# groupoid map -> (source chart, target chart, the map whose components are
# its declared section, or None)
_GROUPOID_MAPS = {
    "alpha": ("total", "base", "eps"),
    "beta": ("total", "base", "eps"),
    "iota": ("total", "total", "iota"),
    "eps": ("base", "total", None),
    "pr1": ("composable", "total", None),
    "pr2": ("composable", "total", None),
    "m": ("composable", "total", None),
}
_CHART_FIELDS = ("chart", *(f"{c}_chart" for c in _GROUPOID_CHARTS))

# structure type -> the fields it reads besides "type"
_STRUCTURE_FIELDS = {
    **{kind: ("chart", *(field for field, *_ in fields))
       for kind, (_, fields) in _STRUCTURES.items()},
    "pair_groupoid": ("base",),
    "groupoid": (*_CHART_FIELDS[1:], "maps", "r", "theta", "omega0", "omega"),
    "apath": ("structure", "param", "gamma", "zeta", "f"),
}


def render_structure(obj, charts: dict[str, Chart]) -> dict:
    """Scenario-syntax definition of a derived object, which re-parses.
    Charts not yet declared are added to the passed registry."""
    name_of = {chart: name for name, chart in charts.items()}

    def chart_name(chart: Chart) -> str:
        if chart not in name_of:
            name_of[chart] = chart.name
            charts.setdefault(chart.name, chart)
        return name_of[chart]

    for kind, (cls, fields) in _STRUCTURES.items():
        if isinstance(obj, cls):
            return {"type": kind, "chart": chart_name(obj.chart),
                    **{field: _render_comps(getattr(obj, field)) for field, *_ in fields}}
    if isinstance(obj, _groupoid.GroupoidModel):
        return {
            "type": "groupoid",
            **{f"{c}_chart": chart_name(getattr(obj, c)) for c in _GROUPOID_CHARTS},
            "maps": {key: [str(c) for c in getattr(obj, key).components]
                     for key in _GROUPOID_MAPS},
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
    _expect(isinstance(name, str) and name in sc.charts, f"{where}.{key}",
            f"unknown chart {name!r}")
    return sc.charts[name]


def _check_structure_fields(name: str, d: Any) -> None:
    """The structure's type and field names; ``loads`` checks every
    structure, whether or not a check names it."""
    where = f"structures.{name}"
    _expect(isinstance(d, dict), where, "expected an object")
    kind = _required(d, "type", where)
    fields = _STRUCTURE_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ScenarioError(where, f"unknown structure type {kind!r}")
    for key in d:
        if key != "type" and key not in fields:
            raise ScenarioError(f"{where}.{key}", f"not a field of a {kind} structure")


def _build_structure(sc: Scenario, name: str, d: dict):
    where = f"structures.{name}"
    kind = d["type"]  # checked by loads
    if kind in _STRUCTURES:
        cls, fields = _STRUCTURES[kind]
        chart = _chart_of(sc, d, where)
        # constructor errors are domain preconditions, reported per check
        return cls(chart, *(
            _parse_tensor(tcls, _required(d, field, where) if required else d.get(field, {}),
                          chart, degree, f"{where}.{field}")
            for field, tcls, degree, required in fields))
    if kind == "pair_groupoid":
        base = _resolve(sc, _required(d, "base", where), f"{where}.base")
        _expect(isinstance(base, TwistedContact), f"{where}.base",
                "the pair-groupoid base must be a contact structure")
        return _groupoid.pair_groupoid(base)
    if kind == "groupoid":
        charts = {c: _chart_of(sc, d, where, f"{c}_chart") for c in _GROUPOID_CHARTS}
        base, total = charts["base"], charts["total"]
        maps = _required(d, "maps", where)
        _expect(isinstance(maps, dict), f"{where}.maps", "expected an object")
        comps = {}
        for key, (src, tgt, _) in _GROUPOID_MAPS.items():
            texts = _required(maps, key, f"{where}.maps")
            dim = charts[tgt].dim
            _expect(isinstance(texts, list) and len(texts) == dim,
                    f"{where}.maps.{key}", f"expected a list of {dim} component expressions")
            comps[key] = tuple(_parse_expr(t, charts[src], f"{where}.maps.{key}") for t in texts)
        return _groupoid.GroupoidModel(
            **charts,
            **{key: SmoothMap(charts[src], charts[tgt], comps[key],
                              section=comps[section] if section else None)
               for key, (src, tgt, section) in _GROUPOID_MAPS.items()},
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
        param = d.get("param", "t")
        _expect(isinstance(param, str), f"{where}.param",
                f"expected a coordinate name, got {param!r}")
        param = Chart(f"{name}-param", (param,))
        exprs = {}
        for key in ("gamma", "zeta"):
            texts = _required(d, key, where)
            _expect(isinstance(texts, list), f"{where}.{key}", "expected a list of expressions")
            exprs[key] = [_parse_expr(t, param, f"{where}.{key}") for t in texts]
        f = _parse_expr(_required(d, "f", where), param, f"{where}.f")
        return _apath.path_from_exprs(j, exprs["gamma"], exprs["zeta"], f)


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
    for name, d in structures.items():
        _check_structure_fields(name, d)
    checks = raw.get("checks", [])
    _expect(isinstance(checks, list), "checks", "expected a list")
    sc = Scenario(charts, dict(structures), list(checks))
    named = [d["type"] for d in sc.structures.values()]
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


def _report_outcome(name: str, report: CheckReport, start: float) -> CheckOutcome:
    """The outcome of a report; the check's ``ms`` runs from ``start`` to
    the end of its item lines, which print the witness of each NonZero
    item and so include its witness search."""
    lines = [item.line() for item in report.items] + [f"note: {n}" for n in report.notes]
    ms = (time.perf_counter() - start) * 1000.0
    verdict = "SymbolicZero" if report.passed else "NonZero"
    return CheckOutcome(name, verdict, report.passed, report.max_residual,
                        report.assumptions, ms, lines)


def _algebroid(target: TwistedJacobi, cdef: dict, where: str) -> CheckReport:
    chart = target.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    extras = cdef.get("sections", [])
    _expect(isinstance(extras, list), f"{where}.sections", "expected a list of objects")
    for i, extra in enumerate(extras):
        at = f"{where}.sections[{i}]"
        _expect(isinstance(extra, dict), at, "expected an object")
        sections.append((
            _parse_tensor(Form, extra.get("zeta", {}), chart, 1, f"{at}.zeta"),
            _parse_expr(extra.get("f", "0"), chart, f"{at}.f"),
        ))
    return check_algebroid(target, sections)


def _poissonization(target, *_) -> CheckReport:
    if isinstance(target, TwistedContact):
        return contact_poissonization_check(target)
    return check_homogeneous(target.poissonization)


def _cocycle_integral(target, cdef: dict, where: str) -> CheckReport:
    """The exact integral against "expect": a JSON number, read as the
    decimal it prints as, or an expression on the parameter chart that does
    not depend on the parameter."""
    at = f"{where}.expect"
    expect = _required(cdef, "expect", where)
    if type(expect) in (int, float):
        _expect(math.isfinite(expect), at, f"expected a finite number, got {expect!r}")
        expect = Expr.const(target.param, exact(repr(expect)))
    else:
        expect = _parse_expr(expect, target.param, at)
        _expect(not expect.depends_on(target.param.coords[0]), at,
                f"expected a constant, got {expect}, which depends on the parameter")
    report = CheckReport("cocycle integral")
    report.add(f"cocycle integral = {expect}",
               is_zero(_apath.cocycle_integral(target) - expect))
    return report


# (accepted target types, read at call time so that a layer's classes are
# looked up only once it runs, and what the target must be)
_CONTACT = (lambda: (TwistedContact,), "a contact structure")
_JACOBI = (lambda: (TwistedJacobi,), "a twisted Jacobi structure")
_HOMOGENEOUS = (lambda: (HomTwistedPoisson,), "homogeneous twisted Poisson")
_GROUPOID = (lambda: (_groupoid.GroupoidModel,), "a groupoid model")
_APATH = (lambda: (_apath.APath,), "an A-path")

# kind -> (accepted target types, what the target must be, runner).  A runner
# takes the target, the check definition and its JSON path, and returns a
# CheckReport.
_CHECKS = {
    "contact": (*_CONTACT, lambda t, *_: check_contact(t)),
    "twisted_jacobi": (*_JACOBI, lambda t, *_: check_twisted_jacobi(t)),
    "jacobi_from_contact": (*_CONTACT, lambda t, *_: jacobi_from_contact(t)[1]),
    "algebroid": (*_JACOBI, _algebroid),
    "homogeneous": (*_HOMOGENEOUS, lambda t, *_: check_homogeneous(t)),
    "poissonization": (lambda: (TwistedContact, TwistedJacobi), _JACOBI[1], _poissonization),
    "groupoid_axioms": (*_GROUPOID, lambda t, *_: _groupoid.check_axioms(t)),
    "multiplicativity": (*_GROUPOID, lambda t, *_: _groupoid.check_multiplicativity(t)),
    "groupoid_properties": (*_GROUPOID, lambda t, *_: _groupoid.check_properties(t)),
    "induced_base": (*_GROUPOID, lambda t, *_: _groupoid.induced_base_structure(t)[1]),
    "suspension": (*_GROUPOID, lambda t, *_: _groupoid.suspend(t)[1]),
    "base_coincidence": (*_GROUPOID, lambda t, *_: _groupoid.base_coincidence_check(t)),
    "algebroid_morphism": (*_GROUPOID, lambda t, *_: _groupoid.check_algebroid_morphism(t)),
    "anchor_residual": (*_APATH, lambda t, *_: _apath.anchor_residual(t)),
    "cocycle_integral": (*_APATH, _cocycle_integral),
}

# kind -> the fields its runner reads besides "check" and "target"
_FIELDS = {"algebroid": ("sections",), "cocycle_integral": ("expect",)}


def _run_check(sc: Scenario, cdef: dict, idx: int) -> CheckOutcome:
    where = f"checks[{idx}]"
    kind = _required(cdef, "check", where)
    target_name = _required(cdef, "target", where)
    if not isinstance(kind, str) or kind not in _CHECKS:
        raise ScenarioError(where, f"unknown check {kind!r}")
    for key in cdef:
        _expect(key in ("check", "target", *_FIELDS.get(kind, ())), f"{where}.{key}",
                f"not a field of a {kind} check")
    types, what, runner = _CHECKS[kind]
    name = f"{kind}({target_name})"
    start = time.perf_counter()
    try:
        target = _resolve(sc, target_name, where)
        _expect(isinstance(target, types()), where, f"target is not {what}")
        report = runner(target, cdef, where)
    except ScenarioError:
        raise
    except ExprError as exc:
        ms = (time.perf_counter() - start) * 1000.0
        return CheckOutcome(name, "Error", False, 0.0, [str(exc)], ms,
                            [f"[FAIL] precondition failure: {exc}"])
    return _report_outcome(name, report, start)


def run(sc: Scenario) -> list[CheckOutcome]:
    """Execute all checks in declaration order, continuing past failures."""
    outcomes = []
    for idx, cdef in enumerate(sc.checks):
        _expect(isinstance(cdef, dict), f"checks[{idx}]", "expected an object")
        outcomes.append(_run_check(sc, cdef, idx))
    return outcomes


# construction -> (accepted target types, what the target must be, builder)
_DERIVE = {
    "jacobi": (*_CONTACT, lambda t: t.jacobi),
    "poissonize": (lambda: (TwistedContact, TwistedJacobi), _JACOBI[1], lambda t: (
        t.jacobi if isinstance(t, TwistedContact) else t).poissonization),
    "pair_groupoid": (*_CONTACT, lambda t: _groupoid.pair_groupoid(t)),
    "induced_base": (*_GROUPOID, lambda t: t.induced_base),
}


def derive(sc: Scenario, object_name: str, construction: str) -> dict:
    """Build a derived structure and return a self-contained scenario
    fragment (charts plus one structure definition), which re-parses."""
    target = _resolve(sc, object_name, "derive")
    if construction not in _DERIVE:
        raise ScenarioError("derive", f"unknown construction {construction!r}")
    types, what, build = _DERIVE[construction]
    _expect(isinstance(target, types()), "derive", f"{construction} needs {what}")
    registry = dict(sc.charts)
    sdef = render_structure(build(target), registry)
    chart_names = {sdef[k] for k in _CHART_FIELDS if k in sdef}
    charts = {n: list(ch.coords) for n, ch in registry.items() if n in chart_names}
    return {
        "charts": charts,
        "structures": {f"{object_name}.{construction}": sdef},
    }
