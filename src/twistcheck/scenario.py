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
                 checks: list[dict]):
        self.charts = charts
        self.structures = structures
        self.checks = checks


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


def render_structure(obj, charts: dict[str, Chart]) -> dict:
    """Scenario-syntax definition of a derived object, which re-parses
    unless it is a bare multivector.  Charts not yet declared are added to
    the passed registry."""
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
    if isinstance(obj, MultiVec):
        return {"type": "multivector", "chart": chart_name(obj.chart),
                "components": _render_comps(obj)}
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


def _build_structure(sc: Scenario, name: str, d: dict):
    where = f"structures.{name}"
    kind = _required(d, "type", where)
    if isinstance(kind, str) and kind in _STRUCTURES:
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
        n = d.get("n", 64)
        _expect(type(n) is int and n > 0, f"{where}.n", f"expected an integer > 0, got {n!r}")
        return _apath.path_from_exprs(j, exprs["gamma"], exprs["zeta"], f, n)
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
    for name, d in structures.items():
        _expect(isinstance(d, dict), f"structures.{name}", "expected an object")
    checks = raw.get("checks", [])
    _expect(isinstance(checks, list), "checks", "expected a list")
    sc = Scenario(charts, dict(structures), list(checks))
    named = [d.get("type") for d in sc.structures.values()]
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


def _report_outcome(name: str, report: CheckReport, call: "_CheckCall",
                    start: float) -> CheckOutcome:
    """The outcome of a report, with one witness search per NonZero item,
    at the check's sample points on the chart of that item's residual; the
    check's ``ms`` runs from ``start`` to the end of the search."""
    for item in report.items:
        residual = item.verdict.residual
        if residual is not None:
            item.verdict.locate(sample_points(residual.chart, call.count, call.seed), call.tol)
    ms = (time.perf_counter() - start) * 1000.0
    verdict = "SymbolicZero" if report.passed else "NonZero"
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
    """One check definition as its runner sees it.  ``tol``, ``count`` and
    ``seed`` shape only the witness search and the A-path limits."""

    def __init__(self, cdef: dict, where: str, tol: float, count: Optional[int], seed: int):
        self.cdef = cdef
        self.where = where
        self.tol = tol
        self.count = DEFAULT_SAMPLES if count is None else count
        self.seed = seed


def _algebroid(target: TwistedJacobi, call: _CheckCall) -> CheckReport:
    chart = target.chart
    sections = [(Form.d_coord(chart, c), Expr.zero(chart)) for c in chart.coords]
    sections.append((Form.zero(chart, 1), Expr.one(chart)))
    extras = call.cdef.get("sections", [])
    _expect(isinstance(extras, list), f"{call.where}.sections", "expected a list of objects")
    for i, extra in enumerate(extras):
        where = f"{call.where}.sections[{i}]"
        _expect(isinstance(extra, dict), where, "expected an object")
        sections.append((
            _parse_tensor(Form, extra.get("zeta", {}), chart, 1, f"{where}.zeta"),
            _parse_expr(extra.get("f", "0"), chart, f"{where}.f"),
        ))
    return check_algebroid(target, sections)


def _poissonization(target, call: _CheckCall) -> CheckReport:
    if isinstance(target, TwistedContact):
        return contact_poissonization_check(target)
    return check_homogeneous(poissonize(target))


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
    "contact": (*_CONTACT, lambda t, c: check_contact(t)),
    "twisted_jacobi": (*_JACOBI, lambda t, c: check_twisted_jacobi(t)),
    "jacobi_from_contact": (*_CONTACT, lambda t, c: jacobi_from_contact(t)[1]),
    "algebroid": (*_JACOBI, _algebroid),
    "homogeneous": (*_HOMOGENEOUS, lambda t, c: check_homogeneous(t)),
    "poissonization": (lambda: (TwistedContact, TwistedJacobi), _JACOBI[1], _poissonization),
    "groupoid_axioms": (*_GROUPOID, lambda t, c: _groupoid.check_axioms(t)),
    "multiplicativity": (*_GROUPOID, lambda t, c: _groupoid.check_multiplicativity(t)),
    "groupoid_properties": (*_GROUPOID, lambda t, c: _groupoid.check_properties(t)),
    "induced_base": (*_GROUPOID, lambda t, c: _groupoid.induced_base_structure(t)[1]),
    "suspension": (*_GROUPOID, lambda t, c: _groupoid.suspend(t)[1]),
    "base_coincidence": (*_GROUPOID, lambda t, c: _groupoid.base_coincidence_check(t)),
    "algebroid_morphism": (*_GROUPOID, lambda t, c: _groupoid.check_algebroid_morphism(t)),
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
        if not isinstance(kind, str) or kind not in _CHECKS:
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
    if isinstance(result, CheckReport):
        return _report_outcome(name, result, call, start)
    ms = (time.perf_counter() - start) * 1000.0
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
    "induced_base": (*_GROUPOID, lambda t: t.induced_base),
}


def derive(sc: Scenario, object_name: str, construction: str) -> dict:
    """Build a derived structure and return a self-contained scenario
    fragment (charts plus one structure definition).  The fragments of
    ``jacobi``, ``poissonize``, ``pair_groupoid`` and ``induced_base`` define
    a structure type and re-parse; those of ``reeb`` and ``bivector`` are
    ``multivector`` fragments, which are not a structure type."""
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
