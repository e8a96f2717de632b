"""A-paths of the algebroid attached to a twisted Jacobi structure, checked
exactly: the anchor equation along the path and the integral of the
canonical cocycle section (-E, 0) over it (Crainic-Fernandes, Ann. of
Math. 157 (2003)).

A path is its expressions on a one-coordinate parameter chart: a base curve
gamma in the structure's chart, a covector field zeta along it and a scalar
component f, for t in [0, 1].

The anchor check reads gamma' = (Lambda#zeta + f E)(gamma): the component
of gamma' - (Lambda#zeta + f E)(gamma) along each chart coordinate, built
with ``Expr.subst`` and ``diff``, is one item decided by
``tensor_zero_verdict``.  The cocycle integral of -<zeta, E(gamma)> over
[0, 1] is exact term by term when the integrand is a poly-exp with no
denominator; for a term t^m e^{a0 + a t},

    I_0 = (e^{a0 + a} - e^{a0}) / a,   I_m = (e^{a0 + a} - m I_{m-1}) / a
                                                                (a != 0),
    I_m = e^{a0} / (m + 1)                                      (a == 0).

An integrand with a denominator is a precondition error.
"""

from __future__ import annotations

from typing import Sequence

from .expr import Chart, Expr, ExprError, Rat
from .jacobi import TwistedJacobi
from .report import CheckReport, tensor_zero_verdict

__all__ = [
    "APath",
    "path_from_exprs",
    "anchor_residual",
    "cocycle_integral",
]


class APath:
    def __init__(self, j: TwistedJacobi, gamma: tuple[Expr, ...], zeta: tuple[Expr, ...],
                 f: Expr):
        self.j = j
        self.gamma = gamma  # one base coordinate per chart coordinate
        self.zeta = zeta  # one covector component per chart coordinate
        self.f = f
        self.param: Chart = f.chart


def path_from_exprs(
    j: TwistedJacobi,
    gamma: Sequence[Expr],
    zeta: Sequence[Expr],
    f: Expr,
) -> APath:
    """The path with these expressions on a one-coordinate parameter chart."""
    dim = j.chart.dim
    if len(gamma) != dim or len(zeta) != dim:
        raise ExprError("gamma and zeta need one expression per chart coordinate")
    if f.chart.dim != 1 or any(e.chart != f.chart for e in (*gamma, *zeta)):
        raise ExprError("gamma, zeta and f must live on one one-coordinate parameter chart")
    return APath(j, tuple(gamma), tuple(zeta), f)


def anchor_residual(c: APath) -> CheckReport:
    """gamma' - (Lambda#zeta + f E)(gamma) along each chart coordinate, with
    (Lambda#zeta)^b = sum_a zeta_a Lambda^{ab}."""
    j, t = c.j, c.param.coords[0]
    res = [g.diff(t) for g in c.gamma]
    for (b,), comp in j.e.comps.items():
        res[b] -= c.f * comp.subst(c.param, c.gamma)
    for (a, b), comp in j.lam.comps.items():
        v = comp.subst(c.param, c.gamma)
        res[b] -= c.zeta[a] * v
        res[a] += c.zeta[b] * v
    report = CheckReport(f"anchor along the path on {c.param.name}")
    for coord, r in zip(j.chart.coords, res):
        report.add(f"anchor residual d/d{coord}", tensor_zero_verdict(r))
    return report


def _power_exp_integral(chart: Chart, m: int, a0: Rat, a: Rat) -> Expr:
    """The integral of t^m e^{a0 + a t} over [0, 1], a constant on ``chart``."""
    start = Expr.exp(Expr.const(chart, a0))
    if not a:
        return start / (m + 1)
    end = Expr.exp(Expr.const(chart, a0 + a))
    out = (end - start) / a
    for k in range(1, m + 1):
        out = (end - out * k) / a
    return out


def cocycle_integral(c: APath) -> Expr:
    """The integral over [0, 1] of the path paired with the canonical cocycle
    section (-E, 0), -<zeta, E(gamma)>, exactly: a constant on the parameter
    chart."""
    integrand = Expr.zero(c.param)
    for (k,), comp in c.j.e.comps.items():
        integrand -= c.zeta[k] * comp.subst(c.param, c.gamma)
    if integrand.has_denominator:
        raise ExprError(f"the cocycle integrand {integrand} has a denominator; "
                        "only a poly-exp integrand is integrated exactly")
    total = Expr.zero(c.param)
    for ((m,), (a0, a)), coef in integrand.num.items():
        total += _power_exp_integral(c.param, m, a0, a) * coef
    return total
