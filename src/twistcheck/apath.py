"""Discretized A-paths for the algebroid attached to a twisted Jacobi
structure: anchor-compatibility residuals, cocycle integration against the
section (-E, 0), two-speed concatenation, and reparameterization.

A path is stored as uniform samples on [0, 1] of a base curve gamma in the
chart, a covector field zeta along it, and a scalar component f, together
with the sampler callable they were taken from.  The sampler gives exact
values at any time, so concatenation and reparameterization resample the
source paths without interpolation error.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from .expr import Expr, ExprError
from .jacobi import TwistedJacobi

__all__ = [
    "APath",
    "Sampler",
    "path_from_exprs",
    "anchor_residual",
    "cocycle_integral",
    "concatenate",
    "reparameterize",
]

Point = tuple[float, ...]
# sampler: t in [0,1] -> (gamma(t), zeta(t), f(t))
Sampler = Callable[[float], tuple[Sequence[float], Sequence[float], float]]


def _times(n: int) -> list[float]:
    """n + 1 uniform times on [0, 1]: numpy.linspace(0, 1, n + 1) bit for bit."""
    step = 1.0 / n
    return [i * step for i in range(n)] + [1.0]


def _point(values: Sequence[float]) -> Point:
    return tuple(map(float, values))


def _scaled(c: float, values: Sequence[float]) -> Point:
    return tuple(c * v for v in values)


class APath:
    def __init__(
        self,
        j: TwistedJacobi,
        gamma: Sequence[Point],  # n+1 base points
        zeta: Sequence[Point],  # n+1 covector component tuples
        f: Sequence[float],  # n+1 scalar components
        sampler: Sampler,
    ):
        self.j = j
        self.gamma = [_point(p) for p in gamma]
        self.zeta = [_point(z) for z in zeta]
        self.f = [float(v) for v in f]
        self.sampler = sampler
        # set by concatenate: the integrand may jump at the junction, so
        # integration runs over the halves separately
        self.halves = None
        dim = j.chart.dim
        n = len(self.gamma) - 1
        if n < 8 or n % 2 != 0:
            raise ExprError("an A-path needs at least 8 segments, an even count")
        if len(self.zeta) != n + 1 or any(len(p) != dim for p in self.gamma + self.zeta):
            raise ExprError("gamma and zeta must be n+1 points of the chart's dimension")
        if len(self.f) != n + 1:
            raise ExprError("f must have n+1 values")
        if max(abs(v) for p in self.gamma for v in p) > 1.0 + 1e-12:
            raise ExprError("base points must stay inside the unit sample box")

    @property
    def n(self) -> int:
        return len(self.gamma) - 1

    def at(self, t: float) -> tuple[Point, Point, float]:
        """The sampler's exact values at time t."""
        g, z, fv = self.sampler(t)
        return _point(g), _point(z), float(fv)


def from_sampler(j: TwistedJacobi, sampler: Sampler, n: int = 64) -> APath:
    rows = [sampler(t) for t in _times(n)]
    return APath(j, [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], sampler)


def path_from_exprs(
    j: TwistedJacobi,
    gamma: Sequence[Expr],
    zeta: Sequence[Expr],
    f: Expr,
    n: int = 64,
) -> APath:
    """Closed-form path data: expressions on a one-coordinate chart, sampled
    on load and kept as the exact sampler."""
    dim = j.chart.dim
    if len(gamma) != dim or len(zeta) != dim:
        raise ExprError("gamma and zeta need one expression per chart coordinate")

    def sampler(t: float):
        pt = (t,)
        return (
            tuple(g.eval(pt) for g in gamma),
            tuple(z.eval(pt) for z in zeta),
            f.eval(pt),
        )

    return from_sampler(j, sampler, n)


def _anchor_at(j: TwistedJacobi, point: Point, zeta: Point, fv: float) -> list[float]:
    """The anchor image Lambda#(zeta) + f E evaluated numerically, walking the
    stored components: (Lambda#zeta)^b = sum_a zeta_a Lambda^{ab}."""
    out = [0.0] * j.chart.dim
    for (b,), c in j.e.comps.items():
        out[b] = fv * c.eval(point)
    for (a, b), c in j.lam.comps.items():
        v = c.eval(point)
        out[b] += zeta[a] * v
        out[a] += zeta[b] * -v
    return out


def anchor_residual(c: APath) -> float:
    """Max-norm mismatch between the anchor image of the section values and
    the central-difference velocity of the base path, over interior samples."""
    h = 1.0 / c.n
    worst = 0.0
    for i in range(1, c.n):
        vel = [(q - p) / (2.0 * h) for p, q in zip(c.gamma[i - 1], c.gamma[i + 1])]
        anchor = _anchor_at(c.j, c.gamma[i], c.zeta[i], c.f[i])
        worst = max(worst, max(abs(a - v) for a, v in zip(anchor, vel)))
    return worst


def _simpson(values: Sequence[float]) -> float:
    """Composite Simpson rule on [0, 1] over an even number of segments."""
    n = len(values) - 1
    h = 1.0 / n
    weights = [1.0] + [4.0, 2.0] * (n // 2 - 1) + [4.0, 1.0]
    return h / 3.0 * math.fsum(map(operator.mul, weights, values))


def cocycle_integral(c: APath) -> float:
    """Integral of the path paired with the canonical cocycle section
    (-E, 0): composite Simpson quadrature of -<zeta(t), E(gamma(t))>.

    Concatenations integrate half by half, which keeps the quadrature away
    from the junction discontinuity and makes additivity exact."""
    if c.halves is not None:
        return sum(cocycle_integral(h) for h in c.halves)
    e = c.j.e.comps.items()
    return _simpson([-sum(z[k] * comp.eval(g) for (k,), comp in e)
                     for g, z in zip(c.gamma, c.zeta)])


def concatenate(c0: APath, c1: APath) -> APath:
    """Two-speed concatenation: run c0 on [0, 1/2] and c1 on [1/2, 1], with
    the section values doubled to keep the anchor equation."""
    if c0.j is not c1.j and c0.j.chart != c1.j.chart:
        raise ExprError("paths live over different structures")
    if max(abs(q - p) for p, q in zip(c0.gamma[-1], c1.gamma[0])) > 1e-9:
        raise ExprError("paths are not composable: endpoint mismatch")

    def sampler(t: float):
        if t <= 0.5:
            g, z, fv = c0.at(min(2.0 * t, 1.0))
        else:
            g, z, fv = c1.at(2.0 * t - 1.0)
        return g, _scaled(2.0, z), 2.0 * fv

    out = from_sampler(c0.j, sampler, max(c0.n, c1.n))
    out.halves = (c0, c1)
    return out


def reparameterize(c: APath, tau: Expr) -> APath:
    """Time change by a monotone cutoff tau on [0, 1]: the base path becomes
    gamma(tau(t)) and the section values pick up the factor tau'(t)."""
    chart = tau.chart
    if chart.dim != 1:
        raise ExprError("tau must live on a one-coordinate chart")
    coord = chart.coords[0]
    dtau = tau.diff(coord)
    if abs(tau.eval((0.0,))) > 1e-12 or abs(tau.eval((1.0,)) - 1.0) > 1e-12:
        raise ExprError("tau must fix the endpoints: tau(0)=0, tau(1)=1")
    for t in _times(4 * c.n):
        if dtau.eval((t,)) < -1e-12:
            raise ExprError(f"tau is not monotone: tau'({t}) < 0")

    def sampler(t: float):
        u = min(max(tau.eval((t,)), 0.0), 1.0)
        speed = dtau.eval((t,))
        g, z, fv = c.at(u)
        return g, _scaled(speed, z), speed * fv

    return from_sampler(c.j, sampler, c.n)
