"""Discretized A-paths for the algebroid attached to a twisted Jacobi
structure: anchor-compatibility residuals and cocycle integration against
the section (-E, 0).

A path is the samples of its expressions: a base curve gamma in the chart,
a covector field zeta along it and a scalar component f, each evaluated at
n + 1 uniform times on [0, 1].  The checks read these samples and nothing
else.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .expr import Expr, ExprError
from .jacobi import TwistedJacobi

__all__ = [
    "APath",
    "path_from_exprs",
    "anchor_residual",
    "cocycle_integral",
]

Point = tuple[float, ...]

# what a segment count must be: Simpson's rule needs an even count
SEGMENTS = "an even integer >= 8"


def is_segment_count(n: object) -> bool:
    return type(n) is int and n >= 8 and n % 2 == 0


def _check_segments(n: int) -> None:
    if not is_segment_count(n):
        raise ExprError(f"an A-path's segment count must be {SEGMENTS}, got {n!r}")


def _times(n: int) -> list[float]:
    """n + 1 uniform times on [0, 1]: numpy.linspace(0, 1, n + 1) bit for bit."""
    step = 1.0 / n
    return [i * step for i in range(n)] + [1.0]


def _point(values: Sequence[float]) -> Point:
    return tuple(map(float, values))


class APath:
    def __init__(
        self,
        j: TwistedJacobi,
        gamma: Sequence[Point],  # n+1 base points
        zeta: Sequence[Point],  # n+1 covector component tuples
        f: Sequence[float],  # n+1 scalar components
    ):
        self.j = j
        self.gamma = [_point(p) for p in gamma]
        self.zeta = [_point(z) for z in zeta]
        self.f = [float(v) for v in f]
        dim = j.chart.dim
        n = len(self.gamma) - 1
        _check_segments(n)
        if len(self.zeta) != n + 1 or any(len(p) != dim for p in self.gamma + self.zeta):
            raise ExprError("gamma and zeta must be n+1 points of the chart's dimension")
        if len(self.f) != n + 1:
            raise ExprError("f must have n+1 values")
        if max(abs(v) for p in self.gamma for v in p) > 1.0 + 1e-12:
            raise ExprError("base points must stay inside the unit sample box")

    @property
    def n(self) -> int:
        return len(self.gamma) - 1


def path_from_exprs(
    j: TwistedJacobi,
    gamma: Sequence[Expr],
    zeta: Sequence[Expr],
    f: Expr,
    n: int = 64,
) -> APath:
    """The path sampled from expressions on a one-coordinate chart at n + 1
    uniform times."""
    dim = j.chart.dim
    if len(gamma) != dim or len(zeta) != dim:
        raise ExprError("gamma and zeta need one expression per chart coordinate")
    _check_segments(n)
    times = [(t,) for t in _times(n)]
    return APath(j, [tuple(g.eval(pt) for g in gamma) for pt in times],
                 [tuple(z.eval(pt) for z in zeta) for pt in times],
                 [f.eval(pt) for pt in times])


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
    (-E, 0): composite Simpson quadrature of -<zeta(t), E(gamma(t))>."""
    e = c.j.e.comps.items()
    return _simpson([-sum(z[k] * comp.eval(g) for (k,), comp in e)
                     for g, z in zip(c.gamma, c.zeta)])
