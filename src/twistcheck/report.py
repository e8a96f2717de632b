"""Check reports: named residual verdicts with assumptions and notes."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .expr import (
    NONZERO,
    SAMPLED_ZERO,
    SYMBOLIC_ZERO,
    DEFAULT_TOL,
    Chart,
    EvalError,
    Expr,
    Verdict,
    is_zero,
    sample_points,
)

__all__ = [
    "CheckItem",
    "CheckReport",
    "tensor_zero_verdict",
    "sampled_open_condition",
    "two_form_matrix",
    "det",
    "rank",
]


@dataclass
class CheckItem:
    name: str
    verdict: Verdict

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.verdict}"


@dataclass
class CheckReport:
    title: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, name: str, verdict: Verdict) -> None:
        self.items.append(CheckItem(name, verdict))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def merge(self, other: "CheckReport") -> None:
        self.items.extend(other.items)
        self.notes.extend(other.notes)

    @property
    def max_residual(self) -> float:
        return max((item.verdict.max_residual for item in self.items), default=0.0)

    @property
    def assumptions(self) -> list[str]:
        seen: list[str] = []
        for item in self.items:
            for a in item.verdict.assumptions:
                if a not in seen:
                    seen.append(a)
        return seen

    def summary(self) -> str:
        lines = [f"== {self.title} =="]
        lines += [f"  note: {n}" for n in self.notes]
        lines += ["  " + item.line() for item in self.items]
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def tensor_zero_verdict(
    t,
    samples: Optional[Iterable[Sequence[float]]] = None,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Aggregate component-wise zero verdicts of a form/multivector/pair."""
    comps: list[Expr]
    if hasattr(t, "primary"):  # pair types
        comps = list(t.primary.comps.values()) + list(t.secondary.comps.values())
    elif isinstance(t, Expr):
        comps = [t]
    else:
        comps = list(t.comps.values())
    pts = list(samples) if samples is not None else None
    worst: Optional[Verdict] = None
    sampled = False
    max_res = 0.0
    assumptions: list[str] = []
    for c in comps:
        v = is_zero(c, samples=pts, tol=tol)
        if v.kind == NONZERO:
            return v
        if v.kind == SAMPLED_ZERO:
            sampled = True
        max_res = max(max_res, v.max_residual)
        for a in v.assumptions:
            if a not in assumptions:
                assumptions.append(a)
    out = Verdict(SAMPLED_ZERO if sampled else SYMBOLIC_ZERO)
    out.max_residual = max_res
    out.assumptions = assumptions
    return out


def sampled_open_condition(
    chart: Chart,
    samples: Optional[Iterable[Sequence[float]]],
    value: Callable[[Sequence[float]], float],
    holds: Callable[[float], bool],
    failure: Callable[[float], list[str]],
) -> Verdict:
    """Certify an open condition at ``samples``, or at the chart's default
    sample points when ``samples`` is None.

    ``value`` is computed at each point; a point where it raises EvalError is
    recorded as skipped.  The first tested value that fails ``holds`` gives a
    NonZero verdict with that point as witness, the value, and the
    assumptions ``failure(value)``.  Otherwise the verdict is SampledZero,
    unless every point was skipped, which fails.
    """
    skipped: list[tuple[float, ...]] = []
    tested = 0
    for pt in samples if samples is not None else sample_points(chart):
        try:
            v = value(pt)
        except EvalError:
            skipped.append(tuple(pt))
            continue
        tested += 1
        if not holds(v):
            return Verdict(NONZERO, witness=tuple(pt), value=v, skipped=skipped,
                           assumptions=failure(v))
    if tested == 0:
        return Verdict(NONZERO, skipped=skipped, assumptions=["all sample points skipped"])
    return Verdict(SAMPLED_ZERO, skipped=skipped)


def two_form_matrix(form, point: Sequence[float]) -> list[list[float]]:
    """The antisymmetric matrix of a 2-form's components at a point."""
    n = form.chart.dim
    mat = [[0.0] * n for _ in range(n)]
    for (a, b), c in form.comps.items():
        v = c.eval(point)
        mat[a][b] = v
        mat[b][a] = -v
    return mat


def det(mat: Sequence[Sequence[float]]) -> float:
    """Determinant of a square float matrix by Gaussian elimination with
    partial pivoting (the LU factorization of LAPACK getrf): the product of
    the pivots, negated once per row swap.  NaN when an entry is not finite,
    so that no open condition holds there."""
    a = [list(map(float, row)) for row in mat]
    if not all(map(math.isfinite, itertools.chain.from_iterable(a))):
        return math.nan
    out = 1.0
    for k in range(len(a)):
        col = [abs(row[k]) for row in a[k:]]
        p = k + col.index(max(col))  # the first largest, as LAPACK idamax
        pivot = a[p][k]
        if pivot == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= pivot
        tail = a[k][k + 1 :]
        for row in a[k + 1 :]:
            f = row[k] / pivot
            if f:
                row[k + 1 :] = [x - f * y for x, y in zip(row[k + 1 :], tail)]
    return out


_EPS2 = 2.0**-104  # squared double-precision epsilon
_MAX_SWEEPS = 30


def rank(mat: Sequence[Sequence[float]], tol: float) -> int:
    """The number of singular values above ``tol``, as
    ``numpy.linalg.matrix_rank(mat, tol=tol)`` defines it; a column with a
    non-finite entry is not counted.

    One-sided Jacobi (Hestenes 1958): plane rotations of column pairs until
    every pair is orthogonal to working precision; the singular values are
    then the column norms, each accurate to about eps times the largest.
    Zero rows are dropped first, which changes no singular value.  Squared
    norms are recomputed at the start of each sweep and updated by the
    rotation formulas within it, so a pair costs one dot product.
    """
    cols = [list(map(float, c)) for c in zip(*(row for row in mat if any(row)))]
    cols = [c for c in cols if all(map(math.isfinite, c))]
    if cols and len(cols) > len(cols[0]):
        cols = [list(r) for r in zip(*cols)]  # the transpose has the same rank
    for _ in range(_MAX_SWEEPS):
        norms = [sum(map(operator.mul, c, c)) for c in cols]
        rotated = False
        for i, ci in enumerate(cols):
            for j in range(i + 1, len(cols)):
                cj = cols[j]
                g = sum(map(operator.mul, ci, cj))
                a, b = norms[i], norms[j]
                if g * g <= _EPS2 * a * b:
                    continue
                rotated = True
                # the rotation that zeroes the (i, j) entry of the Gram matrix
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                ci, cols[j] = ([c * x - s * y for x, y in zip(ci, cj)],
                               [s * x + c * y for x, y in zip(ci, cj)])
                norms[i], norms[j] = a - t * g, b + t * g
            cols[i] = ci
        if not rotated:
            break
    else:
        norms = [sum(map(operator.mul, c, c)) for c in cols]
    return sum(math.sqrt(v) > tol for v in norms)
