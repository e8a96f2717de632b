"""Check reports: named residual verdicts with assumptions and notes."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .expr import (
    NONZERO,
    SAMPLED_ZERO,
    SYMBOLIC_ZERO,
    DEFAULT_TOL,
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
    "nonvanishing_verdict",
]


class CheckItem:
    def __init__(self, name: str, verdict: Verdict):
        self.name = name
        self.verdict = verdict

    @property
    def passed(self) -> bool:
        return self.verdict.passed

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.verdict}"


class CheckReport:
    def __init__(self, title: str):
        self.title = title
        self.items: list[CheckItem] = []
        self.notes: list[str] = []

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
    """SymbolicZero when every component of a form/multivector/pair is, else
    the ``is_zero`` verdict of the first component that is not."""
    if hasattr(t, "primary"):  # pair types
        comps = [*t.primary.comps.values(), *t.secondary.comps.values()]
    else:
        comps = [t] if isinstance(t, Expr) else t.comps.values()
    for c in comps:
        if not c.is_symbolic_zero:
            return is_zero(c, samples, tol)
    return Verdict(SYMBOLIC_ZERO)


def nonvanishing_verdict(
    t,
    samples: Optional[Iterable[Sequence[float]]],
    tol: float,
    what: str,
) -> Verdict:
    """Certify the open condition "t does not vanish" for an Expr or a
    form/multivector ``t``, at ``samples`` or, when None, at the chart's
    default sample points.

    An identically zero ``t`` fails exactly.  Otherwise ``t`` holds at a point
    when its component of largest scaled value |v| / max |term| has
    |v| > tol * max |term|, the scale rule of ``is_zero``'s witness search; the
    first point where it does not is the NonZero witness.  The rule does not
    change when ``t`` is multiplied by a unit c * e^L.  A point where evaluation
    raises EvalError is skipped, and a check whose points are all skipped
    fails.  A pass records the exact ``t`` and the least scaled value over
    the samples.
    """
    comps = [t] if isinstance(t, Expr) else list(t.comps.values())
    comps = [c for c in comps if not c.is_symbolic_zero]
    if not comps:
        return Verdict(NONZERO, assumptions=[f"{what} is identically zero"])
    skipped: list[tuple[float, ...]] = []
    least = math.inf
    for pt in samples if samples is not None else sample_points(t.chart):
        try:
            scaled = [c.eval_scaled(pt) for c in comps]
        except EvalError:
            skipped.append(tuple(pt))
            continue
        v, big = max(scaled, key=lambda vb: abs(vb[0]) / vb[1] if vb[1] else 0.0)
        if not abs(v) > tol * big:
            return Verdict(NONZERO, witness=tuple(pt), value=v, skipped=skipped,
                           assumptions=[f"{what} vanishes at a sample point"])
        least = min(least, abs(v) / big)
    if least == math.inf:
        return Verdict(NONZERO, skipped=skipped, assumptions=["all sample points skipped"])
    return Verdict(SAMPLED_ZERO, skipped=skipped, assumptions=[
        f"{what} nonvanishing: {t}",
        f"minimum scaled |{what}| over samples: {least:.6g}",
    ])
