"""Check reports: named residual verdicts with assumptions and notes."""

from __future__ import annotations

from .expr import NONZERO, SYMBOLIC_ZERO, Expr, Verdict, is_zero, nonzero_conditions

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


def tensor_zero_verdict(*parts) -> Verdict:
    """SymbolicZero when every component of every part, an Expr or a
    form/multivector, is; else the ``is_zero`` verdict of the first
    component that is not."""
    for t in parts:
        for c in [t] if isinstance(t, Expr) else t.comps.values():
            if not c.is_symbolic_zero:
                return is_zero(c)
    return Verdict(SYMBOLIC_ZERO)


def nonvanishing_verdict(t, what: str) -> Verdict:
    """Decide the open condition "t does not vanish" for an Expr or a
    form/multivector ``t`` exactly, from the canonical form.

    An identically zero ``t`` fails.  Otherwise ``t`` passes on a stated
    domain, where a chosen nonzero component c does not vanish: the
    numerator of c is u * x^m * p with u = c0 e^L a unit and x^m its
    monomial content (``numerator_content``), so c != 0 wherever p != 0 and
    x_i != 0 for each x_i in x^m, off the zeros of its denominator.  A
    component that is a unit vanishes nowhere; else c is one with the
    fewest terms, and among those one with the fewest conditions.  The pass
    records the exact ``t`` and the domain.
    """
    comps = [t] if isinstance(t, Expr) else list(t.comps.values())
    comps = [c for c in comps if not c.is_symbolic_zero]
    if not comps:
        return Verdict(NONZERO, assumptions=[f"{what} is identically zero"])
    scored = [(len(c.num), nonzero_conditions(c)) for c in comps]
    conditions = min(scored, key=lambda s: (s[0], len(s[1])))[1]
    domain = f"nonzero where {', '.join(conditions)}" if conditions else "vanishes nowhere"
    return Verdict(SYMBOLIC_ZERO, assumptions=[f"{what} nonvanishing: {t}", f"{what} {domain}"])
