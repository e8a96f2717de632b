"""Check reports: named residual verdicts with assumptions and notes, the
record of a check that ``--json`` writes, and the text report rendered from
that record."""

from __future__ import annotations

from .expr import NONZERO, SYMBOLIC_ZERO, Expr, Verdict, is_zero, nonzero_conditions

__all__ = [
    "CheckItem",
    "CheckReport",
    "render",
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

    def record(self) -> dict:
        """Label, verdict kind and assumptions, and a NonZero item's witness
        and the value there, if it has one; reading them runs the search."""
        v = self.verdict
        record = {"label": self.name, "verdict": v.kind, "assumptions": list(v.assumptions)}
        if v.witness is not None:
            record.update(witness=list(v.witness), value=v.value)
        return record


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

    def note_domain(self, what: str, conditions: list[str]) -> None:
        """Note where ``what`` is defined, unless that is everywhere."""
        if conditions:
            self.note(f"{what} defined where {', '.join(conditions)}")

    def merge(self, other: "CheckReport") -> None:
        self.items.extend(other.items)
        self.notes.extend(other.notes)

    @property
    def assumptions(self) -> list[str]:
        seen: list[str] = []
        for item in self.items:
            for a in item.verdict.assumptions:
                if a not in seen:
                    seen.append(a)
        return seen

    def record(self, name: str) -> dict:
        """The record of the check ``name``: the whole report, as ``--json``
        writes it and ``render`` prints it.  Its verdict is that of the first
        failing item, SymbolicZero when none fails; ``max_residual`` is the
        largest |value| at an item's witness, 0.0 when no item has one.
        ``ms`` is 0.0 until the caller, which times the check, sets it."""
        items = [item.record() for item in self.items]
        return {
            "name": name,
            "title": self.title,
            "verdict": next((i["verdict"] for i in items if i["verdict"] != SYMBOLIC_ZERO),
                            SYMBOLIC_ZERO),
            "max_residual": max((abs(i["value"]) for i in items if "value" in i), default=0.0),
            "assumptions": self.assumptions,
            "notes": list(self.notes),
            "items": items,
            "ms": 0.0,
        }


def render(record: dict) -> str:
    """The text report of a check's record: its verdict line, then a line
    per item, note and assumption."""
    status = {SYMBOLIC_ZERO: "[PASS]"}
    lines = [f"{status.get(record['verdict'], '[FAIL]')} {record['name']}: {record['verdict']}"
             f" (max residual {record['max_residual']:.3e}, {record['ms']:.1f} ms)"]
    for item in record["items"]:
        kind, parts = item["verdict"], item["assumptions"]
        if "witness" in item:
            parts = [f"witness={tuple(item['witness'])}", f"value={item['value']:.3e}", *parts]
        text = ", ".join(parts)  # the message of an Error
        if kind != "Error":
            text = f"NonZero({text})" if kind == NONZERO else kind
        lines.append(f"    {status.get(kind, '[FAIL]')} {item['label']}: {text}")
    lines += [f"    note: {n}" for n in record["notes"]]
    lines += [f"    assumption: {a}" for a in record["assumptions"]]
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
    fewest terms, and among those one with the fewest conditions.
    """
    comps = [t] if isinstance(t, Expr) else list(t.comps.values())
    comps = [c for c in comps if not c.is_symbolic_zero]
    if not comps:
        return Verdict(NONZERO, assumptions=[f"{what} is identically zero"])
    scored = [(len(c.num), nonzero_conditions(c)) for c in comps]
    conditions = min(scored, key=lambda s: (s[0], len(s[1])))[1]
    domain = f"nonzero where {', '.join(conditions)}" if conditions else "vanishes nowhere"
    return Verdict(SYMBOLIC_ZERO, assumptions=[f"{what} {domain}"])
