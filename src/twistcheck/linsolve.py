"""Exact linear solving over the chart expression ring.

Forward elimination cross-multiplies rows (row_j * pivot - row_r * f) while
all remaining entries are denominator-free, so they stay polynomial, and falls
back to plain quotient arithmetic otherwise.  This is not Bareiss
elimination: nothing is divided by the previous pivot, so entries grow with
every step.  Every pivot choice records a nonvanishing assumption for the
final report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Chart, Expr, ExprError

__all__ = ["LinearSolveError", "Solution", "solve"]


class LinearSolveError(ExprError):
    pass


@dataclass
class Solution:
    values: list[list[Expr]]
    assumptions: list[str] = field(default_factory=list)


def _pick_pivot(rows, r, c):
    """Prefer nonzero constants, then denominator-free entries, then anything."""
    best = None
    for i in range(r, len(rows)):
        e = rows[i][c]
        if e.is_symbolic_zero:
            continue
        cv = e.constant_value()
        score = 0 if cv is not None else (1 if not e.has_denominator else 2)
        if best is None or score < best[1]:
            best = (i, score)
            if score == 0:
                break
    return None if best is None else best[0]


def solve(a: list[list[Expr]], b: list[list[Expr]], chart: Chart) -> Solution:
    """Solve A X = B column-wise; A is m x n, B is m x k.

    Returns the unique solution as an n x k matrix ``values``, one column per
    column of B (free variables are rejected), and raises
    LinearSolveError when the system is inconsistent or underdetermined.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b else 0
    rows = [[a[i][j] for j in range(n)] + [b[i][j] for j in range(k)] for i in range(m)]
    assumptions: list[str] = []
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        i = _pick_pivot(rows, r, c)
        if i is None:
            continue
        if i != r:
            rows[i], rows[r] = rows[r], rows[i]
        piv = rows[r][c]
        if piv.constant_value() is None:
            assumptions.append(f"pivot nonvanishing: {piv}")
        fraction_free = not any(
            rows[j][t].has_denominator for j in range(r, m) for t in range(c, n + k)
        )
        for j in range(r + 1, m):
            if rows[j][c].is_symbolic_zero:
                continue
            if fraction_free:
                # cross-multiplication keeps entries polynomial; without a
                # division by the previous pivot their degree grows each step
                f = rows[j][c]
                for t in range(c, n + k):
                    rows[j][t] = rows[j][t] * piv - rows[r][t] * f
            else:
                f = rows[j][c] / piv
                for t in range(c, n + k):
                    rows[j][t] = rows[j][t] - rows[r][t] * f
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    piv_cols = {c for _, c in pivots}
    if len(piv_cols) < n:
        missing = sorted(set(range(n)) - piv_cols)
        raise LinearSolveError(f"underdetermined system: free columns {missing}")
    for j in range(r, m):
        for t in range(k):
            if not rows[j][n + t].is_symbolic_zero:
                raise LinearSolveError("inconsistent system: nonzero residual row")
    # back substitution
    sol = [[Expr.zero(chart) for _ in range(k)] for _ in range(n)]
    for rr, c in reversed(pivots):
        piv = rows[rr][c]
        for t in range(k):
            s = rows[rr][n + t]
            for c2 in range(c + 1, n):
                s = s - rows[rr][c2] * sol[c2][t]
            sol[c][t] = s / piv
    return Solution(values=sol, assumptions=assumptions)
