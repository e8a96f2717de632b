"""Exact linear solving over the chart expression ring.

Gaussian elimination with complete pivoting: each step takes, over every
remaining row and column, a nonzero constant first, then a denominator-free
entry, then anything, ties broken by column and then by row, so the result
is deterministic.  Forward elimination divides by a unit pivot c * e^L,
which keeps polynomials polynomial; by any other pivot it cross-multiplies
rows (row_j * pivot - row_r * f) while all remaining entries are
denominator-free, and falls back to plain quotient arithmetic otherwise.
This is not Bareiss elimination: nothing is divided by the previous pivot,
so cross-multiplied entries grow with every step.  A pivot that may vanish
somewhere records a nonvanishing assumption for the final report; a unit
never vanishes and records none, and neither does a pivot that is a unit
multiple of one already recorded.
"""

from __future__ import annotations

from typing import Optional

from .expr import Chart, Expr, ExprError

__all__ = ["LinearSolveError", "Solution", "solve"]


class LinearSolveError(ExprError):
    pass


class Solution:
    def __init__(self, values: list[list[Expr]], assumptions: Optional[list[str]] = None):
        self.values = values
        self.assumptions = [] if assumptions is None else assumptions


def _is_unit(e: Expr) -> bool:
    """c * e^L, constants included: one term, no monomial, no denominator."""
    return not e.has_denominator and len(e.num) == 1 and not any(next(iter(e.num))[0])


def _pick_pivot(rows, r, cols):
    """The best (row, column) over rows r.. and the unpivoted ``cols``."""
    best = None
    for c in cols:
        for i in range(r, len(rows)):
            e = rows[i][c]
            if e.is_symbolic_zero:
                continue
            score = 0 if e.constant_value() is not None else 1 + e.has_denominator
            if best is None or score < best[0]:
                best = (score, i, c)
                if score == 0:
                    return i, c
    return None if best is None else best[1:]


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
    noted: list[Expr] = []  # the pivots behind ``assumptions``
    order: list[int] = []  # the pivot column of each row, in row order
    free = list(range(n))
    rhs = range(n, n + k)
    for r in range(m):
        found = _pick_pivot(rows, r, free)
        if found is None:
            break
        i, c = found
        rows[i], rows[r] = rows[r], rows[i]
        free.remove(c)
        order.append(c)
        piv = rows[r][c]
        unit = _is_unit(piv)
        # a unit multiple of a noted pivot vanishes where that pivot does
        if not unit and not any(_is_unit(piv / q) for q in noted):
            noted.append(piv)
            assumptions.append(f"pivot nonvanishing: {piv}")
        live = (*free, *rhs)
        fraction_free = not unit and not any(
            rows[j][t].has_denominator for j in range(r, m) for t in (c, *live)
        )
        used = [t for t in live if rows[r][t].num]
        for j in range(r + 1, m):
            f = rows[j][c]
            if f.is_symbolic_zero:
                continue
            rows[j][c] = Expr.zero(chart)
            if fraction_free:
                for t in live:
                    rows[j][t] = rows[j][t] * piv - rows[r][t] * f
            else:
                f = f / piv
                for t in used:
                    rows[j][t] = rows[j][t] - rows[r][t] * f
    if free:
        raise LinearSolveError(f"underdetermined system: free columns {free}")
    for j in range(len(order), m):
        for t in rhs:
            if not rows[j][t].is_symbolic_zero:
                raise LinearSolveError("inconsistent system: nonzero residual row")
    # back substitution; row r holds zeros in the columns pivoted before it
    sol: list[list[Expr]] = [[] for _ in range(n)]
    for r in reversed(range(len(order))):
        row, c = rows[r], order[r]
        used = [c2 for c2 in order[r + 1:] if row[c2].num]
        for t in range(k):
            s = row[n + t]
            for c2 in used:
                s = s - row[c2] * sol[c2][t]
            sol[c].append(s / row[c])
    return Solution(values=sol, assumptions=assumptions)
