"""Exact linear solving over the chart expression ring.

A system whose matrix A is denominator-free, with every term of every
nonzero entry on one exp part L != 0, is A = e^L A0 with A0 exp-free: it is
solved as A0 X = B, A0 got by relabelling the exp keys of A's terms, and its
solution is that of A0 times e^-L, again a relabelling.  So the elimination
never sees a unit factor common to the whole matrix, and its pivot search
finds the constants of A0.  The bordered systems of conformal contact
structures (e^L theta, e^L omega) are of this kind.

Gaussian elimination with complete pivoting: each step takes, over every
remaining row and column, a unit c * e^L first (a nonzero constant is
one), then a denominator-free entry, then anything, ties broken by column
and then by row, so the result is deterministic.  Forward elimination
divides by a unit pivot, which keeps polynomials polynomial; by any other
pivot it cross-multiplies rows (row_j * pivot - row_r * f) while all
remaining entries are denominator-free, and falls back to plain quotient
arithmetic otherwise.  This is not Bareiss elimination: nothing is divided
by the previous pivot, so cross-multiplied entries grow with every step.
The pivot rule only keeps entries small; nothing of it is recorded.  Where
the solution is defined is read off its own denominators, as a contact
solution states its domain.
"""

from __future__ import annotations

import operator
from typing import Optional

from .expr import Chart, Expr, ExprError

__all__ = ["LinearSolveError", "solve"]


class LinearSolveError(ExprError):
    pass


def _is_unit(e: Expr) -> bool:
    """c * e^L, constants included: one term, no monomial, no denominator."""
    return not e.has_denominator and len(e.num) == 1 and not any(next(iter(e.num))[0])


def _unit_content(a: list[list[Expr]]) -> Optional[tuple]:
    """The exp part L != 0 of every term of every nonzero entry of a
    denominator-free ``a``, or None when there is no such common part."""
    shift = None
    for row in a:
        for e in row:
            if e.has_denominator:
                return None
            for _, x in e.num:
                if shift is None:
                    shift = x
                elif x != shift:
                    return None
    return shift if shift is not None and any(shift) else None


def _shifted(e: Expr, shift: tuple) -> Expr:
    """e * e^-L for the exp part ``shift`` = L: its numerator's exp keys less
    L.  The denominator, and with it the normal form, is untouched."""
    num = {(m, tuple(map(operator.sub, x, shift))): c for (m, x), c in e.num.items()}
    return Expr._normal(e.chart, num, e.den)


def _pick_pivot(rows, r, cols):
    """The best (row, column) over rows r.. and the unpivoted ``cols``."""
    best = None
    for c in cols:
        for i in range(r, len(rows)):
            e = rows[i][c]
            if e.is_symbolic_zero:
                continue
            score = 0 if _is_unit(e) else 1 + e.has_denominator
            if best is None or score < best[0]:
                best = (score, i, c)
                if score == 0:
                    return i, c
    return None if best is None else best[1:]


def solve(a: list[list[Expr]], b: list[list[Expr]], chart: Chart) -> list[list[Expr]]:
    """Solve A X = B column-wise; A is m x n, B is m x k.

    Returns the unique solution as an n x k matrix, one column per column of
    B (free variables are rejected), and raises LinearSolveError when the
    system is inconsistent or underdetermined.
    """
    shift = _unit_content(a)
    if shift is None:
        return _eliminate(a, b, chart)
    # e^L A0 X = B: X is the solution of A0 X = B times e^-L
    sol = _eliminate([[_shifted(e, shift) for e in row] for row in a], b, chart)
    return [[_shifted(v, shift) for v in col] for col in sol]


def _eliminate(a: list[list[Expr]], b: list[list[Expr]], chart: Chart) -> list[list[Expr]]:
    m = len(a)
    n = len(a[0]) if m else 0
    k = len(b[0]) if b else 0
    rows = [[a[i][j] for j in range(n)] + [b[i][j] for j in range(k)] for i in range(m)]
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
    # back substitution; row r holds zeros in the columns pivoted before it,
    # and a zero entry or solved value contributes nothing
    sol: list[list[Expr]] = [[] for _ in range(n)]
    for r in reversed(range(len(order))):
        row, c = rows[r], order[r]
        used = [c2 for c2 in order[r + 1:] if row[c2].num]
        for t in range(k):
            s = row[n + t]
            for c2 in used:
                if sol[c2][t].num:
                    s = s - row[c2] * sol[c2][t]
            sol[c].append(s / row[c] if s.num else s)
    return sol
