"""Exact symbolic scalar expressions on coordinate charts.

The canonical form is a quotient of "poly-exp" polynomials: finite sums of
terms ``c * x^m * exp(L)`` where ``c`` is a rational, ``m`` a monomial and
``L`` an affine form in the chart coordinates with rational coefficients.
Every rational, coefficient or exp exponent, is stored as an ``int`` when it
is integral and as a ``rational.Rational`` otherwise, so the common integer
arithmetic stays in machine ints and no other rational needs ``Fraction``.
Products of exponentials merge their affine arguments, so everything built
from ``e^{-r}``, ``e^s`` and polynomial data stays inside the class.
Quotients are only kept when the denominator has more than one term;
single-term denominators always cancel into the numerator.

Every Expr without a denominator shares one unit denominator per dimension,
``_unit_den(n)``, so ``has_denominator`` is an identity test.  A sum,
difference or product of two such Exprs is built without normalization:
the ring has no zero divisors and sums drop their zero terms, so the result
is already normal.  A product with one denominator-free factor keeps the
other's denominator, and is still normalized.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterable, Optional, Sequence

from .rational import Rational, div, exact

__all__ = [
    "Chart",
    "Expr",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "is_zero",
    "Verdict",
    "sample_points",
    "numerator_content",
    "nonzero_conditions",
    "denominator_conditions",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    pass


class Chart:
    """An ordered coordinate system. Coordinates must be unique identifiers.

    Immutable; equal and hashed by (name, coords)."""

    __slots__ = ("name", "coords", "dim")

    def __init__(self, name: str, coords: tuple[str, ...]):
        if len(coords) < 1:
            raise ExprError(f"chart {name!r} needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ExprError(f"chart {name!r} has duplicate coordinates")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dim", len(coords))

    def __setattr__(self, *a):
        raise AttributeError("Chart is immutable")

    def __eq__(self, other):
        if other.__class__ is not Chart:
            return NotImplemented
        return self is other or (self.name == other.name and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.name, self.coords))

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise ExprError(f"unknown coordinate {coord!r} on chart {self.name!r}") from None

    def extend(self, *extra: str, name: Optional[str] = None) -> "Chart":
        return Chart(name or f"{self.name}+{'_'.join(extra)}", self.coords + tuple(extra))


# A term key is (monomial exponents, affine exp part).  The exp part has
# length dim+1: (constant, coefficient per coordinate).  Exp exponents and
# term coefficients are exact rationals: an ``int`` whenever integral and a
# ``Rational`` otherwise, which every ``+``, ``-`` and ``*`` of the two keeps,
# so the common keys hash as plain int tuples and the common coefficient
# products and sums stay in machine-int arithmetic.  A ``Rational`` hashes
# like the equal ``Fraction``, so the representation never changes which
# values are equal.  The one trap is true division: ``int / int`` is a float,
# so every coefficient quotient goes through ``rational.div``.
Mon = tuple[int, ...]
Rat = int | Rational
ExpV = tuple[Rat, ...]
Key = tuple[Mon, ExpV]
Poly = dict[Key, Rat]


@functools.cache
def _unit_key(n: int) -> Key:
    return ((0,) * n, (0,) * (n + 1))


@functools.cache
def _unit_den(n: int) -> Poly:
    # shared by every Expr without a denominator: every exit of _normalize
    # with a unit denominator returns this dict, and Expr._normal is only
    # given this one, so has_denominator compares identity; polys are never
    # mutated
    return {_unit_key(n): 1}


def _exp_add(ea: ExpV, eb: ExpV) -> ExpV:
    if not any(eb):
        return ea
    if not any(ea):
        return eb
    return tuple(map(operator.add, ea, eb))


def _exp_sub(ea: ExpV, eb: ExpV) -> ExpV:
    if not any(eb):
        return ea
    return tuple(map(operator.sub, ea, eb))


def _poly_add(a: Poly, b: Poly) -> Poly:
    return _poly_iadd(dict(a), b)


def _poly_iadd(out: Poly, b: Poly) -> Poly:
    """Add b into out in place."""
    for k, c in b.items():
        old = out.get(k)
        if old is None:
            out[k] = c
            continue
        s = old + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _poly_scale(a: Poly, c: Rat) -> Poly:
    if not c:
        return {}
    return {k: v * c for k, v in a.items()}


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (ma, ea), ca in a.items():
        for (mb, eb), cb in b.items():
            key = (tuple(map(operator.add, ma, mb)), _exp_add(ea, eb))
            s = ca * cb
            old = out.get(key)
            if old is not None:
                s = old + s
                if not s:
                    del out[key]
                    continue
            out[key] = s
    return out


def _poly_diff(a: Poly, i: int) -> Poly:
    out: Poly = {}
    for (m, e), c in a.items():
        if m[i]:
            key = (m[:i] + (m[i] - 1,) + m[i + 1 :], e)
            s = out.get(key, 0) + c * m[i]
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        if e[i + 1]:
            s = out.get((m, e), 0) + c * e[i + 1]
            if s:
                out[(m, e)] = s
            else:
                out.pop((m, e), None)
    return out


Move = tuple[Optional[int], Rat]  # (k, c): x_i -> c x_k; (None, a): x_i -> a


def _relocate(a: Poly, moves: dict[int, Move], n: int) -> Poly:
    """a with each coordinate x_i of ``moves`` replaced by c x_k or by a
    constant, on an n-dimensional chart.  A term c0 x^m e^L goes to one term:
    the coefficient gains prod_i c_i^{m_i}, each m_i moves to k and each exp
    coefficient L_i to L_i c_i at k, or to L_i a in the constant part; terms
    that meet are summed in the order the general substitution meets them."""
    out: Poly = {}
    for (m, e), c in a.items():
        mon = [0] * n
        exp = [e[0]] + [0] * n
        for i, (k, s) in moves.items():
            mi, ei = m[i], e[i + 1]
            if k is None:
                if ei:
                    exp[0] += ei * s
            else:
                mon[k] += mi
                if ei:
                    exp[k + 1] += ei * s
            if mi and s != 1:
                if not s:
                    break
                for _ in range(mi):
                    c = c * s
        else:
            key = (tuple(mon), tuple(exp))
            old = out.get(key)
            if old is not None:
                c = old + c
                if not c:
                    del out[key]
                    continue
            out[key] = c
    return out


def _term_divides(da: Key, db: Key) -> bool:
    # exp parts are units, only the monomial must divide
    return all(x <= y for x, y in zip(da[0], db[0]))


def _term_div(num: Key, den: Key) -> Key:
    return (tuple(map(operator.sub, num[0], den[0])), _exp_sub(num[1], den[1]))


def _lead(p: Poly) -> Key:
    # graded-lex over the combined (monomial, exp) exponents; deterministic
    return max(p, key=lambda k: (sum(k[0]), k[0], k[1]))


def _exponent_box(num: Poly, den: Poly) -> tuple[list[Rat], list[Rat]]:
    """Bounds on every monomial and exp exponent of a quotient num / den.

    If num = q * den, then along each exponent coordinate the extreme terms
    of q times those of den give the extremes of num (the ring has no zero
    divisors), so every term of q lies in [min num - min den, max num - max
    den] coordinate by coordinate."""
    ncols = list(zip(*(m + e for m, e in num)))
    dcols = list(zip(*(m + e for m, e in den)))
    return ([min(a) - min(b) for a, b in zip(ncols, dcols)],
            [max(a) - max(b) for a, b in zip(ncols, dcols)])


# division steps before a quotient term is tested against the exponent box;
# every exact division in the bundled workloads ends within 4 steps
_BOX_AFTER_STEPS = 16


def _poly_exact_div(num: Poly, den: Poly) -> Optional[Poly]:
    """Exact division in the poly-exp ring, or None when not divisible."""
    if not num:
        return {}
    quot: Poly = {}
    rem = dict(num)
    dlead = _lead(den)
    dc = den[dlead]
    box = None
    steps = 0
    while rem:
        steps += 1
        if steps > 2000:
            return None
        rlead = _lead(rem)
        if not _term_divides(dlead, rlead):
            return None
        tkey = _term_div(rlead, dlead)
        if steps > _BOX_AFTER_STEPS:
            # a long division builds the box once; the loop only produces
            # terms of q while num is divisible, so a term outside proves it
            # is not
            if box is None:
                box = _exponent_box(num, den)
            lo, hi = box
            if not all(a <= t <= b for a, t, b in zip(lo, tkey[0] + tkey[1], hi)):
                return None
        # each step cancels the leading term, so tkey strictly decreases
        tc = quot[tkey] = div(rem[rlead], dc)
        rem = _poly_add(rem, _poly_mul({tkey: -tc}, den))
    return quot


def _normalize(num: Poly, den: Poly, n: int) -> tuple[Poly, Poly]:
    unit = _unit_key(n)
    if not den:
        raise ExprError("division by symbolic zero")
    if not num:
        return {}, _unit_den(n)
    if den is _unit_den(n) or (len(den) == 1 and den.get(unit) == 1):
        # a polynomial over the unit denominator is already normal
        return num, _unit_den(n)
    if len(den) > 1:
        q = _poly_exact_div(num, den)
        if q is not None:
            num, den = q, _unit_den(n)
    # shift out the exp part of the denominator's reference term
    ref = min(den)
    shift = ref[1]
    if any(shift):
        num = {(m, _exp_sub(e, shift)): c for (m, e), c in num.items()}
        den = {(m, _exp_sub(e, shift)): c for (m, e), c in den.items()}
    # divide out the common monomial content of numerator and denominator
    keys = list(num) + list(den)
    gcd_mon = tuple(min(k[0][i] for k in keys) for i in range(n))
    if any(gcd_mon):
        num = {(tuple(map(operator.sub, m, gcd_mon)), e): c for (m, e), c in num.items()}
        den = {(tuple(map(operator.sub, m, gcd_mon)), e): c for (m, e), c in den.items()}
    # make the denominator's reference coefficient 1
    c = den[min(den)]
    if c != 1:
        inv = div(1, c)
        num = _poly_scale(num, inv)
        den = _poly_scale(den, inv)
    # constant multiple of the denominator collapses to a constant
    if num.keys() == den.keys():
        k0 = next(iter(num))
        ratio = div(num[k0], den[k0])
        if all(num[k] == ratio * den[k] for k in num):
            return ({unit: ratio} if ratio else {}), _unit_den(n)
    if len(den) == 1 and unit in den:
        # content and coefficient normalization left {unit: 1}
        return num, _unit_den(n)
    return num, den


class Expr:
    """Immutable exact scalar on a chart, stored as a normalized quotient."""

    __slots__ = ("chart", "num", "den", "_support")

    def __init__(self, chart: Chart, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = _unit_den(chart.dim)
        num, den = _normalize(num, den, chart.dim)
        _set_chart(self, chart)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _normal(cls, chart: Chart, num: Poly, den: Poly) -> "Expr":
        """An Expr from parts already in normal form; skips _normalize.  A
        unit denominator must be the shared ``_unit_den``."""
        e = object.__new__(cls)
        _set_chart(e, chart)
        _set_num(e, num)
        _set_den(e, den)
        return e

    def __setattr__(self, *a):
        raise AttributeError("Expr is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(chart: Chart, value) -> "Expr":
        c = exact(value)
        n = chart.dim
        return Expr._normal(chart, {_unit_key(n): c} if c else {}, _unit_den(n))

    @staticmethod
    def zero(chart: Chart) -> "Expr":
        return Expr._normal(chart, {}, _unit_den(chart.dim))

    @staticmethod
    def one(chart: Chart) -> "Expr":
        return Expr.const(chart, 1)

    @staticmethod
    def coord(chart: Chart, name: str) -> "Expr":
        i = chart.index(name)
        n = chart.dim
        mon = (0,) * i + (1,) + (0,) * (n - 1 - i)
        return Expr._normal(chart, {(mon, _unit_key(n)[1]): 1}, _unit_den(n))

    @staticmethod
    def exp(arg: "Expr") -> "Expr":
        """exp of an affine combination of coordinates."""
        aff = arg.affine_parts()
        if aff is None:
            raise ExprError("exp argument must be affine in the coordinates")
        n = arg.chart.dim
        key = ((0,) * n, tuple(aff))
        return Expr._normal(arg.chart, {key: 1}, _unit_den(n))

    # -- structure ---------------------------------------------------------

    @property
    def is_symbolic_zero(self) -> bool:
        return not self.num

    @property
    def has_denominator(self) -> bool:
        # every normal unit denominator is the shared one
        return self.den is not _unit_den(self.chart.dim)

    def affine_parts(self) -> Optional[list[Rat]]:
        """(constant, per-coordinate) coefficients, or None if not affine."""
        if self.has_denominator:
            return None
        n = self.chart.dim
        out = [0] * (n + 1)
        for (m, e), c in self.num.items():
            if any(e) or sum(m) > 1:
                return None
            if sum(m) == 0:
                out[0] += c
            else:
                out[1 + m.index(1)] += c
        return out

    def as_move(self) -> Optional[Move]:
        """(k, c) when this is c x_k, (None, a) when it is the constant a;
        otherwise None.  A substitution by such images only relabels."""
        if self.has_denominator or len(self.num) > 1:
            return None
        if not self.num:
            return None, 0
        ((m, e), c), = self.num.items()
        if any(e) or sum(m) > 1:
            return None
        return (m.index(1) if any(m) else None), c

    def constant_value(self) -> Optional[Rat]:
        if not self.num:
            return 0
        if self.has_denominator or len(self.num) != 1:
            return None
        (k, c), = self.num.items()
        if k == _unit_key(self.chart.dim):
            return c
        return None

    def _scalar(self) -> Optional[Rat]:
        """The value of a nonzero constant, else None."""
        if len(self.num) == 1 and not self.has_denominator:
            return self.num.get(_unit_key(self.chart.dim))
        return None

    def _check(self, other: "Expr"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ExprError(
                f"chart mismatch: {self.chart.name!r} vs {other.chart.name!r}"
            )

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.chart is not self.chart:
                self._check(other)
            return other
        return Expr.const(self.chart, other)

    def __add__(self, other) -> "Expr":
        o = self._coerce(other)
        if not o.num:
            return self
        if not self.num:
            return o
        if self.den is o.den and self.den is _unit_den(self.chart.dim):
            # no zero divisors, and _poly_add drops zero sums: already normal
            return Expr._normal(self.chart, _poly_add(self.num, o.num), self.den)
        if self.den == o.den:
            return Expr(self.chart, _poly_add(self.num, o.num), self.den)
        if self.has_denominator and o.has_denominator:
            # nested denominators D1 = q D2 sum over D1: (a + b q) / D1
            big, small = (o, self) if len(o.den) > len(self.den) else (self, o)
            q = _poly_exact_div(big.den, small.den)
            if q is not None:
                return Expr(self.chart, _poly_add(big.num, _poly_mul(small.num, q)), big.den)
        num = _poly_add(_poly_mul(self.num, o.den), _poly_mul(o.num, self.den))
        return Expr(self.chart, num, _poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._normal(self.chart, _poly_scale(self.num, -1), self.den)

    def __sub__(self, other) -> "Expr":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Expr":
        return (-self) + other

    def __mul__(self, other) -> "Expr":
        o = self._coerce(other)
        if not self.num:
            return self
        if not o.num:
            return o
        c = o._scalar()
        if c is not None:
            return Expr._normal(self.chart, _poly_scale(self.num, c), self.den)
        c = self._scalar()
        if c is not None:
            return Expr._normal(self.chart, _poly_scale(o.num, c), o.den)
        num = _poly_mul(self.num, o.num)
        unit = _unit_den(self.chart.dim)
        if self.den is unit:
            if o.den is unit:
                # no zero divisors: a product of polynomials is normal
                return Expr._normal(self.chart, num, unit)
            return Expr(self.chart, num, o.den)
        den = self.den if o.den is unit else _poly_mul(self.den, o.den)
        return Expr(self.chart, num, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        o = self._coerce(other)
        if o.is_symbolic_zero:
            raise ExprError("division by symbolic zero")
        c = o._scalar()
        if c is not None:
            return Expr._normal(self.chart, _poly_scale(self.num, div(1, c)), self.den)
        return Expr(self.chart, _poly_mul(self.num, o.den), _poly_mul(self.den, o.num))

    def __rtruediv__(self, other) -> "Expr":
        return self._coerce(other) / self

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            raise ExprError("only integer powers are supported")
        if k == 0:
            return Expr.one(self.chart)
        base = self if k > 0 else Expr.one(self.chart) / self
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    def equals(self, other: "Expr") -> bool:
        """Canonical equality via cross-multiplication."""
        return (self - self._coerce(other)).is_symbolic_zero

    # -- calculus ----------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        """The indices of the coordinates that occur in a term, as a monomial
        exponent or an exp coefficient, in increasing order; computed once.
        Every coordinate this depends on is in it, but not conversely, since
        the normal form can keep a factor common to numerator and
        denominator: it may only skip work, never decide dependence."""
        try:
            return self._support
        except AttributeError:
            pass
        idx = range(self.chart.dim)
        used: set[int] = set()
        for m, e in itertools.chain(self.num, self.den):
            used.update(itertools.compress(idx, m))
            if any(e):
                used.update(itertools.compress(idx, e[1:]))
        sup = tuple(sorted(used))
        _set_support(self, sup)
        return sup

    def diff(self, coord: str) -> "Expr":
        i = self.chart.index(coord)
        if i not in self.support:
            return Expr.zero(self.chart)
        dn = _poly_diff(self.num, i)
        if not self.has_denominator:
            return Expr._normal(self.chart, dn, self.den)
        dd = _poly_diff(self.den, i)
        num = _poly_add(_poly_mul(dn, self.den), _poly_scale(_poly_mul(self.num, dd), -1))
        return Expr(self.chart, num, _poly_mul(self.den, self.den))

    def depends_on(self, coord: str) -> bool:
        return not self.diff(coord).is_symbolic_zero

    def subst(self, target: Chart, images: Sequence["Expr"]) -> "Expr":
        """Substitute every coordinate of this chart by an Expr on `target`.

        With images P_i / Q_i and K_i the top power of x_i in this quotient,
        each term c x^m e^L of numerator and denominator goes to the
        polynomial c prod_i P_i^{m_i} Q_i^{K_i - m_i} e^{L(images)}: both
        gain the factor prod_i Q_i^{K_i}, so their quotient, normalized once,
        is the substitution.  Only the images of support coordinates are
        read; when each is c x_k or a constant, the terms are relabelled."""
        if len(images) != self.chart.dim:
            raise ExprError("substitution needs one image per coordinate")
        for im in images:
            if im.chart is not target and im.chart != target:
                raise ExprError("substitution images must live on the target chart")
        sup = self.support
        moves = {i: images[i].as_move() for i in sup}
        if None not in moves.values():
            return self._relocated(target, moves)
        top = {i: max(m[i] for m, _ in itertools.chain(self.num, self.den))
               for i in sup if images[i].has_denominator}
        powers: dict[tuple[int, int, bool], Poly] = {}
        exps: dict[ExpV, Poly] = {}
        unit = _unit_key(target.dim)

        def power(i: int, k: int, of_den: bool) -> Poly:
            p = powers.get((i, k, of_den))
            if p is None:
                base = images[i].den if of_den else images[i].num
                p = base if k == 1 else _poly_mul(power(i, k - 1, of_den), base)
                powers[(i, k, of_den)] = p
            return p

        def exp_image(e: ExpV) -> Poly:
            p = exps.get(e)
            if p is None:
                # summed before the affine check: the images' nonaffine
                # parts may cancel
                arg = Expr.const(target, e[0])
                for i in sup:
                    if e[i + 1]:
                        arg = arg + Expr.const(target, e[i + 1]) * images[i]
                p = exps[e] = Expr.exp(arg).num
            return p

        def image(p: Poly) -> Poly:
            out: Poly = {}
            for (m, e), c in p.items():
                term = {unit: c}
                for i in sup:
                    if m[i]:
                        term = _poly_mul(term, power(i, m[i], False))
                    if top.get(i, 0) > m[i]:
                        term = _poly_mul(term, power(i, top[i] - m[i], True))
                if any(e):
                    term = _poly_mul(term, exp_image(e))
                _poly_iadd(out, term)
            return out

        den = image(self.den)
        if not den:
            raise ExprError("substitution made the denominator vanish identically")
        return Expr(target, image(self.num), den)

    def _relocated(self, target: Chart, moves: dict[int, Move]) -> "Expr":
        """The substitution x_i -> c x_k or a for the support coordinates i."""
        n = target.dim
        if not self.has_denominator:
            # a relocated polynomial drops its zero terms and is normal
            return Expr._normal(target, _relocate(self.num, moves, n), _unit_den(n))
        den = _relocate(self.den, moves, n)
        if not den:
            raise ExprError("substitution made the denominator vanish identically")
        return Expr(target, _relocate(self.num, moves, n), den)

    def rechart(self, target: Chart) -> "Expr":
        """Reinterpret on another chart whose coordinates include this chart's."""
        at = [target.index(c) for c in self.chart.coords]
        return self._relocated(target, {i: (at[i], 1) for i in self.support})

    # -- evaluation --------------------------------------------------------

    def eval(self, point: Sequence[float]) -> float:
        return self.eval_scaled(point)[0]

    def eval_scaled(self, point: Sequence[float]) -> tuple[float, float]:
        """The value at a point and the largest |term| of the numerator over
        the denominator there, the scale of the value's rounding error; one
        evaluation pass gives both."""
        if len(point) != self.chart.dim:
            raise EvalError(
                f"point of length {len(point)} on {self.chart.dim}-dimensional chart"
            )
        try:
            nv, big = _poly_eval(self.num, point)
            dv = _poly_eval(self.den, point)[0]
        except OverflowError as e:
            raise EvalError(f"overflow during evaluation: {e}") from None
        if dv == 0.0:
            raise EvalError("denominator vanishes at the sample point")
        v = nv / dv
        if math.isnan(v) or math.isinf(v):
            raise EvalError("non-finite value")
        return v, big / abs(dv)

    # -- printing ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Expr({self!s})"

    def __str__(self) -> str:
        num = _poly_str(self.num, self.chart)
        if not self.has_denominator:
            return num
        return f"({num})/({_poly_str(self.den, self.chart)})"


# the slot descriptors' setters, which the __setattr__ guard leaves open
_set_chart = Expr.chart.__set__
_set_num = Expr.num.__set__
_set_den = Expr.den.__set__
_set_support = Expr._support.__set__


def _poly_eval(p: Poly, point: Sequence[float]) -> tuple[float, float]:
    """The sum of the terms at a point and the largest |term|."""
    total = big = 0.0
    for (m, e), c in p.items():
        v = float(c)
        for x, k in zip(point, m):
            if k:
                v *= x**k
        if any(e):
            arg = float(e[0]) + sum(float(q) * x for q, x in zip(e[1:], point))
            v *= math.exp(arg)
        total += v
        if abs(v) > big:
            big = abs(v)
    return total, big


def _frac_str(c: Rat) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _affine_str(e: ExpV, chart: Chart) -> str:
    parts = []
    if e[0]:
        parts.append(_frac_str(e[0]))
    for coord, q in zip(chart.coords, e[1:]):
        if not q:
            continue
        if q == 1:
            parts.append(coord)
        elif q == -1:
            parts.append(f"-{coord}")
        else:
            parts.append(f"{_frac_str(q)}*{coord}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _print_order(k: Key):
    """Terms print by descending degree, then descending exponents, then exp."""
    return -sum(k[0]), tuple(-x for x in k[0]), k[1]


def _poly_str(p: Poly, chart: Chart) -> str:
    if not p:
        return "0"
    pieces = []
    for (m, e) in sorted(p, key=_print_order):
        c = p[(m, e)]
        factors = []
        for coord, k in zip(chart.coords, m):
            if k == 1:
                factors.append(coord)
            elif k > 1:
                factors.append(f"{coord}^{k}")
        if any(e):
            factors.append(f"exp({_affine_str(e, chart)})")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, _frac_str(mag))
        pieces.append((c < 0, "*".join(factors)))
    neg, body = pieces[0]
    out = f"-{body}" if neg else body
    for neg, body in pieces[1:]:
        out += f" - {body}" if neg else f" + {body}"
    return out


# ---------------------------------------------------------------------------
# parser


_TOKEN_CHARS = set("+-*/^()")
_DIGITS = set("0123456789")  # str.isdigit also admits digits int() rejects, e.g. "²"


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS or ch == ".":
            j = i
            seen_dot = False
            while j < len(text) and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j - i == seen_dot:
                raise ParseError("a number needs a digit", i)
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, chart: Chart):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.chart = chart

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            e = e + t if op == "+" else e - t
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            f = self.factor()
            if op == "*":
                e = e * f
            else:
                if f.is_symbolic_zero:
                    raise ParseError("division by zero", self.peek()[2])
                e = e / f
        return e

    def factor(self) -> Expr:
        """A power b^k with an integer k; a unary minus takes the whole
        power, -b^k = -(b^k), as the printer writes it."""
        if self.peek()[0] == "-":
            self.take()
            return -self.factor()
        e = self.base()
        if self.peek()[0] == "^":
            self.take()
        else:
            return e
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("num")
        if "." in tok[1]:
            raise ParseError("exponent must be an integer", tok[2])
        return e ** (sign * int(tok[1]))

    def base(self) -> Expr:
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return Expr.const(self.chart, exact(tok[1]) if "." in tok[1] else int(tok[1]))
        if tok[0] == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if tok[0] == "ident":
            self.take()
            if tok[1] == "exp":
                self.take("(")
                arg = self.expr()
                self.take(")")
                if arg.affine_parts() is None:
                    raise ParseError("exp argument must be affine in the coordinates", tok[2])
                return Expr.exp(arg)
            if tok[1] not in self.chart.coords:
                raise ParseError(f"unknown identifier {tok[1]!r}", tok[2])
            return Expr.coord(self.chart, tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str, chart: Chart) -> Expr:
    return _Parser(text, chart).parse()


# ---------------------------------------------------------------------------
# zero verdicts


SYMBOLIC_ZERO = "SymbolicZero"
NONZERO = "NonZero"

WITNESS_TOL = 1e-9
SAMPLE_COUNT = 25


class Verdict:
    """A decided verdict.  A NonZero verdict of a nonzero residual keeps that
    exact residual; its witness, the first of the residual chart's sample
    points where the residual is visibly nonzero, is looked for once, on
    first reading ``witness``, ``value`` or ``max_residual``."""

    def __init__(self, kind: str, residual: Optional[Expr] = None,
                 assumptions: Optional[list[str]] = None):
        self.kind = kind
        self.residual = residual
        self.assumptions = [] if assumptions is None else assumptions

    @property
    def passed(self) -> bool:
        return self.kind == SYMBOLIC_ZERO

    @functools.cached_property
    def _found(self) -> tuple:
        """(witness, value): the first sample point where |residual| >
        WITNESS_TOL * max |term|, the scale of the value's rounding error.
        Points where evaluation fails are passed over; a residual that no
        point shows stays NonZero, without a witness."""
        if self.residual is not None:
            for p in _sample_tuple(self.residual.chart.dim):
                try:
                    val, big = self.residual.eval_scaled(p)
                except EvalError:
                    continue
                if abs(val) > WITNESS_TOL * big:
                    return p, val
        return None, None

    @property
    def witness(self) -> Optional[tuple[float, ...]]:
        return self._found[0]

    @property
    def value(self) -> Optional[float]:
        return self._found[1]

    @property
    def max_residual(self) -> float:
        """|value| at the witness, 0.0 without one."""
        value = self.value
        return 0.0 if value is None else abs(value)

    def __str__(self) -> str:
        if self.kind == NONZERO:
            parts = []
            if self.witness is not None:
                parts.append(f"witness={self.witness}")
            if self.value is not None:
                parts.append(f"value={self.value:.3e}")
            parts.extend(self.assumptions)
            return f"NonZero({', '.join(parts)})"
        return self.kind


def sample_points(chart: Chart) -> list[tuple[float, ...]]:
    """The chart's SAMPLE_COUNT fixed points in the box [-1, 1]^n, drawn once
    per dimension; each call returns a fresh list."""
    return list(_sample_tuple(chart.dim))


@functools.cache
def _sample_tuple(dim: int) -> tuple[tuple[float, ...], ...]:
    # the seed string fixes the points, and with them every reported witness
    rng = random.Random(f"0:{dim}:{SAMPLE_COUNT}")
    return tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(dim)) for _ in range(SAMPLE_COUNT))


def is_zero(e: Expr) -> Verdict:
    """SymbolicZero exactly when the canonical numerator is empty, else NonZero.

    The terms x^m e^L are linearly independent, so a nonempty canonical
    numerator proves e != 0; its leading term, over the denominator when
    there is one, is the certificate, and e is the verdict's residual.
    """
    if e.is_symbolic_zero:
        return Verdict(SYMBOLIC_ZERO)
    lead = _lead(e.num)
    term = _poly_str({lead: e.num[lead]}, e.chart)
    if e.has_denominator:
        term = f"({term})/({_poly_str(e.den, e.chart)})"
    return Verdict(NONZERO, e, [f"leading term: {term}"])


def numerator_content(e: Expr) -> tuple[Expr, Mon, Expr]:
    """(u, m, p) with u * x^m * p the numerator of a nonzero ``e``: u = c e^L
    is its unit content, taken from its first printed term, which p then
    starts with coefficient 1 and no exp factor, and x^m its monomial
    content, the largest monomial dividing every term."""
    if e.is_symbolic_zero:
        raise ExprError("the zero numerator has no content")
    n = e.chart.dim
    ref = min(e.num, key=_print_order)
    c, shift = e.num[ref], ref[1]
    m = tuple(min(k[0][i] for k in e.num) for i in range(n))
    p = {(tuple(map(operator.sub, k, m)), _exp_sub(x, shift)): div(v, c)
         for (k, x), v in e.num.items()}
    unit = Expr._normal(e.chart, {((0,) * n, shift): c}, _unit_den(n))
    return unit, m, Expr._normal(e.chart, p, _unit_den(n))


def nonzero_conditions(e: Expr) -> list[str]:
    """Where a nonzero ``e`` is nonzero, off the zeros of its denominator:
    "p != 0" unless p is 1, and "x != 0" for each coordinate x of the
    monomial content (``numerator_content``).  Empty for a unit numerator."""
    _, m, p = numerator_content(e)
    conditions = [] if len(p.num) == 1 else [f"{p} != 0"]
    return conditions + [f"{x} != 0" for x, k in zip(e.chart.coords, m) if k]


def denominator_conditions(values: Iterable[Expr]) -> list[str]:
    """Where every one of ``values`` is defined: the ``nonzero_conditions``
    of their distinct denominators, each first divided exactly by any other
    that divides it, so that x + 1 and (x + 1)^2 state only x + 1 != 0.
    Sorted by text, so the result depends on the values, not their order."""
    dens: list[Poly] = []
    for v in values:
        if v.has_denominator and v.den not in dens:
            chart = v.chart
            dens.append(v.den)
    # a quotient of one term, a unit or a monomial, splits nothing
    while split := next(((i, q) for i, d in enumerate(dens) for f in dens
                         if f is not d and len(f) > 1
                         and (q := _poly_exact_div(d, f)) is not None), None):
        dens[split[0]] = split[1]
    return sorted({c for d in dens
                   for c in nonzero_conditions(Expr._normal(chart, d, _unit_den(chart.dim)))})
