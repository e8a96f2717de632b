"""Exact rationals for the expression ring.

Every rational the ring stores, term coefficient or exp exponent, is an
``int`` when it is integral and a ``Rational`` otherwise: a numerator and a
denominator in lowest terms, with denominator > 1.  So a ``Rational`` is never
zero and never equal to an ``int``, and every operation whose result is
integral returns a plain ``int``.

``Rational`` does the ring's arithmetic (``+``, ``-``, ``*``, negation,
``abs`` and the order) with ``int`` and with itself directly, instead of
through the generic dispatch of ``fractions.Fraction``.  Its hash and float
value follow the rules of ``Fraction``, so equal values hash alike across
``int``, ``Fraction`` and ``Rational``, and ``float()`` gives the same bits;
the hash is computed once per object.  Any other operand (a ``Fraction``, a
float) falls back to ``Fraction`` arithmetic.  There is no ``/``: ``int /
int`` is a float, so every exact quotient goes through ``div``.  ``exact``
converts outside numbers at the boundary of the ring.
"""

from __future__ import annotations

import functools
import numbers
import operator
import sys
from fractions import Fraction
from math import gcd

__all__ = ["Rational", "exact", "div"]

_MODULUS = sys.hash_info.modulus


class Rational:
    """A non-integral rational n/d in lowest terms with d > 1."""

    # _hash is None until the first hash() keeps it: term keys hash the same
    # objects on every dict probe
    __slots__ = ("numerator", "denominator", "_hash")

    def __add__(a, b):
        if type(b) is int:
            # gcd(n + b*d, d) = gcd(n, d) = 1, so the sum stays in lowest terms
            return _new(a.numerator + b * a.denominator, a.denominator)
        if type(b) is Rational:
            return _sum(a.numerator, a.denominator, b.numerator, b.denominator)
        return _fallback(operator.add, a, b)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return _new(a.numerator - b * a.denominator, a.denominator)
        if type(b) is Rational:
            return _sum(a.numerator, a.denominator, -b.numerator, b.denominator)
        return _fallback(operator.sub, a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _new(b * a.denominator - a.numerator, a.denominator)
        return _fallback(operator.sub, b, a)

    def __mul__(a, b):
        if type(b) is int:
            if not b:
                return 0
            d = a.denominator
            g = gcd(b, d)
            if g == 1:
                return _new(a.numerator * b, d)
            d //= g
            n = a.numerator * (b // g)
            return n if d == 1 else _new(n, d)
        if type(b) is Rational:
            na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
            g1 = gcd(na, db)
            g2 = gcd(nb, da)
            n = (na // g1) * (nb // g2)
            d = (da // g2) * (db // g1)
            return n if d == 1 else _new(n, d)
        return _fallback(operator.mul, a, b)

    __rmul__ = __mul__

    def __neg__(a):
        return _new(-a.numerator, a.denominator)

    def __abs__(a):
        return a if a.numerator > 0 else _new(-a.numerator, a.denominator)

    # no __bool__: a Rational is never zero, and an object is true by default

    def __float__(a):
        # numbers.Rational.__float__, the rule Fraction uses
        return a.numerator / a.denominator

    def __eq__(a, b):
        if type(b) is Rational:
            return a.numerator == b.numerator and a.denominator == b.denominator
        if type(b) is int:
            return False
        return Fraction(a.numerator, a.denominator) == b

    def _order(op):
        # denominators are positive, so cross-multiplying keeps the order
        def compare(a, b):
            if type(b) is int:
                return op(a.numerator, b * a.denominator)
            if type(b) is Rational:
                return op(a.numerator * b.denominator, b.numerator * a.denominator)
            return op(Fraction(a.numerator, a.denominator), b)
        return compare

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)
    del _order

    def __hash__(a):
        h = a._hash
        if h is not None:
            return h
        # "Hashing of numeric types": hash(n/d) = n * d^-1 mod the modulus,
        # and the hash of infinity when d is a multiple of the modulus
        inv = _hash_inverse(a.denominator)
        n = a.numerator
        h = hash(hash(abs(n)) * inv) if inv else sys.hash_info.inf
        # hash() itself turns a -1 into -2, as Fraction.__hash__ does
        a._hash = h = h if n > 0 else -h
        return h

    def __repr__(a):
        return f"Rational({a.numerator}, {a.denominator})"

    def __str__(a):
        return f"{a.numerator}/{a.denominator}"


numbers.Rational.register(Rational)


def _new(n: int, d: int) -> Rational:
    """A Rational from a numerator and denominator already in lowest terms, d > 1."""
    q = object.__new__(Rational)
    q.numerator = n
    q.denominator = d
    q._hash = None
    return q


@functools.lru_cache(maxsize=1024)
def _hash_inverse(d: int) -> int:
    """d^-1 modulo the hash modulus, or 0 when d is a multiple of it; a run
    meets few distinct denominators."""
    try:
        return pow(d, -1, _MODULUS)
    except ValueError:
        return 0


def _sum(na: int, da: int, nb: int, db: int) -> int | Rational:
    # the gcd-saving sum of Knuth, TAOCP 4.5.1, as in fractions.Fraction
    g = gcd(da, db)
    if g == 1:
        return _new(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    d = s * (db // g2)
    return t // g2 if d == 1 else _new(t // g2, d)


def _fallback(op, a, b):
    """op on a Fraction in place of each Rational operand, for operands of
    other types."""
    if type(a) is Rational:
        a = Fraction(a.numerator, a.denominator)
    if type(b) is Rational:
        b = Fraction(b.numerator, b.denominator)
    return op(a, b)


def exact(value) -> int | Rational:
    """``value`` (an int, Fraction, float, Decimal or numeric string) as an
    exact ring rational: an int when integral, a Rational otherwise."""
    if type(value) is int or type(value) is Rational:
        return value
    f = value if type(value) is Fraction else Fraction(value)
    n, d = f.numerator, f.denominator
    return n if d == 1 else _new(n, d)


def div(a: int | Rational, b: int | Rational) -> int | Rational:
    """The exact quotient a / b of two ring rationals."""
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    if not nb:
        raise ZeroDivisionError(f"exact division of {a} by zero")
    g1 = gcd(na, nb)
    g2 = gcd(da, db)
    n = (na // g1) * (db // g2)
    d = (da // g2) * (nb // g1)
    if d < 0:
        n, d = -n, -d
    return n if d == 1 else _new(n, d)
