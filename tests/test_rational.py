"""The ring's exact rational against ``fractions.Fraction`` as the oracle."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistcheck import rational
from twistcheck.contact import TwistedContact, check_contact, jacobi_from_contact
from twistcheck.expr import Chart, _frac_str, parse
from twistcheck.rational import Rational, div, exact
from twistcheck.tensor import Form

MODULUS = sys.hash_info.modulus

fractions_ = st.one_of(
    st.fractions(max_denominator=60),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)
# ring values: ints, and Rationals made at the boundary
values = st.one_of(st.integers(-10**6, 10**6), fractions_.map(exact))


def is_ring_value(q) -> bool:
    """An int, or a Rational in lowest terms with denominator > 1."""
    if type(q) is int:
        return True
    return (type(q) is Rational and q.denominator > 1
            and Fraction(q.numerator, q.denominator).denominator == q.denominator)


def matches(got, want: Fraction) -> bool:
    return is_ring_value(got) and Fraction(got) == want and (
        (type(got) is int) == (want.denominator == 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values, values)
def test_ring_operations_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for op in (operator.add, operator.sub, operator.mul):
        assert matches(op(a, b), op(fa, fb)), (op, a, b)
    for f in (operator.neg, abs):
        assert matches(f(a), f(fa))
    if fb:
        assert matches(div(a, b), fa / fb)
    else:
        with pytest.raises(ZeroDivisionError):
            div(a, b)
    assert matches(a - a, Fraction(0)) and matches(a * 0, Fraction(0))
    assert matches(a + (-a), Fraction(0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values, values)
def test_comparisons_equality_and_hash_match_fractions(a, b):
    fa, fb = Fraction(a), Fraction(b)
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(a, b) is op(fa, fb), (op, a, b)
        assert op(a, fb) is op(fa, fb) and op(fa, b) is op(fa, fb), (op, a, b)
    assert hash(a) == hash(fa) and hash(a) == hash(fa)  # computed, then kept
    assert bool(a) is bool(fa)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fractions_)
def test_boundary_float_and_string_match_fractions(f):
    q = exact(f)
    assert matches(q, f)
    assert float(q).hex() == float(f).hex()
    assert _frac_str(q) == str(f)
    assert Fraction(q) == f and q == f and f == q


def test_signs_zero_and_edge_hashes():
    assert div(3, -6) == Fraction(-1, 2) and div(3, -6).denominator == 2
    assert div(-4, -2) == 2 and type(div(-4, -2)) is int
    assert div(0, exact(Fraction(-2, 3))) == 0 and type(div(0, exact(Fraction(-2, 3)))) is int
    assert exact(Fraction(1, -2)) == Fraction(-1, 2) and exact(Fraction(1, -2)).denominator == 2
    assert exact(0.5) == Fraction(1, 2) and exact("1.25") == Fraction(5, 4)
    assert exact(Fraction(6, 3)) == 2 and type(exact(Fraction(6, 3))) is int
    half = exact(Fraction(1, 2))
    assert half <= exact(Fraction(2, 4)) and half >= half and not half < half and not half > half
    assert type(half + half) is int and half + half == 1
    assert type(half - half) is int and half - half == 0
    assert type(half * 2) is int and half * 2 == 1
    with pytest.raises(ZeroDivisionError):
        div(half, 0)
    # the hash of infinity: a denominator with no inverse modulo the modulus
    for f in (Fraction(1, MODULUS), Fraction(-3, 2 * MODULUS)):
        assert hash(exact(f)) == hash(f)
    # |n| * d^-1 = 1 modulo the modulus: a negative n hashes to -2, never -1
    f = Fraction(-(MODULUS + 2), 2)
    assert hash(f) == -2 and hash(exact(f)) == -2
    # mixed with other number types, a Rational acts as the equal Fraction
    assert half + 0.25 == 0.75 and half * Fraction(1, 3) == Fraction(1, 6)
    assert half < 0.75 and half == 0.5 and {half: 1}[Fraction(1, 2)] == 1


def test_the_hash_is_computed_once_per_object(monkeypatch):
    calls = []
    original = rational._hash_inverse

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(rational, "_hash_inverse", counting)
    fractions = (Fraction(2, 7), Fraction(-5, 3), Fraction(1, MODULUS),
                 Fraction(-(MODULUS + 2), 2))
    objects = [exact(f) for f in fractions]
    objects.append(exact(Fraction(2, 7)))  # equal to the first, another object
    objects.append(objects[0] + 1)
    for q in objects:
        want = hash(Fraction(q.numerator, q.denominator))
        assert [hash(q) for _ in range(3)] == [want] * 3
        assert {q: 1}[Fraction(q.numerator, q.denominator)] == 1
    assert calls == [q.denominator for q in objects]


R3 = Chart("R3", ("x", "y", "z"))
EL = "exp(3/5*x - 1/2*z + 1/4)"
# (theta, omega) as dx, dz and dx^dy component texts
JOBS = {
    # d theta + omega = (1 + p) dx^dy with |p| < 1 on the sample box
    "poly-twist": ("-y", "1", "(-1/2)*x + (1/3)*y*z - 1/7"),
    # (e^L theta, e^L omega): volume e^{2L} theta ^ (d theta + omega)
    "conformal": (f"-y*{EL}", EL, f"(2/5)*{EL}"),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_checking_a_parsed_job_allocates_no_fraction(name, monkeypatch):
    dx, dz, dxdy = (parse(text, R3) for text in JOBS[name])
    c = TwistedContact(R3, Form(R3, 1, {(0,): dx, (2,): dz}), Form(R3, 2, {(0, 1): dxdy}))
    # the guard is not vacuous: the job carries non-integral rationals
    assert any(type(q) is Rational for q in dxdy.num.values())
    made = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    reports = [check_contact(c), jacobi_from_contact(c)[1]]
    Fraction(1, 3)  # a Fraction made while the wrapper is in place is counted
    monkeypatch.undo()
    assert all(r.passed for r in reports)
    assert made == [(1, 3)]
