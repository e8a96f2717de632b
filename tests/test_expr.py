"""Exact expression arithmetic, parsing, evaluation and zero testing."""

import random
from fractions import Fraction

import pytest

from twistcheck.expr import (
    Chart,
    EvalError,
    Expr,
    ExprError,
    ParseError,
    is_zero,
    parse,
    sample_points,
)
from twistcheck.rational import Rational


def coords(chart):
    return [Expr.coord(chart, c) for c in chart.coords]


def test_chart_validation():
    with pytest.raises(ExprError):
        Chart("bad", ("x", "x"))
    with pytest.raises(ExprError):
        Chart("empty", ())
    ch = Chart("R2", ("x", "y"))
    assert ch.dim == 2
    assert ch.index("y") == 1


def test_polynomial_normalization():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    assert ((x + y) ** 2).equals(x * x + x * y * Expr.const(ch, 2) + y * y)
    assert (x - x).is_symbolic_zero
    assert ((x + y) * (x - y)).equals(x ** 2 - y ** 2)


def test_exact_division_collapse():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    q = (x ** 2 - y ** 2) / (x - y)
    assert q.equals(x + y)
    assert not q.has_denominator


def test_long_exact_divisions_pass_the_exponent_box():
    # 20 quotient terms each: the box is built after 16 steps and must admit
    # every term of a true quotient
    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    one = Expr.one(ch)
    for base in (x, Expr.exp(x), x * Expr.exp(-x)):
        geometric = sum((base ** i for i in range(1, 20)), one)
        q = (base ** 20 - one) / (base - one)
        assert q.equals(geometric) and not q.has_denominator


def test_non_divisible_pair_stops_at_the_exponent_box(monkeypatch):
    # (x + 2) / (e^x + e^-x + 1) has no exact quotient; long division alone
    # runs to its 2000-step cap, one poly multiply per step
    from twistcheck import expr as expr_mod

    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    num = x + Expr.const(ch, 2)
    den = Expr.exp(x) + Expr.exp(-x) + Expr.one(ch)
    calls = []
    poly_mul = expr_mod._poly_mul
    monkeypatch.setattr(expr_mod, "_poly_mul", lambda a, b: calls.append(1) or poly_mul(a, b))
    assert expr_mod._poly_exact_div(num.num, den.num) is None
    assert len(calls) <= 20


def test_quotient_equality_cross_multiplication():
    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    one = Expr.one(ch)
    a = one / (one + x)
    b = (one - x) / (one - x ** 2)
    assert a.equals(b)


def test_exp_affine_only():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    assert (Expr.exp(x) * Expr.exp(-x)).equals(Expr.one(ch))
    assert Expr.exp(x + y - Expr.const(ch, Fraction(1, 2))).eval((0.5, 0.0)) == pytest.approx(1.0)
    with pytest.raises(ExprError):
        Expr.exp(x * y)


def test_division_by_zero_rejected():
    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    with pytest.raises(ExprError):
        x / (x - x)


def test_diff_product_and_quotient():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    assert (x ** 3 * y).diff("x").equals(Expr.const(ch, 3) * x ** 2 * y)
    q = x / (Expr.one(ch) + y)
    expected = -x / ((Expr.one(ch) + y) ** 2)
    assert q.diff("y").equals(expected)
    assert Expr.exp(-x).diff("x").equals(-Expr.exp(-x))


def test_eval_matches_python_arithmetic():
    ch = Chart("R3", ("x", "y", "z"))
    x, y, z = coords(ch)
    e = (x ** 2 - y) / (Expr.one(ch) + z ** 2) + Expr.exp(x - y)
    import math

    for pt in [(0.3, -0.2, 0.7), (-1.0, 0.5, 0.0)]:
        want = (pt[0] ** 2 - pt[1]) / (1 + pt[2] ** 2) + math.exp(pt[0] - pt[1])
        assert e.eval(pt) == pytest.approx(want, rel=1e-12)


def test_eval_rejects_pole():
    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    with pytest.raises(EvalError):
        (Expr.one(ch) / x).eval((0.0,))


def test_parser_round_trip_random():
    ch = Chart("R3", ("x", "y", "z"))
    rng = random.Random(7)
    base = coords(ch) + [Expr.const(ch, Fraction(k, 3)) for k in (-2, 1, 5)]
    for _ in range(30):
        e = rng.choice(base)
        for _ in range(rng.randrange(1, 6)):
            op = rng.randrange(4)
            other = rng.choice(base)
            if op == 0:
                e = e + other
            elif op == 1:
                e = e - other
            elif op == 2:
                e = e * other
            else:
                e = e ** rng.randrange(1, 3)
        if rng.random() < 0.3:
            e = e + Expr.exp(rng.choice(coords(ch))) * rng.choice(base)
        for printed in (e, -e):
            assert parse(str(printed), ch).equals(printed)


def test_unary_minus_takes_the_whole_power():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    one = Expr.one(ch)
    assert parse("-x^2", ch).equals(-(x ** 2))
    assert parse("-x^2*y + 1", ch).equals(-(x ** 2) * y + one)
    assert parse("(1)/(-x^2 + 1)", ch).equals(one / (one - x ** 2))
    assert parse("-2^2", ch).equals(Expr.const(ch, -4))
    assert parse("x - -y^2", ch).equals(x + y ** 2)
    # a negative exponent still reads as one
    assert parse("x^-1", ch).equals(one / x)
    assert parse("(-x)^2", ch).equals(x ** 2)


def test_parse_error_is_position_annotated():
    ch = Chart("R1", ("x",))
    with pytest.raises(ParseError) as err:
        parse("x + * 2", ch)
    assert "position" in str(err.value) or any(c.isdigit() for c in str(err.value))
    with pytest.raises(ParseError):
        parse("exp(x*x)", ch)
    with pytest.raises(ParseError):
        parse("w + 1", ch)


def test_a_number_needs_a_digit():
    ch = Chart("R2", ("x", "y"))
    for text in ("-y*.", ".", "x + . * y"):
        with pytest.raises(ParseError, match="a number needs a digit"):
            parse(text, ch)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x*\u00b2", ch)  # a superscript digit is no digit of a number
    assert parse(".5*x", ch).equals(parse("x/2", ch))
    assert parse("3.*y", ch).equals(parse("3*y", ch))


def test_subst_and_rechart():
    src = Chart("R2", ("u", "v"))
    dst = Chart("R2b", ("x", "y"))
    u, v = coords(src)
    x, y = coords(dst)
    e = u ** 2 + v
    assert e.subst(dst, [x + y, x * y]).equals((x + y) ** 2 + x * y)
    wide = Chart("R3", ("u", "v", "w"))
    assert e.rechart(wide).depends_on("u")
    # relabelling reads only the support, but still checks every coordinate
    # and every image
    with pytest.raises(ExprError, match="unknown coordinate 'v'"):
        (u ** 2).rechart(Chart("uw", ("u", "w")))
    with pytest.raises(ExprError, match="target chart"):
        (u ** 2).subst(dst, [y, Expr.coord(wide, "w")])
    assert (u ** 2).subst(dst, [-y, Expr.coord(dst, "x")]).equals(y ** 2)


def test_sample_points_deterministic_and_in_box():
    ch = Chart("R3", ("x", "y", "z"))
    pts1 = sample_points(ch, count=25, seed=0)
    pts2 = sample_points(ch, count=25, seed=0)
    assert pts1 == pts2
    assert len(pts1) == 25
    assert all(len(p) == 3 and all(-1.0 <= c <= 1.0 for c in p) for p in pts1)
    assert sample_points(ch, count=25, seed=1) != pts1


def test_sample_points_are_drawn_once_and_returned_fresh():
    ch = Chart("R2", ("x", "y"))
    first = sample_points(ch, count=5, seed=3)
    assert sample_points(Chart("other", ("u", "v")), count=5, seed=3) == first
    first.append((9.0, 9.0))
    first[0] = (0.0, 0.0)
    again = sample_points(ch, count=5, seed=3)
    assert len(again) == 5 and again[0] != (0.0, 0.0)
    assert again == sample_points(ch, count=5, seed=3)


def test_eval_scaled_is_the_value_and_the_largest_term_over_the_denominator():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    e = (Expr.const(ch, 3) * x - y ** 2 + Expr.exp(x)) / (x ** 2 + Expr.one(ch))
    import math

    for pt in [(0.3, -0.2), (-1.0, 0.5), (0.7, 2.0)]:
        value, big = e.eval_scaled(pt)
        assert value == e.eval(pt)
        den = pt[0] ** 2 + 1.0
        terms = (3 * pt[0], -pt[1] ** 2, math.exp(pt[0]))
        assert big == max(abs(t / den) for t in terms)
    with pytest.raises(EvalError):
        (Expr.one(ch) / x).eval_scaled((0.0, 1.0))


def test_is_zero_verdicts():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    v = is_zero((x + y) ** 2 - x ** 2 - Expr.const(ch, 2) * x * y - y ** 2)
    assert v.kind == "SymbolicZero" and v.passed
    w = is_zero(x * y - Expr.const(ch, Fraction(1, 7)))
    assert w.kind == "NonZero" and not w.passed
    assert w.witness is not None and w.assumptions == ["leading term: x*y"]
    # no sample point shows it: still NonZero, without a witness
    u = is_zero(Expr.const(ch, Fraction(1, 10**12)) * x * y).locate([(0.0, 0.5)])
    assert u.kind == "NonZero" and u.witness is None and u.max_residual == 0.0


def test_is_zero_skips_near_poles():
    ch = Chart("R1", ("x",))
    (x,) = coords(ch)
    v = is_zero((x ** 2 - x ** 2) / x)
    assert v.passed  # symbolic zero before sampling matters


def exp_exponents(e):
    return [q for poly in (e.num, e.den) for (_, exps) in poly for q in exps]


def integral_exponents_are_ints(e):
    return all(type(q) is int or q.denominator != 1 for q in exp_exponents(e))


def test_exp_exponent_keys_are_ints_when_integral():
    ch = Chart("R3", ("x", "y", "z"))
    x = Expr.coord(ch, "x")
    e = parse("exp(2*x - 3)*x", ch)
    assert exp_exponents(e) and all(type(q) is int for q in exp_exponents(e))
    # rational arithmetic that lands on an integer goes back to int
    square = Expr.exp(x / 2) * Expr.exp(x / 2)
    assert set(square.num) == set(Expr.exp(x).num)
    assert square.equals(Expr.exp(x))
    assert integral_exponents_are_ints(square)
    shifted = Expr.one(ch) / (Expr.exp(x / 2) + Expr.exp(3 * x / 2))
    assert integral_exponents_are_ints(shifted)
    assert any(type(q) is Rational for q in exp_exponents(shifted))
    one = parse("exp(x)*exp(-x)", ch)
    assert one.num == Expr.one(ch).num and not one.has_denominator
    assert one.constant_value() == 1


def coefficients(e):
    return [c for poly in (e.num, e.den) for c in poly.values()]


def coefficient_types_exact(e):
    """Every integral coefficient is an int and none is ever a float."""
    cs = coefficients(e)
    return all(type(c) is int or (type(c) is Rational and c.denominator > 1) for c in cs)


def test_coefficients_are_ints_when_integral():
    ch = Chart("R2", ("x", "y"))
    x, y = coords(ch)
    half = Expr.const(ch, Fraction(1, 2))
    f = parse("3*x^2*exp(x) - 2*y + 1", ch)
    g = parse("x/2 + y/3", ch)
    q = parse("1/(x + 1) + exp(-y)/(2*y - 3)", ch)
    two_x_plus_two = parse("2*x + 2", ch)
    cases = {
        "sum": f + g,
        "difference": f - g - f,
        "negation": -g,
        "product": (f * g) * Expr.const(ch, 6),
        "quotient": f / q,
        "reciprocal": Expr.one(ch) / q,
        "diff": q.diff("x"),
        "diff of fractions": (g * g).diff("y"),
        "subst": q.subst(ch, [x + half, y * 2]),
        "exact-division collapse": two_x_plus_two / (x + 1),
        "scalar quotient": parse("4*x", ch) / Expr.const(ch, 2),
        "half plus half": half + half,
        "power": (g * 6) ** 3,
    }
    for name, e in cases.items():
        assert coefficient_types_exact(e), (name, coefficients(e))
    assert cases["exact-division collapse"].num == Expr.const(ch, 2).num
    assert type(cases["exact-division collapse"].constant_value()) is int
    assert cases["scalar quotient"].num == (Expr.const(ch, 2) * x).num
    assert cases["half plus half"].constant_value() == 1
    assert type(cases["half plus half"].constant_value()) is int
    # some coefficients really are fractions, so the check is not vacuous
    assert any(type(c) is Rational for c in coefficients(g))
    # constructors store ints
    for e in (Expr.const(ch, 3), Expr.const(ch, Fraction(4, 2)), Expr.const(ch, 2.0),
              x, Expr.exp(x - 1), Expr.one(ch), parse("-5", ch)):
        assert coefficients(e) and all(type(c) is int for c in coefficients(e))


def test_nested_denominators_sum_over_the_larger_one():
    ch = Chart("R2", ("x", "y"))
    x, y = Expr.coord(ch, "x"), Expr.coord(ch, "y")
    inner = x + 1
    outer = inner * (y + 2)
    for s in (1 / inner + 1 / outer, 1 / outer + 1 / inner):
        assert s.equals((y + 3) / outer)
        assert len(s.den) == len(outer.num) == 4
