"""The one open-condition helper: "this exact tensor does not vanish",
decided from the canonical form.  An identically zero tensor fails; any
other passes on a stated domain, read off one component's numerator u * x^m
* p (u a unit c * e^L, x^m the monomial content): nowhere vanishing when the
component is a unit, else where p != 0 and each coordinate of x^m is != 0."""

import math

from twistcheck.expr import Chart, Expr, is_zero, parse, sample_points
from twistcheck.report import CheckReport, nonvanishing_verdict
from twistcheck.tensor import Form, MultiVec, pfaffian, wedge

R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))
R4 = Chart("R4", ("x", "y", "u", "v"))


def domain(t) -> str:
    v = nonvanishing_verdict(t, "t")
    assert v.kind == "SymbolicZero" and v.passed and v.residual is None
    (line,) = v.assumptions
    return line


def test_a_unit_vanishes_nowhere():
    for text in ("-3", "-3*exp(2*x - y)", "exp(-x)/(x^2 + 1)"):
        assert domain(parse(text, R2)) == "t vanishes nowhere", text


def test_a_unit_passes_where_floats_overflow():
    # decided from the canonical form: e^{1000 x} overflows a float at
    # x = 0.9, and no point is evaluated
    form = Form(R2, 2, {(0, 1): parse("exp(1000*x)", R2)})
    assert domain(pfaffian(form)) == "t vanishes nowhere"


def test_x_plus_one_passes_where_it_is_nonzero():
    assert domain(parse("x + 1", R2)) == "t nonzero where x + 1 != 0"
    # the first printed term of p has coefficient 1 and no exp factor
    assert domain(parse("-2*x*exp(y) - 2*exp(y)", R2)) == "t nonzero where x + 1 != 0"
    assert domain(parse("exp(y) + x*exp(2*y)", R2)) == "t nonzero where x + exp(-y) != 0"


def test_the_scale_rule_ignores_unit_factors():
    # c * e^L neither adds a condition nor changes p, however small it is
    t = parse("x + 2", R2)
    unit = parse("exp(-30*x - 20*y)/100000", R2)
    assert domain(t) == domain(t * unit) == "t nonzero where x + 2 != 0"


def test_a_monomial_factor_adds_a_coordinate_condition():
    assert domain(parse("x*exp(y)", R2)) == "t nonzero where x != 0"
    assert domain(parse("x^2*y + 2*x*y", R2)) == "t nonzero where x + 2 != 0, x != 0, y != 0"
    assert domain(parse("y^3/(x + 3)", R2)) == "t nonzero where y != 0"


def test_the_component_with_fewest_terms_states_the_domain():
    x, y = Expr.coord(R2, "x"), Expr.coord(R2, "y")
    one = Expr.one(R2)
    form = Form(R2, 1, {(0,): x + y + one, (1,): (x + one) * y})
    assert domain(form) == "t nonzero where x + 1 != 0, y != 0"
    # a single term: fewer terms than x + y + 1, and fewer conditions than x*y
    vec = MultiVec(R2, 1, {(0,): x * y, (1,): x})
    assert domain(vec) == "t nonzero where x != 0"
    # a unit component settles it
    assert domain(Form(R2, 1, {(0,): x + y + one, (1,): Expr.exp(x)})) == "t vanishes nowhere"


def test_identically_zero_fails_exactly():
    for t in (Expr.zero(R2), Form.zero(R2, 2), MultiVec.zero(R2, 1)):
        v = nonvanishing_verdict(t, "t")
        assert v.kind == "NonZero" and v.witness is None and v.residual is None
        assert v.assumptions == ["t is identically zero"]


def test_the_tolerance_scales_with_the_largest_term():
    # 10^15 (e^x - its Taylor polynomial of degree 20) is below 1e-3 on
    # [-1, 1], so the value computed at a sample point is the rounding error
    # of terms of size 10^15: well above 1e-6, but not above 1e-9 times the
    # largest term, so no point is a witness, though the residual is NonZero
    # all the same
    taylor = " + ".join(f"x^{k}/{math.factorial(k)}" for k in range(21))
    t = parse(f"10^15*exp(x) - 10^15*({taylor})", R1)
    v = is_zero(t)
    assert max(abs(t.eval(p)) for p in sample_points(R1)) > 1e-6
    assert v.kind == "NonZero" and v.witness is None and v.value is None
    # the value 1e-6 alone is a witness, at the first sample point
    w = is_zero(parse("1/1000000", R1))
    assert w.witness == sample_points(R1)[0] and w.value == 1e-6
    # a check's max_residual is the largest |value| at its items' witnesses,
    # 0.0 when no item has one
    report = CheckReport("t")
    report.add("t = 0", v)
    assert report.record("t")["max_residual"] == 0.0
    report.add("1/1000000 = 0", w)
    assert report.record("t")["max_residual"] == 1e-6


def test_a_degenerate_pfaffian_fails():
    dx, dy, du = (Form.basis(R4, i) for i in range(3))
    degenerate = wedge(dx, dy) + wedge(dx, du).scale(Expr.coord(R4, "v"))
    assert pfaffian(degenerate).is_symbolic_zero
    v = nonvanishing_verdict(pfaffian(degenerate), "Pf")
    assert not v.passed and v.assumptions == ["Pf is identically zero"]


def test_dependent_fields_fail_the_wedge():
    x = Expr.coord(R2, "x")
    dx, dy = MultiVec.basis(R2, 0), MultiVec.basis(R2, 1)
    # identically dependent: X ^ X and X ^ fX
    for top in (wedge(dx + dy, dx + dy), wedge(dx, dx.scale(x))):
        assert not nonvanishing_verdict(top, "X^Y").passed
    # dependent on the line x = 0 only: independent off it
    v = nonvanishing_verdict(wedge(dx, dy.scale(x)), "X^Y")
    assert v.passed and v.assumptions == ["X^Y nonzero where x != 0"]
