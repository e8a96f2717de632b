"""The sampled open-condition helper, the 2-form matrix at a point, and the
float determinant and rank of the open conditions."""

import math

from twistcheck.expr import Chart, EvalError, Expr, sample_points
from twistcheck.report import det, rank, sampled_open_condition, two_form_matrix
from twistcheck.tensor import Form

R1 = Chart("R1", ("x",))
R2 = Chart("R2", ("x", "y"))


def test_two_form_matrix_is_antisymmetric():
    x = Expr.coord(R2, "x")
    form = Form(R2, 2, {(0, 1): x + Expr.one(R2)})
    mat = two_form_matrix(form, (0.5, -1.0))
    assert mat == [[0.0, 1.5], [-1.5, 0.0]]


def test_open_condition_passes_and_records_skipped_points():
    def value(pt):
        if pt[0] == 0.0:
            raise EvalError("singular")
        return pt[0]

    v = sampled_open_condition(R1, [(1.0,), (0.0,), (2.0,)], value, lambda u: u > 0,
                               lambda u: ["negative"])
    assert v.kind == "SampledZero" and v.skipped == [(0.0,)]


def test_open_condition_fails_at_first_witness():
    v = sampled_open_condition(R1, [(1.0,), (-2.0,), (-3.0,)], lambda pt: pt[0],
                               lambda u: u > 0, lambda u: [f"value {u:g}"])
    assert v.kind == "NonZero"
    assert v.witness == (-2.0,) and v.value == -2.0 and v.assumptions == ["value -2"]


def test_open_condition_fails_when_every_point_is_skipped():
    def value(pt):
        raise EvalError("singular")

    v = sampled_open_condition(R1, [(1.0,), (2.0,)], value, lambda u: True, lambda u: [])
    assert v.kind == "NonZero"
    assert v.assumptions == ["all sample points skipped"] and len(v.skipped) == 2


def test_open_condition_draws_the_chart_points_without_samples():
    seen = []

    def value(pt):
        seen.append(tuple(pt))
        return 1.0

    v = sampled_open_condition(R2, None, value, lambda u: True, lambda u: [])
    assert v.kind == "SampledZero"
    assert seen == [tuple(pt) for pt in sample_points(R2)]


def test_det_and_rank_small_cases():
    assert det([]) == 1.0
    assert det([[0.0, 2.0], [3.0, 0.0]]) == -6.0
    assert det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert rank([[1.0, 0.0], [0.0, 1e-9], [0.0, 0.0]], 1e-8) == 1
    assert rank([[1.0, 0.0, 0.0], [0.0, 2e-8, 0.0]], 1e-8) == 2
    assert rank([[0.0, 0.0]], 1e-8) == 0


def test_non_finite_entries_fail_the_open_conditions():
    nan, inf = math.nan, math.inf
    assert math.isnan(det([[1.0, nan], [0.0, 1.0]]))
    assert math.isnan(det([[inf, 0.0], [0.0, 1.0]]))
    # a column with a non-finite entry is not counted
    assert rank([[1.0, 0.0, inf], [0.0, 1.0, 0.0]], 1e-8) == 2
    assert rank([[nan, 1.0], [0.0, 1.0]], 1e-8) == 1
    nondeg = sampled_open_condition(R1, [(0.5,)], lambda pt: det([[pt[0], nan], [0.0, 1.0]]),
                                    lambda d: abs(d) >= 1e-9, lambda d: ["degenerate"])
    assert nondeg.kind == "NonZero" and nondeg.assumptions == ["degenerate"]
    full = sampled_open_condition(R1, [(0.5,)], lambda pt: rank([[pt[0], inf]], 1e-8),
                                  lambda r: r == 2, lambda r: [f"rank {r}"])
    assert full.kind == "NonZero" and full.assumptions == ["rank 1"]
