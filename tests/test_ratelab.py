"""Closed-form rate exponents against brute-force searches and the curve table."""

import math
import tracemalloc

import numpy as np
import pytest

from rosenlab import ratelab
from rosenlab.covmodels import linnik, local_global
from rosenlab.errors import DomainError, ParameterError, RosenlabError
from rosenlab.ratelab import (
    CURVE_COLUMNS,
    RateInputs,
    curve_table,
    geometric_term,
    inputs_from_model,
    kappa0_identity_check,
    kappa1,
    kappa_bound,
)

# (d, alpha, q, upsilon): the d1-mc Cauchy model, a d=2 case where the
# upsilon arm binds, one where q is slack, and d=3
CASES = [
    (1, 0.4, 0.0999, 0.6),
    (2, 0.6, 0.5, 0.3),
    (1, 0.2, 5.0, 1.0),
    (3, 1.0, 0.2, 2.0),
]


def test_closed_forms_at_the_d1_cauchy_point():
    inputs = RateInputs(dimension=1, alpha=0.4, q=0.0999, upsilon=0.6)
    assert geometric_term(inputs) == pytest.approx(0.4 * 0.2 / 0.6, rel=1e-15)
    harmonic = 1.0 / (2.0 / 0.2 + 2.0 / 1.2 + 1.0 / 0.6)
    assert kappa1(inputs) == pytest.approx(2.0 * min(0.0999, harmonic), rel=1e-15)
    assert kappa_bound(inputs) == pytest.approx(2.0 / 45.0, rel=1e-12)
    assert inputs.theorem_applicable


@pytest.mark.parametrize("d, alpha, q, upsilon", CASES)
def test_inner_and_outer_sup_min_match_dense_grids(d, alpha, q, upsilon):
    # grids of step 5e-6; each arm's slope bounds the distance to the sup.
    # The inner sup over g0 of min((gamma - g0)(d - 2a), g0(d + 1 - 2a)) is
    # where the arms cross, linear in gamma
    step = 5e-6
    frac = np.linspace(0.0, 1.0, 200001)
    slope = (d - 2 * alpha) * (d + 1 - 2 * alpha) / (2 * d + 1 - 4 * alpha)
    for gamma in np.linspace(0.05, 0.95, 7):
        g0 = gamma * frac
        arms = np.minimum((gamma - g0) * (d - 2 * alpha), g0 * (d + 1 - 2 * alpha))
        want = slope * gamma
        assert want - (d + 1) * gamma * step <= float(arms.max()) <= want * (1 + 1e-15)
    # the outer sup over gamma of min(2 upsilon (1 - gamma), inner) is
    # kappa1's harmonic branch, which binds when q is slack
    grid = frac[1:-1]
    brute = float(np.max(np.minimum(2.0 * upsilon * (1.0 - grid), slope * grid)))
    want = kappa1(RateInputs(dimension=d, alpha=alpha, q=10.0, upsilon=upsilon))
    assert want - (2.0 * upsilon + d + 1) * step <= brute <= want * (1 + 1e-15)


@pytest.mark.parametrize("d, alpha, q, upsilon", CASES)
@pytest.mark.parametrize("resolution", [16, 40])
def test_kappa0_grid_search_matches_the_closed_form(d, alpha, q, upsilon, resolution):
    inputs = RateInputs(dimension=d, alpha=alpha, q=q, upsilon=upsilon)
    report = kappa0_identity_check(inputs, resolution)
    assert report.resolution == resolution
    assert report.closed_form == kappa1(inputs) / 3.0
    # a grid point never beats the supremum
    assert report.grid_value <= report.closed_form + 1e-15
    # the refined grid spacing is 4 / (resolution + 1)^2 along each axis;
    # the objective min(beta, c - 2 beta) is Lipschitz with these slopes in
    # beta, gamma and gamma0
    slope = 2.0 + max(2.0 * upsilon, d - 2.0 * alpha) + (d + 1.0 - 2.0 * alpha)
    assert report.deviation <= slope * 4.0 / (resolution + 1.0) ** 2


def test_curve_table_rows_are_the_closed_forms():
    for builder, grid in (
        (lambda a: local_global(1, a, 0.5), [0.1, 0.2, 0.3, 0.45]),
        (lambda a: linnik(2, 1.0, a), [0.2, 0.6, 0.9]),
    ):
        rows = curve_table(builder, grid)
        assert [row["alpha"] for row in rows] == grid
        for row, a in zip(rows, grid):
            assert tuple(row) == CURVE_COLUMNS
            inputs = inputs_from_model(builder(a))
            assert row["kappa_bound"] == kappa_bound(inputs)
            assert row["kappa1_over_3"] == kappa1(inputs) / 3.0
            assert row["geometric_term_over_3"] == geometric_term(inputs) / 3.0
            assert row["kappa_bound"] == min(row["kappa1_over_3"], row["geometric_term_over_3"])


@pytest.mark.parametrize("d, alpha", [(1, 0.0), (1, -0.1), (1, 0.5), (1, 0.7), (2, 1.0), (3, math.nan)])
def test_rate_inputs_refuse_alpha_outside_the_memory_range(d, alpha):
    with pytest.raises(DomainError, match="alpha must lie in"):
        RateInputs(dimension=d, alpha=alpha, q=0.1, upsilon=0.5)
    assert issubclass(DomainError, RosenlabError)


@pytest.mark.parametrize("d", [True, 2.0, 0, "1"])
def test_rate_inputs_refuse_a_dimension_that_is_not_a_positive_integer(d):
    # True and 2.0 were taken as d = 1 and d = 2
    with pytest.raises(ParameterError) as exc:
        RateInputs(dimension=d, alpha=0.3, q=0.1, upsilon=0.5)
    assert str(exc.value) == f"dimension must be a positive integer, got {d!r}"


def test_kappa0_scan_budget_admits_3162_and_refuses_3163(monkeypatch):
    # 3162^2 is within 10^7 grid points, 3163^2 is not; the refusal comes
    # before the scan allocates
    def never(*args, **kwargs):
        raise AssertionError("the grid was scanned")

    inputs = RateInputs(dimension=1, alpha=0.3, q=0.1, upsilon=0.5)
    monkeypatch.setattr(ratelab, "_scan", never)
    with pytest.raises(ParameterError, match="resolution 3163 scans 10004569 grid points"):
        kappa0_identity_check(inputs, 3163)
    with pytest.raises(AssertionError, match="scanned"):
        kappa0_identity_check(inputs, 3162)


def test_kappa0_scan_peak_memory_keeps_the_budget_under_1_gb():
    # the peak is about 81 bytes per point of the resolution^2 grid, so
    # 10^7 points take about 0.81 GB
    inputs = RateInputs(dimension=1, alpha=0.3, q=0.1, upsilon=0.5)
    resolution = 300
    tracemalloc.start()
    try:
        kappa0_identity_check(inputs, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / resolution**2 * ratelab._SCAN_BUDGET < 1e9
