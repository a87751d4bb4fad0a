"""Tests of the benchmark's own reference computations and its tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from math import pi

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import refs  # noqa: E402


def test_galerkin_kappa3_converges_under_refinement():
    k = [refs.galerkin_kappa3(0.4, cells) for cells in (125, 250, 500, 1000)]
    steps = np.diff(k)
    # monotone approach with geometrically shrinking corrections
    assert np.all(steps > 0.0)
    assert np.all(steps[1:] / steps[:-1] < 0.75)
    # the remaining correction after 1000 cells is far inside the 1% check
    tail = steps[-1] * (steps[-1] / steps[-2]) / (1.0 - steps[-1] / steps[-2])
    assert tail < 1e-3 * k[-1]


def test_galerkin_operator_norm_stays_below_the_limit_variance():
    # 2 tr(A^2) is the variance of the projected law: it must increase with
    # refinement and stay below 2 int int |u - v|^(-2 alpha)
    exact = refs.interval_variance(0.4)
    hs = [2.0 * float(np.sum(refs.galerkin_matrix(0.4, n) ** 2)) for n in (100, 200, 400)]
    assert hs[0] < hs[1] < hs[2] < exact


def test_interval_variance_matches_quadrature():
    for alpha in (0.1, 0.25, 0.4):
        # int int_{[-1,1]^2} g(|u-v|) = 2 int_0^2 (2 - t) g(t) dt
        val, _ = quad(lambda t: 2.0 - t, 0.0, 2.0, weight="alg", wvar=(-2.0 * alpha, 0.0))
        assert refs.interval_variance(alpha) == pytest.approx(2.0 * 2.0 * val, rel=1e-10)


def _disk_variance_rays(alpha, nodes=400):
    """2 int int_{D^2} |u - v|^(-2 alpha) by a plain product Gauss-Legendre rule.

    For a point u at radius s and a ray at angle phi from the radial
    direction, the ray leaves the disk after
    l(s, phi) = sqrt(1 - s^2 sin^2 phi) - s cos phi, and
    int_0^l t^(1 - 2 alpha) dt = l^(2 - 2 alpha) / (2 - 2 alpha). Rotation
    invariance leaves a 2-d integral over (s, phi).
    """
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (xs + 1.0)
    s_w = 0.5 * ws
    phi = pi * (xs + 1.0)
    phi_w = pi * ws
    S, P = np.meshgrid(s, phi, indexing="ij")
    ell = np.sqrt(1.0 - (S * np.sin(P)) ** 2) - S * np.cos(P)
    inner = ell ** (2.0 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
    total = 2.0 * pi * np.einsum("i,j,ij,i->", s_w, phi_w, inner, s)
    return 2.0 * total


def test_disk_distance_integral_matches_plain_quadrature():
    for alpha in (0.3, 0.6):
        assert refs.disk_variance(alpha) == pytest.approx(
            _disk_variance_rays(alpha, nodes=400), rel=1e-7
        )


def test_disk_overlap_area_integrates_to_squared_area():
    # g = 1: int_{R^2} A(|t|) dt = |D|^2 = pi^2
    val, _ = quad(lambda z: 2.0 * pi * z * refs.disk_overlap_area(z), 0.0, 2.0)
    assert val == pytest.approx(pi**2, rel=1e-10)
    assert refs.disk_overlap_area(0.0) == pytest.approx(pi)


def _sites(mask, h, d, radius, r):
    extent = radius * r
    n = mask.shape[0]
    x = -extent + (np.arange(n) + 0.5) * h
    grids = np.meshgrid(*([x] * d), indexing="ij")
    return np.stack([g[mask] for g in grids], axis=1)


@pytest.mark.parametrize(
    "functional, theta, d, r, h",
    [("abs-centered", 0.2, 1, 1.0, 0.25), ("h2", 0.3, 2, 2.0, 1.0), ("abs-centered", 0.3, 2, 2.0, 1.0)],
)
def test_lattice_variance_matches_pair_sum_and_draws(functional, theta, d, r, h):
    mask = refs.window_mask(d, 1.0, r, h)
    pts = _sites(mask, h, d, 1.0, r)
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
    corr = (1.0 + dist**2) ** (-theta)
    pair_sum = h ** (2 * d) * float(np.sum(refs.pair_covariance(functional, corr)))
    var = refs.window_sum_variance(functional, theta, d, 1.0, r, h)
    assert var == pytest.approx(pair_sum, rel=1e-12)

    # brute force: Gaussian vectors with this correlation, G applied site-wise
    rng = np.random.default_rng(20141223)
    w = rng.standard_normal((400_000, pts.shape[0])) @ np.linalg.cholesky(corr).T
    g = w * w - 1.0 if functional == "h2" else np.abs(w) - np.sqrt(2.0 / pi)
    k = h**d * g.sum(axis=1)
    dev = k - k.mean()
    se = np.sqrt((np.mean(dev**4) - np.mean(dev**2) ** 2) / k.size)
    assert abs(np.var(k, ddof=1) - var) < 5.0 * se
    assert abs(k.mean()) < 5.0 * np.sqrt(var / k.size)


def test_pair_covariance_at_unit_correlation_is_the_variance():
    assert refs.pair_covariance("h2", 1.0) == pytest.approx(2.0)
    assert refs.pair_covariance("abs-centered", 1.0) == pytest.approx(1.0 - 2.0 / pi)
    assert refs.pair_covariance("abs-centered", 0.0) == pytest.approx(0.0, abs=1e-15)


def test_kappa_bound_formula():
    # d=1, alpha=0.4: the geometric branch 0.4 * 0.2 / 0.6 binds
    assert refs.cauchy_kappa_bound(1, 0.2) == pytest.approx(2.0 / 45.0, rel=1e-14)
    # d=2, alpha=0.6: 0.6 * 0.8 / 1.4 binds again
    assert refs.cauchy_kappa_bound(2, 0.3) == pytest.approx(0.48 / 1.4 / 3.0, rel=1e-14)


def test_sample_checks_accept_exact_moments_and_reject_shifted_ones():
    rng = np.random.default_rng(7)
    x = rng.chisquare(1, 200_000) - 1.0  # mean 0, variance 2, kappa_3 = 8
    z_mean, z_var = refs.sample_moment_checks(x, 0.0, 2.0)
    assert abs(z_mean) < 5.0 and abs(z_var) < 5.0
    assert abs(refs.third_cumulant_check(x, 8.0)) < 5.0
    assert abs(refs.sample_moment_checks(x, 0.0, 2.2)[1]) > 6.0
    assert abs(refs.third_cumulant_check(x, 10.0)) > 6.0


def test_benchmark_json_lists_what_run_reports():
    import run
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_tracer_sees_calls_through_imported_names():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rosenlab import covmodels, expcli, fieldsim, geometry

    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    originals = (fieldsim.simulate_field, expcli.simulate_field, geometry.y_d_kernel)
    tracer.install()
    try:
        plan = fieldsim.SimulationPlan(
            model=covmodels.cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=3
        )
        fieldsim.clear_spectrum_cache()
        fld = expcli.simulate_field(plan)
        window = geometry.ball(1)
        expcli.functional_integral(fld, lambda w: w * w - 1.0, window, 4.0)
        geometry.ball_ft_radial(geometry.ball(2), np.linspace(0.0, 3.0, 7))
        metrics = layer_metrics(tracer)
    finally:
        tracer.uninstall()
        fieldsim.clear_spectrum_cache()
    assert (fieldsim.simulate_field, expcli.simulate_field, geometry.y_d_kernel) == originals
    assert metrics["fieldsim.simulate_field.calls"] == 1
    torus = metrics["fieldsim.torus_normals"] // 2
    assert torus >= 32  # at least the 32-site lattice
    assert metrics["fieldsim.window_sites"] == 16  # [-4, 4] at h = 0.5
    assert metrics["geometry.ball_ft_radial.points"] == 7
    assert metrics["specfun.y_d_kernel.points"] == 7
    # self time excludes the nested y_d_kernel span
    times = tracer.times()
    assert times["geometry.ball_ft_radial"][2] <= times["geometry.ball_ft_radial"][1]
    names = [span[0] for span in tracer.spans]
    parent = tracer.spans[names.index("specfun.y_d_kernel")][3]
    assert tracer.spans[parent][0] == "geometry.ball_ft_radial"
