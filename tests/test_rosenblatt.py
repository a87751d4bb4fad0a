"""The chi-square series: its sampler, its CDF and its eigen-solve."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import jv
from scipy.stats import chi2, ks_2samp

from rosenlab import rosenblatt
from rosenlab.errors import (
    AccuracyError,
    IntegrabilityError,
    ParameterError,
    UnsupportedModelError,
)
from rosenlab.geometry import ball, ball_ft_radial, distance_integral, rectangle
from rosenlab.rosenblatt import EigenSeries, sample, series_cdf


def _weights(nu):
    # the CDF and the sampler read only the list: its last weight stands
    # for a one-term tail
    nu = tuple(float(v) for v in np.asarray(nu, dtype=float))
    return EigenSeries(eigenvalues=nu, leading_terms=len(nu) - 1, tail_terms=1,
                       tail_value=nu[-1], tail_variance=2.0 * nu[-1] ** 2,
                       tail_kappa3=8.0 * nu[-1] ** 3, weyl_ratio=1.0,
                       leading_share=1.0 - nu[-1] ** 2 / sum(v * v for v in nu))


def _series(m):
    return _weights(1.0 / (1.0 + np.arange(m)) ** 1.3)


def _mixed(m):
    # alternating signs, decaying like the interval series
    j = np.arange(m)
    return _weights(3.0 * (-1.0) ** j / (1.0 + j) ** 0.8)


def _allocating_sample(series, n, seed):
    # the normal-draw formula the sampler replaced: every term of every draw
    nu = np.asarray(series.eigenvalues)
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    done = 0
    while done < n:
        take = min(20_000, n - done)
        z = rng.standard_normal((take, nu.size))
        out[done : done + take] = (z * z - 1.0) @ nu
        done += take
    return out


def _ks_against(draws, cdf):
    # exact one-sample Kolmogorov statistic: both sides of every jump
    x = np.sort(draws)
    f = cdf(x)
    n = x.size
    return max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))


def test_the_first_draws_do_not_depend_on_the_draw_count():
    series = _mixed(300)
    full = sample(series, 50_000, 8)
    for k in (1, 7, 20_000, 49_999):
        np.testing.assert_array_equal(sample(series, k, 8), full[:k])


def test_the_first_draws_do_not_depend_on_the_sampler_blocks():
    series = _mixed(300)
    block = rosenblatt._SAMPLE_BLOCK
    full = sample(series, 3 * block + 5, 8)
    for k in (block - 1, block, block + 1, 2 * block + 3):
        np.testing.assert_array_equal(sample(series, k, 8), full[:k])


def test_sample_is_the_interpolant_at_the_uniforms_in_draw_order():
    # the sampler interpolates the sorted uniforms and scatters the values
    # back; each value is the plain interpolant at its own uniform
    series = _mixed(300)
    table = series.cdf_table
    u = np.random.default_rng(9191).random(200_000)
    want = np.interp(u, table.cdf, table.x)
    np.testing.assert_array_equal(sample(series, u.size, 9191), want)


@pytest.mark.parametrize("k", [8, 12])
def test_sample_lies_in_the_dkw_band_of_the_scaled_chi_square(k):
    nu, n = 0.7, 200_000
    draws = sample(_weights([nu] * k), n, 100 + k)
    # DKW: P(sup|F_n - F| > eps) <= 2 exp(-2 n eps^2) = 1e-3
    eps = np.sqrt(np.log(2.0 / 1e-3) / (2.0 * n))
    assert _ks_against(draws, lambda x: chi2.cdf(x / nu + k, k)) < eps


def test_sample_has_the_law_of_the_normal_draw_formula():
    series = _series(60)
    n = 100_000
    d = ks_2samp(sample(series, n, 21), _allocating_sample(series, n, 22)).statistic
    # two-sample critical value at level 1e-3
    assert d < np.sqrt(-0.5 * np.log(0.5e-3)) * np.sqrt(2.0 / n)


def test_cdf_table_error_bound_holds_at_the_cell_midpoints():
    series = _mixed(300)
    table = series.cdf_table
    assert table.cells >= 2**10 and table.cells & (table.cells - 1) == 0
    assert table.ks_bound <= 1e-10 + 1e-12
    assert series.cdf_table is table  # built once per series
    assert np.all(np.diff(table.cdf) >= 0.0)
    # the tabulated values are the series CDF
    nodes = np.arange(0, table.cells + 1, 61)
    np.testing.assert_allclose(table.cdf[nodes], series_cdf(series, table.x[nodes]),
                               rtol=0.0, atol=1e-13)
    # the linear interpolant the sampler inverts stays within the bound,
    # where the curvature peaks and across the whole grid
    peak = int(np.argmax(np.abs(np.diff(table.cdf, 2))))
    cells = np.unique(np.concatenate([
        np.arange(max(peak - 200, 0), min(peak + 200, table.cells)),
        np.arange(0, table.cells, 97),
    ]))
    mid = 0.5 * (table.x[cells] + table.x[cells + 1])
    interp = 0.5 * (table.cdf[cells] + table.cdf[cells + 1])
    err = np.abs(interp - series_cdf(series, mid))
    assert np.max(err) <= table.ks_bound
    assert np.max(err) > 0.1 * (table.ks_bound - 1e-12)  # the bound is not loose


def _one_shot_table(rule):
    """The table as one inverse FFT of length 2N per grid size: cell counts
    tried, the clipped nondecreasing values and the interpolation bound."""
    lo, hi, u, weight, phase = rule
    nodes = u.size
    odd = 1j * weight * np.exp(-1j * (phase - u * lo))
    cells, tried = min(8 * nodes, 2**22), []
    while True:
        tried.append(cells)
        spectrum = np.zeros(cells + 1, dtype=complex)
        spectrum[1 : 2 * nodes : 2] = odd
        cdf = 0.5 - cells * np.fft.irfft(spectrum, 2 * cells)[: cells + 1]
        interp = np.max(np.abs(np.diff(cdf, 2))) / 8.0
        if interp <= 1e-10:
            return tried, np.maximum.accumulate(np.clip(cdf, 0.0, 1.0)), interp
        cells = min(cells * 2 ** max(1, int(np.ceil(0.5 * np.log2(interp / 1e-10)))), 2**22)


@pytest.mark.parametrize("series, nodes", [
    (_mixed(300), 256),
    # 2 nodes > 4096: the short transforms are longer than 4096
    (_weights([0.7] * 8), 8192),
    # the first grid, 8192 cells, is two short transforms of 4096
    (_weights([0.7] * 12), 1024),
], ids=["mixed-300", "eight-equal", "twelve-equal"])
def test_cdf_table_is_the_one_shot_transform(series, nodes):
    lo, hi, u, _, _ = series.inversion_rule
    tried, cdf, interp = _one_shot_table(series.inversion_rule)
    table = series.cdf_table
    assert u.size == nodes
    # every case refines once, by more than one doubling
    assert len(tried) == 2 and tried[1] >= 4 * tried[0]
    assert table.cells == tried[-1]
    assert np.max(np.abs(table.cdf - cdf)) <= 1e-15
    assert abs(table.ks_bound - (interp + 1e-12)) <= 1e-15
    np.testing.assert_array_equal(table.x, lo + (hi - lo) / table.cells * np.arange(table.cells + 1))


def test_cdf_table_build_holds_one_table_and_a_few_megabytes():
    rule = _weights([0.7] * 8).inversion_rule
    tracemalloc.start()
    try:
        table = rosenblatt._cdf_table(rule, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.cells == 2**20
    # x and cdf, plus 8 MB; one inverse FFT of 2^21 points held 56 MB
    assert peak <= table.x.nbytes + table.cdf.nbytes + 8 * 2**20


@pytest.mark.parametrize("nu, message", [
    # phi(u) ~ u^(-3/2): the CDF behind the table needs over 2^20 nodes
    ([1.0, 0.8, 0.6], "decays too slowly"),
    # the chi-square_1 density smoothed over ~1e-3: too steep for 2^22 cells
    ([1.0] + [1e-4] * 100, "too steep to tabulate"),
])
def test_sample_refuses_a_series_it_cannot_tabulate(nu, message):
    with pytest.raises(AccuracyError, match=message):
        sample(_weights(nu), 10, 0)


@pytest.mark.parametrize("seed", [-1, 2.0, False])
def test_sample_refuses_a_bad_seed_before_tabulating(seed):
    series = _series(8)
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
        sample(series, 10, seed)
    assert "cdf_table" not in vars(series)


@pytest.mark.parametrize("k", [8, 12, 50, 300])
def test_series_cdf_matches_scaled_chi_square(k):
    # nu (chi2_k - k) is the series with k equal weights nu
    for nu in (0.05, 1.0, 3.0):
        series = _weights([nu] * k)
        sd = nu * np.sqrt(2.0 * k)
        x = np.linspace(-nu * k, 15.0 * sd, 801)
        want = chi2.cdf(x / nu + k, k)
        np.testing.assert_allclose(series_cdf(series, x), want, rtol=0.0, atol=1e-10)


def test_series_cdf_computes_its_rule_once_and_keeps_the_bytes(monkeypatch):
    series = _mixed(300)
    x = np.linspace(-12.0, 25.0, 501)
    # oracle: the rule computed fresh, summed as series_cdf sums one chunk:
    # Horner over the 64 nodes of each giant step in z = e^(-i du x), then
    # one cosine and sine per giant step
    nu, count = np.unique(series.eigenvalues, return_counts=True)
    lo, hi, du, nodes = rosenblatt._node_plan(nu, count, 1e-12)
    u, weight, phase = rosenblatt._inversion_terms(nu, count, du, nodes)
    xs = np.clip(x, lo, hi)
    c = (weight * np.exp(1j * phase)).reshape(nodes // 64, 64)
    z = np.exp(-1j * (du * xs))
    acc = np.repeat(c[:, 63:], xs.size, axis=1)
    for j in range(62, -1, -1):
        acc = acc * z + c[:, j : j + 1]
    turn = np.outer((64 * np.arange(nodes // 64) + 0.5) * du, xs)
    total = (acc.imag * np.cos(turn) - acc.real * np.sin(turn)).sum(axis=0)
    want = np.clip(0.5 - total, 0.0, 1.0)
    first = series_cdf(series, x)
    assert "inversion_rule" in vars(series)

    def unused(*args):
        raise AssertionError("the rule of this series is already kept")

    monkeypatch.setattr(rosenblatt, "_node_plan", unused)
    assert first.tobytes() == want.tobytes()
    assert series_cdf(series, x).tobytes() == want.tobytes()
    # the sampler's table reuses the kept rule
    assert series.cdf_table.ks_bound <= 1e-10 + 1e-12


def test_series_cdf_is_stable_under_a_tighter_tolerance():
    series = _mixed(300)
    x = np.linspace(-12.0, 25.0, 501)
    lo, hi, u, weight, phase = rosenblatt._inversion_rule(
        *np.unique(series.eigenvalues, return_counts=True), 1e-15)
    tighter = np.clip(0.5 - rosenblatt._midpoint_sum(u, weight, phase, np.clip(x, lo, hi)), 0.0, 1.0)
    np.testing.assert_allclose(series_cdf(series, x), tighter, rtol=0.0, atol=1e-12)
    # scalar in, scalar out; far tails are 0 and 1
    assert np.ndim(series_cdf(series, 0.5)) == 0
    np.testing.assert_allclose(series_cdf(series, [-1e6, 1e6]), [0.0, 1.0], atol=1e-12)


def test_series_cdf_lies_in_the_dkw_band_of_the_sampler():
    series = _mixed(300)
    n = 10**6
    draws = np.sort(sample(series, n, 17))
    grid = draws[:: n // 2000]
    ecdf = np.searchsorted(draws, grid, side="right") / n
    assert np.max(np.abs(series_cdf(series, grid) - ecdf)) < 1.36 / np.sqrt(n)


def test_series_cdf_refuses_a_one_term_series():
    # phi(u) ~ u^(-1/2): the inversion integral converges too slowly to cut off
    with pytest.raises(AccuracyError):
        series_cdf(_weights([1.0]), [0.0, 1.0])


def _merged_spectrum(kernel):
    return np.concatenate([
        np.repeat(np.linalg.eigvalsh(blk), mult)
        for blk, mult in zip(kernel.blocks, kernel.block_multiplicity)
    ])


def _dense_galerkin(alpha, cells):
    # the whole Galerkin matrix of |x - y|^(-alpha) on [-1, 1] in the
    # orthonormal cell indicators, entries by the cell double integrals
    # through F(t) = |t|^(2 - alpha) / ((1 - alpha)(2 - alpha))
    w = 2.0 / cells

    def F(t):
        return np.abs(t) ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    lag = np.abs(np.subtract.outer(np.arange(cells), np.arange(cells))) * w
    return (F(lag + w) + F(lag - w) - 2.0 * F(lag)) / w


def test_interval_blocks_have_the_spectrum_of_the_dense_mirrored_mesh():
    # the even and odd halves hold the whole spectrum of the 500 cells
    for alpha in (0.05, 0.2, 0.4, 0.48):
        kernel = rosenblatt.build_kernel(1, alpha)
        assert [blk.shape for blk in kernel.blocks] == [(250, 250)] * 2
        assert kernel.block_multiplicity == (1, 1) and kernel.spectrum_size == 500
        # A +- BJ are the halves: they reassemble the whole matrix, whose
        # entries carry rounding eps F(2) / w ~ 1e-13 from the differences
        dense = _dense_galerkin(alpha, 500)
        upper, mirrored = 0.5 * (kernel.blocks[0] + kernel.blocks[1]), 0.5 * (
            kernel.blocks[0] - kernel.blocks[1])
        whole = np.block([[upper, mirrored[:, ::-1]], [mirrored[:, ::-1].T, upper[::-1, ::-1]]])
        assert np.max(np.abs(whole - dense)) <= 1e-12
        want = np.linalg.eigvalsh(dense)[::-1]
        got = np.sort(_merged_spectrum(kernel))[::-1]
        assert np.max(np.abs(got - want)) <= 2e-12 * want[0]
        # the operator is positive; eigen_series keeps the 50 largest
        assert np.min(got) > 0.0
        np.testing.assert_array_equal(rosenblatt.eigen_series(kernel), got[:50])


def _law_at(monkeypatch, alpha, cells, leading):
    monkeypatch.setattr(rosenblatt, "_GALERKIN_CELLS", cells)
    monkeypatch.setattr(rosenblatt, "_LEADING_TERMS", leading)
    monkeypatch.setattr(rosenblatt, "_TAIL_CAP", 2**21)
    try:
        return rosenblatt.limit_law(ball(1), alpha)
    finally:
        monkeypatch.undo()


def _ks_between(a, b):
    lo = min(a.inversion_rule[0], b.inversion_rule[0])
    hi = max(a.inversion_rule[1], b.inversion_rule[1])
    x = np.linspace(lo, hi, 40_001)
    return float(np.max(np.abs(series_cdf(a, x) - series_cdf(b, x))))


@pytest.mark.parametrize("alpha", [0.05, 0.4, 0.48])
def test_interval_law_is_within_5e_5_of_a_dense_galerkin_reference(monkeypatch, alpha):
    # reference: 2000 cells split the same way, 200 leading terms and the
    # same three-cumulant tail past them; measured 1.9e-6, 1.3e-5 and 3.7e-6
    law = rosenblatt.limit_law(ball(1), alpha)
    reference = _law_at(monkeypatch, alpha, 2000, 200)
    assert reference.leading_terms == 200 and reference.tail_terms > law.tail_terms
    assert _ks_between(law, reference) <= 5e-5


_INTERVAL_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.48)
_DISK_GRID = (0.4, 0.5, 0.6, 0.7, 0.8)


@pytest.mark.parametrize("dimension, alpha", [(1, a) for a in _INTERVAL_GRID]
                         + [(2, a) for a in _DISK_GRID])
def test_every_alpha_of_the_two_grids_builds(dimension, alpha):
    law = rosenblatt.limit_law(ball(dimension), alpha)
    oracle = rosenblatt.variance_oracle(ball(dimension), alpha)
    nu = np.asarray(law.eigenvalues)
    k, m = law.leading_terms, law.tail_terms
    assert k == 50 and 1 <= m <= rosenblatt._TAIL_CAP and k + m == nu.size
    assert np.all(nu[k:] == law.tail_value) and law.tail_value <= nu[k - 1]
    assert law.variance == pytest.approx(oracle, rel=1e-14)
    assert 2.0 * m * law.tail_value**2 == pytest.approx(law.tail_variance, rel=1e-14)
    assert law.leading_share == pytest.approx(2.0 * np.sum(nu[:k] ** 2) / oracle, rel=1e-12)
    # no term is capped on these grids: the tail carries T_t exactly
    assert 8.0 * m * law.tail_value**3 == pytest.approx(law.tail_kappa3, rel=1e-2)
    assert 0.8 <= law.weyl_ratio <= 1.25


def test_the_interval_law_at_0_4_meets_the_galerkin_third_cumulant():
    law = rosenblatt.limit_law(ball(1), 0.4)
    assert law.tail_terms == 4069
    # 2 sum nu^2 is the oracle; 8 sum nu^3 is the 1000-cell Galerkin value
    # 280.19 of the benchmark to 1%, where the rescaled law read 304.38
    assert abs(law.variance - rosenblatt.variance_oracle(ball(1), 0.4)) <= 1e-12
    assert rosenblatt.cumulant(law, 3) == pytest.approx(280.19, rel=1e-2)


@pytest.mark.parametrize("alpha, ratio", [(0.1, 2834.0), (0.2, 69.25), (0.3, 3.909)])
def test_the_disk_at_small_alpha_is_refused_by_the_weyl_band(alpha, ratio):
    # the frequency mesh loses variance there: V_t is far above V_W
    with pytest.raises(AccuracyError, match=r"tail variance V_t/V_W = [0-9.]+ outside "
                                            r"\[0.8, 1.25\]") as info:
        rosenblatt.limit_law(ball(2), alpha)
    assert info.value.estimate == pytest.approx(ratio, rel=1e-3)


def test_the_multiplicities_give_the_rule_of_the_listed_terms():
    # the interval law at 0.4 lists 4119 terms in 51 distinct values
    law = rosenblatt.limit_law(ball(1), 0.4)
    nu = np.asarray(law.eigenvalues)
    lo, hi, u, weight, phase = law.inversion_rule
    du = 2.0 * u[0]
    one_by_one = rosenblatt._inversion_terms(nu, np.ones(nu.size, dtype=int), du, u.size)
    np.testing.assert_allclose(weight, one_by_one[1], rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(phase, one_by_one[2], rtol=1e-11, atol=0.0)


def test_the_lower_chernoff_point_of_a_positive_series_is_not_minus_its_sum():
    # every weight is positive, so the lower point is a Chernoff point over
    # all t > 0, not the trivial -sum nu = -144.8; the table then needs
    # 2^20 cells where the trivial point needed 2^21
    law = rosenblatt.limit_law(ball(1), 0.4)
    lo, hi = law.inversion_rule[:2]
    assert -sum(law.eigenvalues) < -144.0 and -29.0 < lo < -28.0
    assert series_cdf(law, lo) <= 0.25e-12
    assert law.cdf_table.cells == 2**20


@pytest.mark.parametrize("dimension, alpha", [(1, 0.2), (1, 0.4), (2, 0.6)])
def test_every_kernel_block_is_exactly_symmetric(dimension, alpha):
    kernel = rosenblatt.build_kernel(dimension, alpha)
    assert all(np.array_equal(blk, blk.T) for blk in kernel.blocks)


def test_angular_coefficients_match_the_full_angle_fft():
    # reference: the transform at every one of 512 angles and at every
    # ordered pair of radii, and the real part of its rfft over the angle;
    # subject: the addition-theorem coefficients rows[m::2].T @ rows[m::2]
    rad, _ = rosenblatt._radial_axis_2d(64, 20.0)
    n_psi = 512
    cos = np.cos(2.0 * np.pi * np.arange(n_psi) / n_psi)
    r, s = rad[:, None, None], rad[None, :, None]
    chord = np.sqrt(np.maximum(r**2 + s**2 - 2.0 * r * s * cos, 0.0))
    want = np.fft.rfft(ball_ft_radial(ball(2), chord), axis=2).real[:, :, :41] / n_psi
    rows = rosenblatt._addition_rows(rad, 20.0)
    assert rows.shape[0] < 41  # the harmonics past the last order are zero
    got = np.stack([rows[m::2].T @ rows[m::2] for m in range(41)], axis=2)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    np.testing.assert_array_equal(got, got.transpose(1, 0, 2))


def test_bessel_table_matches_scipy_on_the_radial_mesh():
    cutoff = rosenblatt.DEFAULT_CUTOFF_2D
    rad, _ = rosenblatt._radial_axis_2d(rosenblatt.DEFAULT_RADIAL_2D, cutoff)
    angles = rosenblatt._bessel_angles(cutoff)
    assert angles == 256
    r = np.append(rad, cutoff)
    table = rosenblatt._bessel_table(r, angles)
    assert table.shape == (angles // 2, r.size)
    assert np.max(np.abs(table - jv(np.arange(angles // 2)[:, None], r))) <= 1e-14
    # J_1(r)/r next to the constant term of e^(i r sin t), at the inner radius
    inner = rosenblatt._bessel_table(np.array([1e-8]), angles)[1, 0] / 1e-8
    assert inner == pytest.approx(jv(1, 1e-8) / 1e-8, rel=1e-12)
    assert rosenblatt._addition_rows(rad, cutoff).shape[0] == 83


_ALPHA = {1: 0.4, 2: 0.6}


@pytest.fixture(scope="module")
def unit_laws():
    return {d: rosenblatt.limit_law(ball(d), alpha) for d, alpha in _ALPHA.items()}


def _sine_per_node(series, x):
    # the midpoint sum with one sine per (point, node)
    lo, hi, u, weight, phase = series.inversion_rule
    xs = np.clip(np.asarray(x, dtype=float), lo, hi)[..., None]
    return np.clip(0.5 - np.sin(phase - u * xs) @ weight, 0.0, 1.0)


def test_series_cdf_matches_the_sine_per_node_form(unit_laws):
    # the interval and disk laws (128 and 256 nodes) and nu (chi2_8 - 8)
    # at 8192 nodes, where the giant steps run to phases of 2^13 pi
    chi = _weights([1.0] * 8)
    assert chi.inversion_rule[2].size >= 8192
    for series in (unit_laws[1], unit_laws[2], chi):
        lo, hi = series.inversion_rule[:2]
        x = np.linspace(lo - 1.0, hi + 1.0, 2001)
        assert np.max(np.abs(series_cdf(series, x) - _sine_per_node(series, x))) <= 1e-14
        got = series_cdf(series, 0.3)
        assert np.ndim(got) == 0
        assert abs(got - _sine_per_node(series, 0.3)) <= 1e-14


def test_the_interval_as_a_rectangle_gives_the_same_series(unit_laws):
    assert rosenblatt.limit_law(rectangle([-1.0], [1.0]), 0.4) == unit_laws[1]


@pytest.mark.parametrize("window, radius", [
    pytest.param(ball(1, 0.5), 0.5, id="interval-0.5"),
    pytest.param(ball(1, 3.0), 3.0, id="interval-3"),
    pytest.param(ball(2, 0.5), 0.5, id="disk-0.5"),
    pytest.param(ball(2, 3.0), 3.0, id="disk-3"),
    # every interval of length 2 is a translate of [-1, 1]
    pytest.param(rectangle([-0.5], [1.5]), 1.0, id="shifted-right"),
    pytest.param(rectangle([-1.75], [0.25]), 1.0, id="shifted-left"),
])
def test_limit_law_is_the_unit_law_dilated(unit_laws, window, radius):
    # the transform of the ball of radius R is R^d times the unit one at
    # R lam, so the eigenvalues scale by R^(d - alpha), and a translate of
    # a window has its law
    d = window.dimension
    unit = unit_laws[d]
    law = rosenblatt.limit_law(window, _ALPHA[d])
    if radius == 1.0:
        assert law == unit
        return
    scale = radius ** (d - _ALPHA[d])
    want = scale * np.asarray(unit.eigenvalues)
    # the tail is the same M terms dilated, from the window's own oracle
    assert (len(law.eigenvalues), law.leading_terms, law.tail_terms) == (
        len(unit.eigenvalues), unit.leading_terms, unit.tail_terms)
    assert np.max(np.abs(np.asarray(law.eigenvalues) - want)) <= 1e-13 * abs(want[0])
    assert law.tail_value == pytest.approx(scale * unit.tail_value, rel=1e-12)
    assert law.tail_variance == pytest.approx(scale**2 * unit.tail_variance, rel=1e-12)
    assert law.tail_kappa3 == pytest.approx(scale**3 * unit.tail_kappa3, rel=1e-12)
    assert law.weyl_ratio == pytest.approx(unit.weyl_ratio, rel=1e-12)
    assert law.leading_share == pytest.approx(unit.leading_share, rel=1e-12)
    assert law.variance == pytest.approx(rosenblatt.variance_oracle(window, _ALPHA[d]), rel=1e-14)


@pytest.mark.parametrize("window", [
    pytest.param(rectangle((-1.0, -0.5), (1.0, 0.5)), id="d2-rectangle"),
    pytest.param(ball(3), id="d3-ball"),
])
def test_limit_law_refuses_a_window_without_a_law_before_any_build(monkeypatch, window):
    def never_built(dimension, alpha):
        raise AssertionError("build_kernel reached")

    monkeypatch.setattr(rosenblatt, "build_kernel", never_built)
    with pytest.raises(UnsupportedModelError, match="no limit law"):
        rosenblatt.limit_law(window, 0.3)


def test_disk_law_keeps_the_values_of_the_angular_fft_build():
    # pinned from the build that sampled the chord at 512 angles and solved
    # 97 radial blocks of order 160, which read 4.04647642267508 and
    # 0.945562514469661 after a rescale by 1.0118016808644539
    series = rosenblatt.limit_law(ball(2), 0.6)
    assert (series.leading_terms, series.tail_terms) == (50, 800)
    nu = series.eigenvalues
    assert nu[0] == pytest.approx(4.04647642267508 / 1.0118016808644539, rel=1e-12)
    assert nu[1] == pytest.approx(0.945562514469661 / 1.0118016808644539, rel=1e-12)
    assert nu[2] == nu[1]
    assert series.weyl_ratio == pytest.approx(0.9427787022583081, rel=1e-12)
    assert rosenblatt.cumulant(series, 3) == pytest.approx(530.6565599393125, rel=1e-12)


def test_disk_kernel_build_stays_small_in_memory():
    # the angular-sample build held ~98 MB of chord intermediates
    tracemalloc.start()
    try:
        rosenblatt.build_kernel(2, 0.6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_eigen_series_keeps_the_disk_series():
    kernel = rosenblatt.build_kernel(2, 0.6)
    full = _merged_spectrum(kernel)
    full = full[np.argsort(-np.abs(full))][:50]
    np.testing.assert_array_equal(rosenblatt.eigen_series(kernel), full)
    # one block per order of the addition rows
    assert len(kernel.blocks) == 83 and kernel.block_multiplicity == (1,) + (2,) * 82


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_variance_oracle_of_the_interval_is_its_closed_form(alpha):
    # 2 int int_{[0,L]^2} |u - v|^(-2 alpha) = 4 L^(2 - 2 alpha) / ((1 - 2 alpha)(2 - 2 alpha))
    # with L = 2
    want = 4.0 * 2.0 ** (2.0 - 2.0 * alpha) / ((1.0 - 2.0 * alpha) * (2.0 - 2.0 * alpha))
    assert rosenblatt.variance_oracle(ball(1), alpha) == pytest.approx(want, rel=1e-10)


def test_variance_oracle_of_the_disk_is_the_overlap_area_integral():
    # t = u - v turns 2 int int_{D^2} |u - v|^(-2 alpha) into
    # 4 pi int_0^2 z^(1 - 2 alpha) A(z) dz, A(z) the area shared by two unit
    # disks z apart; the algebraic weight takes the power at z = 0
    alpha = 0.6

    def overlap(z):
        return 2.0 * np.arccos(0.5 * z) - 0.5 * z * np.sqrt(max(4.0 - z * z, 0.0))

    val, _ = quad(overlap, 0.0, 2.0, weight="alg", wvar=(1.0 - 2.0 * alpha, 0.0),
                  epsabs=0.0, epsrel=1e-12, limit=200)
    assert rosenblatt.variance_oracle(ball(2), alpha) == pytest.approx(4.0 * np.pi * val, rel=1e-8)


def _quadrature_oracle(window, alpha):
    return 2.0 * distance_integral(window, 1.0, lambda z: z ** (-2.0 * alpha))


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("dimension, alpha", [
    (1, 0.1), (1, 0.25), (1, 0.4), (2, 0.3), (2, 0.6), (2, 0.9),
])
def test_closed_form_ball_oracle_matches_the_distance_integral(dimension, alpha, radius):
    window = ball(dimension, radius)
    want = _quadrature_oracle(window, alpha)
    assert rosenblatt.variance_oracle(window, alpha) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("lower, upper", [(-1.0, 2.0), (-0.5, 2.5)])
def test_closed_form_oracle_of_an_asymmetric_interval(lower, upper):
    window = rectangle((lower,), (upper,))
    want = _quadrature_oracle(window, 0.3)
    assert rosenblatt.variance_oracle(window, 0.3) == pytest.approx(want, rel=1e-11)


def _rectangle_reference(a, b, alpha):
    # 8 int_0^a int_0^b (a - x)(b - y)(x^2 + y^2)^(-alpha) dy dx, split on the
    # diagonal y = (b/a) x; each triangle's corner singularity is taken apart
    # by the Duffy substitution y = x t (x = y t), leaving x^(1 - 2 alpha)
    # to quad's algebraic weight
    def triangle(p, q):
        def inner(t):
            val, _ = quad(lambda x: (p - x) * (q - x * t), 0.0, p,
                          weight="alg", wvar=(1.0 - 2.0 * alpha, 0.0), epsabs=0.0, epsrel=1e-13)
            return (1.0 + t * t) ** (-alpha) * val

        val, _ = quad(inner, 0.0, q / p, epsabs=0.0, epsrel=1e-13)
        return val

    return 8.0 * (triangle(a, b) + triangle(b, a))


@pytest.mark.parametrize("lower, upper", [
    ((-1.0, -0.5), (1.0, 0.5)), ((-0.25, -2.0), (1.5, 0.5)), ((-1.0, -1.0), (1.0, 1.0)),
])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9])
def test_rectangle_oracle_matches_a_cartesian_double_integral(lower, upper, alpha):
    # the oracle does not go through geometry.distance_integral
    assert not hasattr(rosenblatt, "distance_integral")
    window = rectangle(lower, upper)
    a, b = (hi - lo for lo, hi in zip(lower, upper))
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        value = rosenblatt.variance_oracle(window, alpha)
    assert value == pytest.approx(_rectangle_reference(a, b, alpha), rel=1e-10)


def test_rectangle_oracle_past_the_histogram_divergence():
    # 2 alpha >= 1: the histogram pdf of distance_integral gave 19.70 and
    # 59.96 for this 2 x 1 rectangle
    window = rectangle((-1.0, -0.5), (1.0, 0.5))
    assert rosenblatt.variance_oracle(window, 0.6) == pytest.approx(21.2977, rel=1e-5)
    assert rosenblatt.variance_oracle(window, 0.9) == pytest.approx(109.037, rel=1e-5)


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_variance_oracle_refuses_a_rectangle_beyond_the_plane(alpha):
    # the histogram pdf gave 119.15 and 123.96 on this cube with an
    # IntegrationWarning; no exact value is at hand
    cube = rectangle((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedModelError, match="rectangle in d=3"):
            rosenblatt.variance_oracle(cube, alpha)


@pytest.mark.parametrize("dimension", [1, 2])
def test_variance_oracle_diverges_at_half_the_dimension(dimension):
    with pytest.raises(IntegrabilityError):
        rosenblatt.variance_oracle(ball(dimension), 0.5 * dimension)


def test_limit_law_refuses_a_mesh_off_the_oracle(monkeypatch):
    # 100 cells do not resolve the interval past 50 terms: the oracle's
    # remainder is 1.293 times the Weyl tail variance
    monkeypatch.setattr(rosenblatt, "_GALERKIN_CELLS", 100)
    with pytest.raises(AccuracyError, match=r"V_t/V_W = 1\.293 outside \[0\.8, 1\.25\]"):
        rosenblatt.limit_law(ball(1), 0.4)
