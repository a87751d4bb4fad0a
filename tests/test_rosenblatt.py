"""The chi-square series: its sampler, its CDF and its eigen-solve."""

import numpy as np
import pytest
from scipy.stats import chi2

from rosenlab import rosenblatt
from rosenlab.covmodels import c2_constant
from rosenlab.errors import AccuracyError
from rosenlab.geometry import ball, rectangle
from rosenlab.rosenblatt import EigenSeries, sample, series_cdf


def _weights(nu):
    nu = np.asarray(nu, dtype=float)
    return EigenSeries(eigenvalues=tuple(float(v) for v in nu), kept=nu.size, tail_mass=0.0,
                       raw_variance=2.0 * float(np.sum(nu * nu)))


def _series(m):
    return _weights(1.0 / (1.0 + np.arange(m)) ** 1.3)


def _mixed(m):
    # alternating signs, decaying like the interval series
    j = np.arange(m)
    return _weights(3.0 * (-1.0) ** j / (1.0 + j) ** 0.8)


def _allocating_sample(series, n, seed):
    # the formula before the sampler reused its buffer
    nu = np.asarray(series.eigenvalues)
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    done = 0
    while done < n:
        take = min(rosenblatt._SAMPLE_CHUNK, n - done)
        z = rng.standard_normal((take, nu.size))
        out[done : done + take] = (z * z - 1.0) @ nu
        done += take
    return out


def test_sample_is_bit_identical_to_the_allocating_formula():
    series = _series(60)
    n = 45_000  # two full chunks and a partial one
    assert n > 2 * rosenblatt._SAMPLE_CHUNK
    got = sample(series, n, 11)
    np.testing.assert_array_equal(got, _allocating_sample(series, n, 11))
    # fewer draws than one chunk
    np.testing.assert_array_equal(sample(series, 7, 3), _allocating_sample(series, 7, 3))


@pytest.mark.parametrize("k", [8, 12, 50, 300])
def test_series_cdf_matches_scaled_chi_square(k):
    # nu (chi2_k - k) is the series with k equal weights nu
    for nu in (0.05, 1.0, 3.0):
        series = _weights([nu] * k)
        sd = nu * np.sqrt(2.0 * k)
        x = np.linspace(-nu * k, 15.0 * sd, 801)
        want = chi2.cdf(x / nu + k, k)
        np.testing.assert_allclose(series_cdf(series, x), want, rtol=0.0, atol=1e-10)


def test_series_cdf_is_stable_under_a_tighter_tolerance():
    series = _mixed(300)
    x = np.linspace(-12.0, 25.0, 501)
    np.testing.assert_allclose(
        series_cdf(series, x), series_cdf(series, x, tol=1e-15), rtol=0.0, atol=1e-12
    )
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


@pytest.fixture(scope="module")
def interval_kernel():
    return rosenblatt.build_kernel(ball(1), 1, 0.4)


def _merged_spectrum(kernel):
    return np.concatenate([
        np.repeat(np.linalg.eigvalsh(blk), mult)
        for blk, mult in zip(kernel.blocks, kernel.block_multiplicity)
    ])


def test_eigen_series_drops_rounding_noise(interval_kernel):
    full = _merged_spectrum(interval_kernel)
    full = full[np.argsort(-np.abs(full))][:300]
    series = rosenblatt.eigen_series(interval_kernel, 300)
    nu = np.asarray(series.eigenvalues)
    floor = interval_kernel.spectrum_size * np.finfo(float).eps * abs(nu[0])
    assert series.kept == nu.size < 300
    assert np.min(np.abs(nu)) > floor
    np.testing.assert_array_equal(nu, full[: nu.size])
    assert series.variance == pytest.approx(2.0 * np.sum(full**2), rel=1e-12)


def test_interval_blocks_have_the_spectrum_of_the_dense_mirrored_mesh(interval_kernel):
    # reference: the whole Nystrom matrix on the graded mesh mirrored to the
    # negative axis, c2 sqrt(w_i w_j) K(x_i - x_j) |x_i x_j|^(-(1 - alpha)/2)
    # with the unit-interval transform K(t) = 2 sin(t) / t
    alpha = 0.4
    half, w_half = rosenblatt._graded_axis(1504, rosenblatt.DEFAULT_CUTOFF_1D)
    x = np.concatenate([-half[::-1], half])
    w = np.concatenate([w_half[::-1], w_half])
    t = x[:, None] - x[None, :]
    safe = np.where(t == 0.0, 1.0, t)
    k = np.where(t == 0.0, 2.0, 2.0 * np.sin(safe) / safe)
    s = np.sqrt(w) * np.abs(x) ** (-0.5 * (1.0 - alpha))
    dense = c2_constant(1, alpha) * np.outer(s, s) * k
    want = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert interval_kernel.block_multiplicity == (1, 1)
    assert [blk.shape for blk in interval_kernel.blocks] == [(752, 752)] * 2
    assert interval_kernel.spectrum_size == x.size == 1504
    got = np.sort(_merged_spectrum(interval_kernel))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_the_interval_as_a_rectangle_gives_the_same_series(interval_kernel):
    kernel = rosenblatt.build_kernel(rectangle([-1.0], [1.0]), 1, 0.4)
    assert rosenblatt.eigen_series(kernel, 300) == rosenblatt.eigen_series(interval_kernel, 300)


def test_eigen_series_keeps_the_disk_series():
    kernel = rosenblatt.build_kernel(ball(2), 2, 0.6)
    full = _merged_spectrum(kernel)
    full = full[np.argsort(-np.abs(full))][:300]
    series = rosenblatt.eigen_series(kernel, 300)
    assert series.kept == 300
    np.testing.assert_array_equal(series.eigenvalues, full)
