"""The chi-square series sampler."""

import numpy as np

from rosenlab import rosenblatt
from rosenlab.rosenblatt import EigenSeries, sample


def _series(m):
    nu = 1.0 / (1.0 + np.arange(m)) ** 1.3
    return EigenSeries(eigenvalues=tuple(float(v) for v in nu), kept=m, tail_mass=0.0,
                       raw_variance=2.0 * float(np.sum(nu * nu)))


def _reference_sample(series, n, seed):
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
    np.testing.assert_array_equal(got, _reference_sample(series, n, 11))
    # fewer draws than one chunk
    np.testing.assert_array_equal(sample(series, 7, 3), _reference_sample(series, 7, 3))
