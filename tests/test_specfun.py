"""Special functions against closed forms and an mpmath oracle.

Frozen golden values were produced with mpmath at 30 digits; the oracle
tests call mpmath directly at 40 digits (see conftest.py), so the reference
never shares code with scipy.special.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rosenlab.errors import AccuracyError, DomainError
from rosenlab.hermite import _hermite_matrix
from rosenlab.specfun import hyp1f2_cosine, y_d_kernel


def _y_d_oracle(d, z):
    if z == 0.0:
        return 1.0
    nu = mp.mpf(d - 2) / 2
    z = mp.mpf(z)
    return float(2**nu * mp.gamma(mp.mpf(d) / 2) * mp.besselj(nu, z) * z ** (-nu))


def _hermite(k, w):
    """H_k(w) from the recurrence the Hermite expansion uses."""
    return _hermite_matrix(k, np.atleast_1d(np.asarray(w, dtype=float)))[k]


def test_bessel_j_goldens():
    # Y_2 = J_0 and Y_4 = 2 J_1(z)/z, mpmath oracle
    assert y_d_kernel(2, 2.0) == pytest.approx(0.22389077914123567, rel=1e-14)
    assert y_d_kernel(4, 2.0) == pytest.approx(0.5767248077568734, rel=1e-14)
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z, so Y_3(pi/2) = 2/pi
    assert y_d_kernel(3, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)
    # generic order J_{5/2}(7.3) = -0.3008494315874998 (mpmath oracle)
    want = 2.0**2.5 * math.gamma(3.5) * -0.3008494315874998 * 7.3**-2.5
    assert y_d_kernel(7, 7.3) == pytest.approx(want, rel=1e-12)


def test_bessel_j_half_integer_grid():
    # Y_5 = 3 (sin z - z cos z) / z^3, through the generic J_{3/2}
    for z in np.concatenate([np.linspace(0.05, 18.0, 41), np.linspace(21.0, 80.0, 23)]):
        want = 3.0 * (math.sin(z) - z * math.cos(z)) / z**3
        assert y_d_kernel(5, z) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_bessel_j_domain():
    with pytest.raises(DomainError):
        y_d_kernel(2, -1.0)
    with pytest.raises(DomainError):
        y_d_kernel(2, np.array([0.5, -1e-12]))
    for bad in (0, 1.5, -2):
        with pytest.raises(DomainError):
            y_d_kernel(bad, 1.0)


def test_hyp1f2_goldens():
    assert hyp1f2_cosine(0.7, 0.0) == 1.0
    # mpmath oracle values
    assert hyp1f2_cosine(0.3, -0.25) == pytest.approx(0.8899256194415786, rel=1e-12)
    assert hyp1f2_cosine(1.0, 1.0) == pytest.approx(float(mp.hyp1f2(1, 0.5, 2, 1)), rel=1e-12)


def test_hyp1f2_large_argument():
    # cancellation-heavy regime; the trigonometric branch must hold the line
    assert hyp1f2_cosine(0.3, -400.0) == pytest.approx(0.06869548306990676, rel=1e-10)
    want = float(mp.hyp1f2(1.2, 0.5, 2.2, 30))
    assert hyp1f2_cosine(1.2, 30.0) == pytest.approx(want, rel=1e-10)


def test_hyp1f2_errors():
    for bad in (0.0, -0.5):
        with pytest.raises(DomainError):
            hyp1f2_cosine(bad, -1.0)
    # the terms overflow before the series settles
    with pytest.raises(AccuracyError):
        hyp1f2_cosine(1.0, 1e6)


@pytest.mark.parametrize("a", [0.3, 0.6, 0.75])
def test_hyp1f2_cosine_mpmath_oracle(a):
    # a = (1 - alpha)/2 and (theta + 1)/2 of the local-global density; -99
    # sits at the series' cancellation floor, -100 starts the trig branch
    tol = {-0.25: 1e-14, -99.0: 1e-8, -100.0: 1e-9, -400.0: 1e-13}
    for z, rel in tol.items():
        want = float(mp.hyp1f2(a, 0.5, a + 1, z))
        assert hyp1f2_cosine(a, z) == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("a", [0.3, 0.6, 1.0, 1.2])
def test_hyp1f2_cosine_is_exact_around_the_old_switch(a):
    # the series cancelled near z = -100 and the trig branch is ~1e-11 there
    for z in np.linspace(-120.0, -80.0, 81):
        want = float(mp.hyp1f2(a, 0.5, a + 1, z))
        assert abs(hyp1f2_cosine(a, z) - want) <= 1e-12, z


def test_hermite_poly_goldens():
    assert _hermite(2, 0.0)[0] == -1.0
    assert _hermite(3, 2.0)[0] == 2.0
    # explicit coefficients: H5(w) = w^5 - 10 w^3 + 15 w
    w = 1.5
    assert _hermite(5, w)[0] == pytest.approx(w**5 - 10 * w**3 + 15 * w, rel=1e-13)


def test_hermite_poly_matches_recurrence_grid():
    # numpy's probabilists' basis as an independent evaluator
    from numpy.polynomial import hermite_e

    w = np.linspace(-4.0, 4.0, 17)
    rows = _hermite_matrix(10, w)
    for k in range(11):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        want = hermite_e.hermeval(w, coeffs)
        np.testing.assert_allclose(rows[k], want, rtol=1e-11, atol=1e-11)


def test_gauss_hermite_orthogonality():
    # E H_j H_k = delta_jk k! under the standard normal weight
    nodes, weights = np.polynomial.hermite_e.hermegauss(120)
    weights = weights / np.sqrt(2.0 * np.pi)
    rows = _hermite_matrix(10, nodes)
    for j in range(11):
        for k in range(j, 11):
            got = float(np.sum(weights * rows[j] * rows[k]))
            want = math.factorial(k) if j == k else 0.0
            assert abs(got - want) < 1e-8 * max(1.0, want)


def test_y_d_kernel_limits_and_reductions():
    for d in (1, 2, 3, 4):
        assert y_d_kernel(d, 0.0) == 1.0
    assert y_d_kernel(1, math.pi) == pytest.approx(-1.0, abs=1e-12)
    assert y_d_kernel(3, math.pi) == pytest.approx(0.0, abs=1e-12)


def test_y_d_kernel_closed_forms_grid():
    # Y_1 = cos, Y_3 = sinc
    for z in np.linspace(0.0, 40.0, 83):
        assert abs(y_d_kernel(1, z) - math.cos(z)) < 1e-10
        want = 1.0 if z == 0.0 else math.sin(z) / z
        assert abs(y_d_kernel(3, z) - want) < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_y_d_kernel_mpmath_oracle(d):
    # 119.7 is the largest chord of the d=2 kernel build
    z = np.array([0.0, 1e-9, 1e-3, 0.5, 2.0, 20.0, 119.7, 600.0])
    got = y_d_kernel(d, z)
    assert got.shape == z.shape
    for zi, gi in zip(z, got):
        assert abs(gi - _y_d_oracle(d, zi)) < 1e-14
        assert y_d_kernel(d, zi) == gi  # scalar and array paths agree
    grid = z.reshape(2, 4)
    np.testing.assert_array_equal(y_d_kernel(d, grid), got.reshape(2, 4))
