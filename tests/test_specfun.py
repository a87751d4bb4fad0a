"""Special functions against closed forms and an mpmath oracle.

Frozen golden values were produced with mpmath at 30 digits; the oracle
tests call mpmath directly at 40 digits (see conftest.py), so the reference
never shares code with scipy.special.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rosenlab.errors import DomainError
from rosenlab.specfun import hyp1f2_cosine, y_d_kernel


def _y_d_oracle(d, z):
    if z == 0.0:
        return 1.0
    nu = mp.mpf(d - 2) / 2
    z = mp.mpf(z)
    return float(2**nu * mp.gamma(mp.mpf(d) / 2) * mp.besselj(nu, z) * z ** (-nu))


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
    # mpmath oracle values
    assert hyp1f2_cosine(0.3, -0.25) == pytest.approx(0.8899256194415786, rel=1e-12)
    assert hyp1f2_cosine(1.0, -1.0) == pytest.approx(float(mp.hyp1f2(1, 0.5, 2, -1)), rel=1e-12)


def test_hyp1f2_large_argument():
    # where the ascending series would cancel: Gauss-Jacobi at -400, the
    # trigonometric expansion at -2500 (lam = 100)
    assert hyp1f2_cosine(0.3, -400.0) == pytest.approx(0.06869548306990676, rel=1e-10)
    want = float(mp.hyp1f2(1.2, 0.5, 2.2, -2500))
    assert hyp1f2_cosine(1.2, -2500.0) == pytest.approx(want, rel=1e-10)


def test_hyp1f2_errors():
    for bad in (0.0, -0.5):
        with pytest.raises(DomainError):
            hyp1f2_cosine(bad, -1.0)
    # its one caller passes z = -lam^2/4, which is 0 only by underflow
    assert hyp1f2_cosine(0.3, -0.0) == pytest.approx(1.0, abs=4e-16)
    for z in (5e-324, 1.0, 1e6, math.nan):
        with pytest.raises(DomainError, match="z <= 0"):
            hyp1f2_cosine(1.0, z)


@pytest.mark.parametrize("a", [0.3, 0.6, 0.75])
def test_hyp1f2_cosine_mpmath_oracle(a):
    # a = (1 - alpha)/2 and (theta + 1)/2 of the local-global density
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
