"""Hermite expansions and rank detection.

Gauss-Hermite quadrature converges slowly for the kinked |w| functionals,
so their coefficient tolerances sit near 1e-4; polynomial functionals are
held to 1e-10, and the catalog's closed forms to 1e-12 against mpmath.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rosenlab.errors import ParameterError
from rosenlab.hermite import functional_catalog, hermite_coefficients

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_h2_coefficients_exact():
    exp = hermite_coefficients(functional_catalog("h2"), 6)
    assert exp.coeffs[2] == pytest.approx(2.0, abs=1e-10)
    for j in (0, 1, 3, 4, 5, 6):
        assert abs(exp.coeffs[j]) < 1e-10


def test_square_coefficients():
    exp = hermite_coefficients(lambda w: w * w, 6)
    assert exp.coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert exp.coeffs[2] == pytest.approx(2.0, abs=1e-10)
    for j in (1, 3, 4, 5, 6):
        assert abs(exp.coeffs[j]) < 1e-10


def test_abs_coefficients():
    # E|w| = sqrt(2/pi); absolute-moment identities give C4 = -C0
    exp = hermite_coefficients(np.abs, 6)
    assert exp.coeffs[0] == pytest.approx(SQRT_2_OVER_PI, abs=2e-4)
    assert exp.coeffs[2] == pytest.approx(SQRT_2_OVER_PI, abs=2e-4)
    assert exp.coeffs[4] == pytest.approx(-SQRT_2_OVER_PI, abs=2e-4)
    # odd coefficients vanish for even G
    for j in (1, 3, 5):
        assert abs(exp.coeffs[j]) < 1e-10


_MP_CATALOG = {
    "h2": lambda w: w * w - 1,
    "square": lambda w: w * w,
    "abs-centered": lambda w: abs(w) - mp.sqrt(2 / mp.pi),
}


@pytest.mark.parametrize("name", sorted(_MP_CATALOG))
def test_catalog_coefficients_match_mpmath(name):
    got = hermite_coefficients(functional_catalog(name), 6).coeffs
    g = _MP_CATALOG[name]
    for j in range(7):
        # probabilists' He_j(w) = 2^(-j/2) H_j(w / sqrt 2), split at the kink
        want = mp.quad(
            lambda w: g(w) * mp.hermite(j, w / mp.sqrt(2)) * mp.exp(-w * w / 2),
            [-mp.inf, 0, mp.inf],
        ) / (mp.sqrt(2 * mp.pi) * mp.sqrt(2) ** j)
        assert abs(got[j] - float(want)) <= 1e-12, (j, got[j], want)


def test_rank_detection():
    assert hermite_coefficients(lambda w: w, 4).rank == 1
    assert hermite_coefficients(functional_catalog("abs-centered"), 4).rank == 2
    assert hermite_coefficients(functional_catalog("h2"), 4).rank == 2
    exp = hermite_coefficients(lambda w: w**3, 5)
    assert exp.rank == 1  # E w^3 H_1 = 3


def test_rank_undetected():
    # a constant has no coefficient with j >= 1
    exp = hermite_coefficients(lambda w: np.ones_like(w), 4)
    assert exp.rank is None


def test_quadrature_order_gates():
    with pytest.raises(ParameterError):
        hermite_coefficients(np.abs, 6, quad_order=8)


def test_catalog():
    assert hermite_coefficients(functional_catalog("square"), 2).coeffs[0] == pytest.approx(1.0, abs=1e-10)
    g = functional_catalog("abs-centered")
    w = np.array([-1.5, 0.0, 2.0])
    assert np.allclose(g(w), np.abs(w) - SQRT_2_OVER_PI)
    with pytest.raises(ParameterError):
        functional_catalog("cubic")


def test_bivariate_moment_identity():
    # E H_k(x) H_m(y) = delta_km k! rho^k for jointly Gaussian (x, y)
    from rosenlab.hermite import _hermite_matrix

    n = 10**6
    rng = np.random.default_rng(99)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    for rho in (0.3, 0.7):
        x = z1
        y = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
        hx = {k: np.polynomial.hermite_e.hermeval(x, np.eye(5)[k]) for k in range(1, 5)}
        hy = {k: np.polynomial.hermite_e.hermeval(y, np.eye(5)[k]) for k in range(1, 5)}
        # the expansion's recurrence agrees with numpy's basis on spot checks
        assert _hermite_matrix(3, np.array([1.25]))[3, 0] == pytest.approx(
            float(np.polynomial.hermite_e.hermeval(1.25, np.eye(5)[3])), rel=1e-12
        )
        for k in range(1, 5):
            for m in range(k, 5):
                prod = hx[k] * hy[m]
                got = float(prod.mean())
                se = float(prod.std(ddof=1)) / math.sqrt(n)
                want = math.factorial(k) * rho**k if k == m else 0.0
                assert abs(got - want) < 3.0 * se


def test_expansion_invariants():
    exp = hermite_coefficients(np.abs, 8)
    # Parseval sum never exceeds the second moment by more than tolerance
    total = sum(c * c / math.factorial(j) for j, c in enumerate(exp.coeffs))
    assert total <= 1.0 + 1e-8
    assert exp.order == 8
    assert len(exp.coeffs) == 9
