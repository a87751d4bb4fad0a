"""Hermite expansions and rank detection.

Every expansion comes from a CatalogFunctional's closed forms, which are
held to 1e-12 against mpmath quadrature.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from rosenlab import hermite
from rosenlab.errors import ParameterError
from rosenlab.hermite import CatalogFunctional, functional_catalog, hermite_coefficients

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_h2_coefficients_exact():
    exp = hermite_coefficients(functional_catalog("h2"), 6)
    assert exp.coeffs[2] == pytest.approx(2.0, abs=1e-10)
    for j in (0, 1, 3, 4, 5, 6):
        assert abs(exp.coeffs[j]) < 1e-10


def test_square_coefficients():
    exp = hermite_coefficients(functional_catalog("square"), 6)
    assert exp.coeffs[0] == pytest.approx(1.0, abs=1e-10)
    assert exp.coeffs[2] == pytest.approx(2.0, abs=1e-10)
    for j in (1, 3, 4, 5, 6):
        assert abs(exp.coeffs[j]) < 1e-10


def test_abs_coefficients():
    # E|w| = sqrt(2/pi) = C2 of |w|, and absolute-moment identities give
    # C4 = -C0; the centering removes C0 alone
    exp = hermite_coefficients(functional_catalog("abs-centered"), 6)
    assert exp.coeffs[0] == 0.0
    assert exp.coeffs[2] == pytest.approx(SQRT_2_OVER_PI, rel=1e-15)
    assert exp.coeffs[4] == pytest.approx(-SQRT_2_OVER_PI, rel=1e-15)
    # odd coefficients vanish for even G
    for j in (1, 3, 5):
        assert exp.coeffs[j] == 0.0


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


def _closed_form(coeffs):
    return CatalogFunctional(lambda w: w, lambda j: coeffs.get(j, 0.0))


def test_rank_detection():
    assert hermite_coefficients(_closed_form({1: 1.0}), 4).rank == 1
    assert hermite_coefficients(functional_catalog("abs-centered"), 4).rank == 2
    assert hermite_coefficients(functional_catalog("h2"), 4).rank == 2
    # w^3 = H_3 + 3 H_1
    assert hermite_coefficients(_closed_form({1: 3.0, 3: 6.0}), 5).rank == 1


def test_rank_undetected():
    # a constant has no coefficient with j >= 1
    exp = hermite_coefficients(_closed_form({0: 1.0}), 4)
    assert exp.rank is None


def test_catalog():
    assert hermite_coefficients(functional_catalog("square"), 2).coeffs[0] == pytest.approx(1.0, abs=1e-10)
    g = functional_catalog("abs-centered")
    w = np.array([-1.5, 0.0, 2.0])
    assert np.allclose(g(w), np.abs(w) - SQRT_2_OVER_PI)
    with pytest.raises(ParameterError):
        functional_catalog("cubic")
    # only closed forms: a plain callable, a negative order and one past
    # the budget are refused
    for G, J in ((np.abs, 6), (lambda w: w * w - 1.0, 2), (g, -1), (g, 173)):
        with pytest.raises(ParameterError):
            hermite_coefficients(G, J)


def test_bivariate_moment_identity():
    # E H_k(x) H_m(y) = delta_km k! rho^k for jointly Gaussian (x, y), so the
    # closed-form coefficients give Cov(G(x), G(y)) = sum_j C_j^2 rho^j / j!.
    # For |w| the covariance is (2/pi)(rho arcsin rho + sqrt(1 - rho^2) - 1).
    coeffs = hermite_coefficients(functional_catalog("abs-centered"), 80).coeffs
    for rho in (0.3, 0.7):
        series = sum(c * c * rho**j / math.factorial(j) for j, c in enumerate(coeffs))
        want = 2.0 / math.pi * (rho * math.asin(rho) + math.sqrt(1.0 - rho * rho) - 1.0)
        assert series == pytest.approx(want, rel=1e-12)
    # and a Monte Carlo check of the identity itself
    n = 10**6
    rng = np.random.default_rng(99)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    g = functional_catalog("abs-centered")
    for rho in (0.3, 0.7):
        prod = g(z1) * g(rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
        want = sum(c * c * rho**j / math.factorial(j) for j, c in enumerate(coeffs))
        se = float(prod.std(ddof=1)) / math.sqrt(n)
        assert abs(float(prod.mean()) - want) < 3.0 * se


def test_expansion_invariants():
    g = functional_catalog("abs-centered")
    exp = hermite_coefficients(g, 8)
    # Parseval: the partial sum never exceeds E G^2 = 1 - 2/pi
    total = sum(c * c / math.factorial(j) for j, c in enumerate(exp.coeffs))
    assert total <= 1.0 - 2.0 / math.pi
    assert len(exp.coeffs) == 9


@pytest.mark.parametrize("name", ["abs-centered", "h2", "square"])
def test_the_order_budget_is_the_last_order_of_finite_coefficients(name):
    # C_174 of abs-centered needs 172!, past the largest double; the rank
    # compares each term at its norm |C_j| / sqrt(j!), and with |C_j| alone
    # abs-centered read rank 8 at order 22
    exp = hermite_coefficients(functional_catalog(name), hermite._MAX_ORDER)
    assert hermite._MAX_ORDER == 172 and len(exp.coeffs) == 173
    assert all(math.isfinite(c) for c in exp.coeffs) and exp.rank == 2
    assert hermite_coefficients(functional_catalog(name), 22).rank == 2
