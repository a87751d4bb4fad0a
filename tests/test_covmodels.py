"""Covariance families, spectral densities, and long-memory parameter extraction."""

import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from rosenlab.covmodels import (
    LongMemoryParams,
    c2_constant,
    cauchy,
    covariance_eval,
    linnik,
    local_global,
    lrd_params,
    model_from_json,
    model_to_json,
    residual_exponent_fit,
    spectral_density,
    spectral_leading,
)
from rosenlab.errors import (
    DegenerateFitError,
    DomainError,
    ParameterError,
    RegimeError,
    UnsupportedModelError,
)


def test_covariance_eval_goldens():
    m = cauchy(1, 0.1)
    assert covariance_eval(m, 0.0) == 1.0
    assert covariance_eval(m, 1.0) == pytest.approx(2.0**-0.1, rel=1e-14)
    lg = local_global(1, 0.4, 0.25)
    assert covariance_eval(lg, 1.0) == pytest.approx(0.25 / 0.65, rel=1e-12)


def test_covariance_eval_vector_and_range():
    r = np.linspace(0.0, 50.0, 200)
    for m in (cauchy(2, 0.3), linnik(1, 1.5, 0.2), local_global(1, 0.3, 0.5)):
        b = covariance_eval(m, r)
        assert b.shape == r.shape
        assert np.all(b <= 1.0 + 1e-14) and np.all(b >= -1.0)
        assert b[0] == 1.0


def test_local_global_branch_continuity():
    for alpha, theta in ((0.4, 0.25), (0.2, 0.7), (0.45, 0.05)):
        m = local_global(1, alpha, theta)
        below = covariance_eval(m, 1.0 - 1e-13)
        above = covariance_eval(m, 1.0 + 1e-13)
        assert abs(below - above) < 1e-12


def test_model_constructors_reject_bad_parameters():
    with pytest.raises(ParameterError):
        cauchy(1, -0.1)
    with pytest.raises(ParameterError):
        linnik(1, 2.5, 0.1)
    with pytest.raises(ParameterError):
        local_global(3, 0.4, 0.25)
    with pytest.raises(ParameterError):
        local_global(1, 0.4, 1.5)  # theta beyond (3-d)/2
    # a dimension that is not a positive integer was truncated: cauchy at
    # d 1.9 built a d=1 model
    for d in (1.9, 2.0, True, "1", 0):
        for build in (cauchy, partial(linnik, sigma=1.0), partial(local_global, alpha=0.4)):
            with pytest.raises(ParameterError, match="dimension must be a positive integer"):
                build(d, theta=0.25)


def test_lrd_params_goldens():
    p = lrd_params(cauchy(1, 0.2))
    assert p.alpha == pytest.approx(0.4)
    assert p.upsilon == pytest.approx(0.6)
    assert p.q_max == pytest.approx(0.1)

    p = lrd_params(cauchy(4, 0.5))
    assert p.alpha == pytest.approx(1.0)
    assert p.upsilon == pytest.approx(2.0)
    assert p.q_max == pytest.approx(1.0)

    p = lrd_params(linnik(2, 7.0 / 4.0, 1.0 / 3.0))
    assert p.alpha == pytest.approx(7.0 / 12.0)
    assert p.upsilon == pytest.approx(17.0 / 12.0)

    p = lrd_params(local_global(1, 0.4, 0.25))
    assert p.upsilon == pytest.approx(0.6)
    assert p.q_max == pytest.approx(0.1)
    # slowly varying part is theta/(theta+alpha) past the knee
    assert p.slowly_varying(2.0) == pytest.approx(0.25 / 0.65, rel=1e-12)


def test_lrd_params_regime_gates():
    with pytest.raises(RegimeError):
        lrd_params(cauchy(1, 0.3))  # needs theta < d/4
    with pytest.raises(RegimeError):
        lrd_params(linnik(1, 1.5, 0.4))  # sigma * theta >= d/2


def test_c2_constant_goldens():
    assert c2_constant(1, 0.5) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    for d in (1, 2, 3):
        assert c2_constant(d, d / 2.0) == pytest.approx((2.0 * math.pi) ** (-d / 2.0), rel=1e-12)
    assert c2_constant(3, 1.0) == pytest.approx(1.0 / (2.0 * math.pi**2), rel=1e-12)
    with pytest.raises(DomainError):
        c2_constant(1, 1.5)


def test_cauchy_spectral_closed_form_d2():
    # K_{1/2} collapses the Bessel form to exp(-lam)/(2 pi lam)
    m = cauchy(2, 0.5)
    for lam in np.linspace(0.1, 10.0, 34):
        want = math.exp(-lam) / (2.0 * math.pi * lam)
        assert spectral_density(m, lam) == pytest.approx(want, rel=1e-10)


def test_cauchy_spectral_mpmath_oracle():
    # lam^(theta - d/2) K_{d/2 - theta}(lam) / (2^(d/2 + theta - 1) pi^(d/2) Gamma(theta))
    for d, theta in ((1, 0.2), (2, 0.3), (1, 0.8)):
        m = cauchy(d, theta)
        for lam in (1e-3, 0.05, 0.7, 2.0, 9.0, 30.0):
            x, th, h = mp.mpf(lam), mp.mpf(theta), mp.mpf(d) / 2
            want = float(
                x ** (th - h) * mp.besselk(h - th, x)
                / (2 ** (h + th - 1) * mp.pi**h * mp.gamma(th))
            )
            assert spectral_density(m, lam) == pytest.approx(want, rel=1e-13)


def test_linnik_sigma2_coincides_with_cauchy():
    for lam in (0.1, 0.5, 1.0, 3.0):
        a = spectral_density(linnik(2, 2.0, 0.4), lam)
        b = spectral_density(cauchy(2, 0.4), lam)
        assert abs(a / b - 1.0) < 1e-6


def test_linnik_spectral_positive_and_decaying():
    m = linnik(1, 1.5, 0.2)
    vals = [spectral_density(m, lam) for lam in np.geomspace(1e-3, 50.0, 12)]
    assert all(v > 0.0 for v in vals)
    assert vals[0] > vals[-1]


def test_local_global_leading_term():
    # relative error of the origin asymptote is O(lam^upsilon), upsilon = 0.6
    m = local_global(1, 0.4, 0.5)
    p = lrd_params(m)
    for lam in (0.01, 0.003):
        f = spectral_density(m, lam)
        lead = spectral_leading(p, lam)
        assert abs(f / lead - 1.0) < lam**0.6


def test_local_global_d2_spectral_unsupported():
    with pytest.raises(UnsupportedModelError):
        spectral_density(local_global(2, 0.3, 0.25), 0.5)


def test_spectral_density_positive_grid():
    for m in (cauchy(1, 0.2), cauchy(2, 0.5), linnik(2, 1.75, 1.0 / 3.0), local_global(1, 0.4, 0.5)):
        for lam in np.geomspace(1e-4, 100.0, 9):
            assert spectral_density(m, lam) > 0.0
    with pytest.raises(DomainError):
        spectral_density(cauchy(1, 0.2), 0.0)


def test_spectral_leading_forms():
    p = lrd_params(cauchy(1, 0.2))
    c2 = c2_constant(1, 0.4)
    assert spectral_leading(p, 1.0) == pytest.approx(c2 * p.slowly_varying(1.0), rel=1e-12)
    lam = 0.01
    want = c2 * lam**-0.6 * (1.0 + lam**2) ** -0.2
    assert spectral_leading(p, lam) == pytest.approx(want, rel=1e-12)
    # synthetic exact-power model: L == 1
    ps = LongMemoryParams(1, 0.4, lambda t: 1.0, 0.1, 0.6)
    assert spectral_leading(ps, 0.25) == pytest.approx(c2_constant(1, 0.4) * 0.25**-0.6, rel=1e-12)


def test_fourier_pair_consistency_d1():
    # invert the spectral density numerically and reconstruct the covariance
    m = cauchy(1, 0.2)
    f = lambda lam: spectral_density(m, lam)
    for r in (0.5, 5.0):
        a1, _ = quad(lambda lam: f(lam) * math.cos(lam * r), 1e-300, 1.0, limit=400)
        a2, _ = quad(f, 1.0, 1000.0, weight="cos", wvar=r, limit=2000)
        got = 2.0 * (a1 + a2)
        assert abs(got - covariance_eval(m, r)) < 1e-6


def test_spectral_tail_bounds():
    # lam^d f stays bounded for Cauchy, lam^(d+sigma) f for Linnik
    m = cauchy(1, 0.2)
    tail = [lam * spectral_density(m, lam) for lam in np.geomspace(10.0, 1000.0, 7)]
    assert max(tail) < 10.0 * tail[0] + 1.0
    ml = linnik(1, 1.5, 0.2)
    tail = [lam**2.5 * spectral_density(ml, lam) for lam in np.geomspace(10.0, 1000.0, 7)]
    assert max(tail) < 10.0 * tail[0] + 1.0


def test_asymptotic_covariance_form():
    # r^alpha B(r) / L(r) -> 1 (Assumption-1 shape of all three families)
    for m in (cauchy(1, 0.2), linnik(2, 1.75, 1.0 / 3.0), local_global(1, 0.4, 0.5)):
        p = lrd_params(m)
        r = 1e4
        ratio = r**p.alpha * covariance_eval(m, r) / p.slowly_varying(r)
        assert ratio == pytest.approx(1.0, abs=1e-3)


def test_residual_exponent_fit_recovers_upsilon():
    grid = np.geomspace(1e-4, 10**-2.5, 10)
    got = residual_exponent_fit(cauchy(1, 0.2), grid)
    assert got == pytest.approx(0.6, abs=0.05)
    got = residual_exponent_fit(local_global(1, 0.4, 0.5), grid)
    assert got == pytest.approx(0.6, abs=0.05)


def test_residual_exponent_fit_gates():
    m = cauchy(1, 0.2)
    with pytest.raises(ParameterError):
        residual_exponent_fit(m, np.geomspace(1e-4, 1e-3, 5))
    with pytest.raises(ParameterError):
        residual_exponent_fit(m, np.geomspace(1e-3, 0.5, 10))


def test_model_json_round_trip():
    # a numpy integer dimension is stored as an int, which json can write
    for m in (cauchy(2, 0.5), linnik(1, 1.5, 0.2), local_global(1, 0.4, 0.25),
              cauchy(np.int64(2), 0.3)):
        assert model_from_json(model_to_json(m)) == m
    with pytest.raises(ParameterError):
        model_from_json('{"family": "matern", "d": 1}')
    with pytest.raises(ParameterError):
        model_from_json('{"family": "cauchy", "d": 1}')
