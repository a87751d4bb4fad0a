"""Lattice field simulation, window functionals, and the normalized statistic."""

import math

import numpy as np
import pytest

from rosenlab import fieldsim
from rosenlab.covmodels import cauchy, lrd_params
from rosenlab.errors import CoverageError, EmbeddingError, ParameterError, RankError
from rosenlab.fieldsim import (
    GridField,
    SimulationPlan,
    _spectrum_once,
    circulant_spectrum,
    clear_spectrum_cache,
    export_field,
    functional_integral,
    import_field,
    ks_distance,
    lattice_window_volume,
    normalized_statistic,
    reduction_check,
    replicate_generator,
    simulate_field,
    simulate_pairs,
    window_integrals,
)
from rosenlab.geometry import rectangle
from rosenlab.hermite import functional_catalog, hermite_coefficients


def white_noise_cov(dist):
    return np.where(np.asarray(dist) == 0.0, 1.0, 0.0)


def test_plan_validation():
    m = cauchy(1, 0.2)
    with pytest.raises(ParameterError):
        SimulationPlan(model=m, dimension=3, h=0.5, extent=4.0, seed=0)
    with pytest.raises(ParameterError):
        SimulationPlan(model=m, dimension=1, h=-0.5, extent=4.0, seed=0)
    with pytest.raises(ParameterError):
        SimulationPlan(model=m, dimension=1, h=0.5, extent=4.0, seed=0, clamp_tol=1e-5)
    with pytest.raises(ParameterError):
        # per-axis point budget
        SimulationPlan(model=m, dimension=1, h=1e-6, extent=8.0, seed=0)


def test_white_noise_spectrum_flat():
    plan = SimulationPlan(model=white_noise_cov, dimension=1, h=1.0, extent=8.0, seed=0)
    lam = circulant_spectrum(plan)
    assert np.allclose(lam, 1.0, atol=1e-12)


def test_spectrum_mean_is_unit_variance():
    # (1/N) sum of the embedding eigenvalues equals B(0) = 1
    plans = (
        SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=16.0, seed=0),
        # this d = 2 grid embeds with a nonnegative spectrum at the default padding
        SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=0),
    )
    for plan in plans:
        lam = circulant_spectrum(plan)
        assert float(lam.mean()) == pytest.approx(1.0, abs=1e-10)


def test_long_grid_embedding_admissible():
    # 2^16-point lattice embeds directly at the default clamp
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.125, extent=4096.0, seed=0)
    assert plan.n_per_axis == 2**16
    raw = _spectrum_once(plan)
    assert float(raw.min()) >= -1e-8 * float(raw.max())


def test_embedding_error_and_clamp_opt_in():
    # this d=2 grid bottoms out near -2e-7 relative: below the default clamp,
    # inside the largest opt-in clamp
    tight = SimulationPlan(
        model=cauchy(2, 0.2), dimension=2, h=0.5, extent=16.0, seed=0, padding=16
    )
    with pytest.raises(EmbeddingError):
        circulant_spectrum(tight)
    loose = SimulationPlan(
        model=cauchy(2, 0.2), dimension=2, h=0.5, extent=16.0, seed=0, padding=16, clamp_tol=1e-6
    )
    lam = circulant_spectrum(loose)
    assert float(lam.min()) >= 0.0


def test_simulate_field_deterministic():
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=42)
    a = simulate_field(plan)
    b = simulate_field(plan)
    assert np.array_equal(a.values, b.values)
    c = simulate_field(SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=43))
    assert not np.array_equal(a.values, c.values)


def test_replicate_generator_streams():
    a = replicate_generator(5, 0).standard_normal(4)
    b = replicate_generator(5, 0).standard_normal(4)
    c = replicate_generator(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_site_marginals():
    # variance, skewness, kurtosis of the single-site marginal over replicates
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=9)
    n = 4000
    site = np.empty(n)
    for i in range(n):
        f = simulate_field(plan, rng=replicate_generator(9, i))
        site[i] = f.values[3]
    se_var = math.sqrt(2.0 / n)
    assert abs(site.var(ddof=1) - 1.0) < 3 * se_var
    skew = float(np.mean(site**3))
    kurt = float(np.mean(site**4)) - 3.0
    assert abs(skew) < 3 * math.sqrt(15.0 / n)
    assert abs(kurt) < 3 * math.sqrt(96.0 / n)


def test_lag_covariance():
    # both halves of a complex draw have the model covariance, and they are
    # uncorrelated with each other
    model = cauchy(1, 0.2)
    plan = SimulationPlan(model=model, dimension=1, h=1.0, extent=16.0, seed=17)
    n = 3000
    real = np.empty((n, 21))
    imag = np.empty((n, 21))
    for i in range(n):
        z = simulate_pairs(plan, replicate_generator(17, i), 1)[0]
        real[i], imag[i] = z.real[:21], z.imag[:21]
    last = simulate_field(plan, rng=replicate_generator(17, n - 1))
    assert np.array_equal(real[-1], last.values[:21])
    from rosenlab.covmodels import covariance_eval

    for half in (real, imag):
        for k in (1, 5, 20):
            xs = half[:, 0] * half[:, k]
            want = covariance_eval(model, k * 1.0)
            se = float(xs.std(ddof=1)) / math.sqrt(n)
            assert abs(float(xs.mean()) - want) < 3 * se
    for k in (0, 1, 5, 20):
        xs = real[:, 0] * imag[:, k]
        se = float(xs.std(ddof=1)) / math.sqrt(n)
        assert abs(float(xs.mean())) < 3 * se


def test_simulate_field_keeps_its_stream():
    # the real half of a one-pair block is the field of one complex draw
    # made as m real normals, then m imaginary ones
    for plan, fft in (
        (SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=16.0, seed=8), np.fft.ifft),
        (SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=8), np.fft.ifft2),
    ):
        root = np.sqrt(circulant_spectrum(plan))
        rng = np.random.default_rng(8)
        z = rng.standard_normal(root.shape) + 1j * rng.standard_normal(root.shape)
        want = fft(root * z).real * np.sqrt(root.size)
        n = plan.n_per_axis
        want = want[:n] if plan.dimension == 1 else want[:n, :n]
        assert np.array_equal(simulate_field(plan).values, want)


def test_window_integrals_are_block_invariant(monkeypatch):
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    w = rectangle([-0.5], [0.5])
    G = functional_catalog("h2")
    sums, volume = window_integrals(plan, G, w, 16.0, 1001, replicate_generator(3, 0))
    assert sums.shape == (1001,)
    assert volume == lattice_window_volume(simulate_field(plan), w, 16.0)
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)
    one_pair, _ = window_integrals(plan, G, w, 16.0, 1002, replicate_generator(3, 0))
    assert np.array_equal(one_pair[:1001], sums)
    # the first sum comes from the field simulate_field draws from the stream
    fld = simulate_field(plan, rng=replicate_generator(3, 0))
    assert one_pair[0] == functional_integral(fld, G, w, 16.0)
    with pytest.raises(CoverageError):
        window_integrals(plan, G, w, 32.0, 10, replicate_generator(3, 0))


def test_d2_field_shape_and_variance():
    plan = SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=31)
    n = 1500
    site = np.empty(n)
    for i in range(n):
        f = simulate_field(plan, rng=replicate_generator(31, i))
        assert f.values.shape == (16, 16)
        site[i] = f.values[2, 5]
    assert abs(site.var(ddof=1) - 1.0) < 3 * math.sqrt(2.0 / n)


def test_functional_integral_indicator():
    plan = SimulationPlan(model=cauchy(1, 0.125), dimension=1, h=0.25, extent=8.0, seed=1)
    f = simulate_field(plan)
    w = rectangle([-0.5], [0.5])
    for r in (4.0, 5.3, 16.0):
        got = functional_integral(f, lambda x: np.ones_like(x), w, r)
        assert abs(got - r) <= 2.0 * plan.h
        assert got == lattice_window_volume(f, w, r)


def test_functional_integral_identity_mean():
    m = cauchy(1, 0.125)
    plan = SimulationPlan(model=m, dimension=1, h=0.25, extent=8.0, seed=4)
    w = rectangle([-0.5], [0.5])
    n = 2000
    vals = np.array([
        functional_integral(simulate_field(plan, rng=replicate_generator(4, i)), lambda x: x, w, 16.0)
        for i in range(n)
    ])
    se = float(vals.std(ddof=1)) / math.sqrt(n)
    assert abs(float(vals.mean())) < 3 * se


def test_functional_integral_coverage_gate():
    plan = SimulationPlan(model=cauchy(1, 0.125), dimension=1, h=0.25, extent=4.0, seed=1)
    f = simulate_field(plan)
    w = rectangle([-0.5], [0.5])
    with pytest.raises(CoverageError):
        functional_integral(f, lambda x: x, w, 32.0)


def test_h2_variance_matches_distance_integral_oracle():
    # replicate variance of the rank-2 functional against the closed-form
    # limit variance; theta small keeps the asymptote within 10% at r = 32
    from rosenlab.geometry import distance_integral

    m = cauchy(1, 0.05)
    p = lrd_params(m)
    w = rectangle([-0.5], [0.5])
    r = 32.0
    plan = SimulationPlan(model=m, dimension=1, h=0.25, extent=16.0, seed=77)
    n = 8000
    vals = np.empty(n)
    for i in range(n):
        f = simulate_field(plan, rng=replicate_generator(77, i))
        vals[i] = functional_integral(f, lambda x: x * x - 1.0, w, r)
    D = distance_integral(w, 1.0, lambda z: z ** (-2 * p.alpha))
    want = 2.0 * r ** (2 * (1 - p.alpha)) * p.slowly_varying(r) ** 2 * D
    assert vals.var(ddof=1) == pytest.approx(want, rel=0.10)


def test_normalized_statistic():
    p = lrd_params(cauchy(1, 0.2))
    assert normalized_statistic(0.0, 2.0, 8.0, p) == 0.0
    pl = lrd_params(cauchy(1, 0.125))

    class _One:
        dimension = 1
        alpha = 0.0

    # plain arithmetic at r = 1: 2 kr / C2 when L(1) = 1
    got = normalized_statistic(3.0, 2.0, 1.0, lrd_params(cauchy(1, 0.2)))
    l1 = lrd_params(cauchy(1, 0.2)).slowly_varying(1.0)
    assert got == pytest.approx(3.0 / l1, rel=1e-12)
    with pytest.raises(RankError):
        normalized_statistic(1.0, 0.0, 8.0, p)


def test_reduction_check():
    m = cauchy(1, 0.125)
    p = lrd_params(m)
    w = rectangle([-0.5], [0.5])
    G = functional_catalog("abs-centered")
    exp = hermite_coefficients(G, 6)
    dists = {}
    for r in (8.0, 32.0):
        plan = SimulationPlan(model=m, dimension=1, h=0.25, extent=r / 2, seed=13)
        fields = [simulate_field(plan, rng=replicate_generator(13, i)) for i in range(500)]
        dists[r] = reduction_check(fields, G, w, r, exp, p)
        # rank-2 part of H2 is H2 itself; the quadrature coefficient carries a
        # ~5e-14 relative error, which can swap a couple of pooled order
        # statistics, so allow two rank flips out of len(fields)
        h2exp = hermite_coefficients(functional_catalog("h2"), 6)
        assert reduction_check(fields, functional_catalog("h2"), w, r, h2exp, p) <= 2.0 / 500
    assert dists[32.0] < dists[8.0]


def test_reduction_check_rank_gate():
    exp = hermite_coefficients(lambda w: w, 4)
    with pytest.raises(RankError):
        reduction_check([], lambda w: w, rectangle([-0.5], [0.5]), 8.0, exp, lrd_params(cauchy(1, 0.2)))


def test_ks_distance():
    assert ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_distance([0.0], [1.0]) == 1.0
    assert ks_distance([1.0, 3.0], [2.0]) == 0.5
    rng = np.random.default_rng(2)
    a, b, c = rng.normal(size=50), rng.normal(size=60), rng.normal(size=40)
    assert ks_distance(a, b) == ks_distance(b, a)
    assert ks_distance(a, c) <= ks_distance(a, b) + ks_distance(b, c) + 1e-15
    with pytest.raises(ParameterError):
        ks_distance([], [1.0])


def test_field_export_round_trip(tmp_path):
    plan = SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=3)
    f = simulate_field(plan)
    path = tmp_path / "field.bin"
    export_field(f, str(path))
    g = import_field(str(path))
    assert np.array_equal(f.values, g.values)
    assert g.h == f.h
    assert g.origin == f.origin


def test_spectrum_cache_keeps_callable_models_apart():
    # a new callable that reuses a freed callable's address must not get the
    # freed callable's spectrum; closures of one factory reuse it readily
    def scaled(c):
        return lambda r: c * np.exp(-np.asarray(r, dtype=float))

    clear_spectrum_cache()
    shape = dict(dimension=1, h=1.0, extent=8.0, seed=0)
    first = scaled(1.0)
    simulate_field(SimulationPlan(model=first, **shape))
    del first  # freed here unless the cache holds it
    second = scaled(9.0)
    z = simulate_pairs(SimulationPlan(model=second, **shape), replicate_generator(0, 0), 1000)
    var = float(np.mean(z.real**2 + z.imag**2)) / 2.0
    assert var == pytest.approx(9.0, rel=0.1)
    clear_spectrum_cache()


def test_padding_escalation_has_a_torus_budget():
    # 2048 points per axis at padding 4 need an 8192^2 torus, over the 2^24
    # site budget: refused before the spectrum is allocated
    plan = SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=1024.0, seed=0)
    with pytest.raises(EmbeddingError, match="budget"):
        simulate_field(plan)


def test_spectrum_cache_reuse_is_fast():
    import time

    clear_spectrum_cache()
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.25, extent=40.0, seed=5)
    simulate_field(plan)  # pays the embedding cost
    t0 = time.perf_counter()
    for i in range(50):
        simulate_field(plan, rng=replicate_generator(5, i))
    assert time.perf_counter() - t0 < 2.0
