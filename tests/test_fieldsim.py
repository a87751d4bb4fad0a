"""Lattice field simulation, window functionals, and the normalized statistic."""

import math
import sys
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from rosenlab import expcli, fieldsim
from rosenlab.covmodels import cauchy, covariance_eval, lrd_params
from rosenlab.errors import (
    CoverageError,
    DomainError,
    EmbeddingError,
    ParameterError,
    RankError,
    check_seed,
)
from rosenlab.fieldsim import (
    GridField,
    SimulationPlan,
    _spectrum_once,
    circulant_spectrum,
    clear_spectrum_cache,
    embedding,
    export_field,
    functional_integral,
    import_field,
    ks_distance,
    lattice_window_volume,
    normalized_statistic,
    replicate_generator,
    simulate_field,
    simulate_pairs,
    window_extent,
    window_integrals,
)
from rosenlab.geometry import ball, rectangle
from rosenlab.hermite import functional_catalog


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
    with pytest.raises(ParameterError, match="padding"):
        # 16 points on a 16-site torus: lag 15 would wrap onto lag 1
        SimulationPlan(model=m, dimension=1, h=1.0, extent=8.0, seed=0, padding=1)
    with pytest.raises(ParameterError, match="model dimension 1"):
        # the model's long-memory parameters were declared for d=1
        SimulationPlan(model=m, dimension=2, h=1.0, extent=8.0, seed=0)
    with pytest.raises(ParameterError, match="CovarianceModel"):
        # a plain callable r -> B(r) has no family or dimension to check
        SimulationPlan(model=lambda r: np.exp(-r), dimension=1, h=1.0, extent=8.0, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_a_seed_that_is_not_a_nonnegative_integer_is_refused(seed):
    # numpy would refuse -1 only at the first draw, and take 1.5 or True
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
        SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=seed)
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
        replicate_generator(seed, 0)


def test_check_seed_takes_numpy_integers():
    assert check_seed(np.int64(3)) == 3 and type(check_seed(np.uint32(3))) is int
    assert check_seed(0) == 0


@pytest.mark.parametrize("dimension", [1, 2])
def test_minimal_torus_draws_have_covariance_b_at_every_lattice_lag(dimension):
    # n = 16 points embed at the default padding 2 on a 32-site torus side,
    # so the largest lattice lag n - 1 = 15 stays apart from its wrap 17
    model = cauchy(dimension, 0.2 if dimension == 1 else 0.3)
    plan = SimulationPlan(model=model, dimension=dimension, h=1.0, extent=8.0, seed=0)
    n = plan.n_per_axis
    emb = embedding(plan)
    assert (emb.n_per_axis, emb.torus_side, emb.padding) == (16, 32, 2)
    assert abs(emb.clamped_share) < 1e-15
    k = np.arange(n)
    if dimension == 1:
        lags = [(j,) for j in k]
    else:
        lags = [(j, 0) for j in k] + [(0, j) for j in k] + [(j, j) for j in k]
    # exact: the covariance of the embedding drawn from, at every lag
    lam = circulant_spectrum(replace(plan, padding=emb.padding))
    implied = np.fft.ifftn(lam).real
    for lag in lags:
        want = float(covariance_eval(model, plan.h * math.hypot(*lag)))
        assert implied[lag] == pytest.approx(want, abs=1e-12)
    # Monte Carlo: both halves of 2000 complex draws, every site pair at a lag
    z = simulate_pairs(plan, replicate_generator(21, dimension), 2000)
    fields = np.concatenate([z.real, z.imag])
    for lag in lags:
        head = fields[(slice(None),) + tuple(slice(0, n - j) for j in lag)]
        tail = fields[(slice(None),) + tuple(slice(j, n) for j in lag)]
        per_field = (head * tail).reshape(len(fields), -1).mean(axis=1)
        se = float(per_field.std(ddof=1)) / math.sqrt(len(fields))
        want = float(covariance_eval(model, plan.h * math.hypot(*lag)))
        assert abs(float(per_field.mean()) - want) < 4.5 * se


def test_clamped_share_is_the_negative_eigenvalue_mass():
    # this d=1 lattice escalates to a torus whose spectrum dips below zero
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.25, extent=8.0, seed=0)
    emb = embedding(plan)
    assert emb.padding > 2
    assert emb.torus_side == 2 ** math.ceil(math.log2(emb.padding * emb.n_per_axis))
    raw = _spectrum_once(replace(plan, padding=emb.padding))
    share = -float(np.sum(raw[raw < 0.0])) / float(np.sum(raw))
    assert share > 0.0
    assert emb.clamped_share == pytest.approx(share, abs=1e-14)


def test_clamped_share_stays_within_its_stated_bound():
    # the lattice every r of a Cauchy theta=0.2, h=0.25 experiment up to
    # r=256 on the unit interval is drawn on. Each clamped eigenvalue is
    # >= -clamp_tol * peak, so the share is at most clamp_tol * peak * m / sum
    # lam; it is not bounded by clamp_tol itself, which it exceeds here
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.25, extent=256.0, seed=0)
    emb = embedding(plan)
    assert (emb.padding, emb.torus_side) == (2, 4096)
    raw = _spectrum_once(plan)
    bound = plan.clamp_tol * float(raw.max()) * emb.torus_side / float(np.sum(raw))
    assert plan.clamp_tol < emb.clamped_share <= bound


def test_white_noise_spectrum_flat(monkeypatch):
    # B(0) = 1 and B = 0 at every other lag: every eigenvalue is B(0)
    monkeypatch.setattr(
        fieldsim, "covariance_eval", lambda model, r: np.where(np.asarray(r) == 0.0, 1.0, 0.0)
    )
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=1.0, extent=8.0, seed=0)
    lam = circulant_spectrum(plan)
    assert np.allclose(lam, 1.0, atol=1e-12)


def test_circulant_spectrum_matches_dense_eigenvalues():
    # the spectrum is that of the dense (block-)circulant matrix of the
    # covariance at wrapped torus lags, up to the clamp of small negatives
    for d, theta in ((1, 0.2), (2, 0.3)):
        plan = SimulationPlan(model=cauchy(d, theta), dimension=d, h=1.0, extent=8.0, seed=0)
        lam = circulant_spectrum(plan)
        m = lam.shape[0]
        k = np.arange(m)
        wrap = np.minimum(k, m - k)
        sites = np.stack(np.meshgrid(*([k] * d), indexing="ij"), axis=-1).reshape(-1, d)
        lags = wrap[np.abs(sites[:, None, :] - sites[None, :, :])]
        dense = covariance_eval(plan.model, plan.h * np.sqrt(np.sum(lags**2, axis=-1)))
        want = np.linalg.eigvalsh(dense)
        tol = plan.clamp_tol * float(want.max())
        np.testing.assert_allclose(np.sort(lam.ravel()), np.maximum(want, 0.0), rtol=0, atol=tol)


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
    # this d=2 grid bottoms out near -2.1e-7 relative: below the d=2 default
    # clamp 1e-7, inside the largest opt-in clamp
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


def test_replicate_generator_is_the_seed_sequence_of_its_keys():
    for keys in ((0,), (3, 0xB007), (7, 2, 0xF1E1D)):
        seq = np.random.SeedSequence(11, spawn_key=keys)
        want = np.random.default_rng(seq).standard_normal(8)
        assert np.array_equal(replicate_generator(11, *keys).standard_normal(8), want)
    assert np.array_equal(
        replicate_generator(11).standard_normal(8), np.random.default_rng(11).standard_normal(8)
    )
    # the experiment's first replicate block and its bootstrap differ
    a = replicate_generator(11, 0, 0xF1E1D, 0).standard_normal(4)
    assert not np.array_equal(a, replicate_generator(11, 0xB007).standard_normal(4))


def test_replicate_generator_keys_are_prefix_free():
    # SeedSequence([s, *keys]) pads its entropy with zero words to a pool of
    # four, so a key list ending in zeros named the stream of its prefix:
    # block 0 of a table was the stream of its r index and tag, and key 0
    # alone was default_rng(s), the stream of simulate field --seed s
    block = replicate_generator(11, 2, 0xF1E1D, 0).standard_normal(4)
    assert not np.array_equal(block, replicate_generator(11, 2, 0xF1E1D).standard_normal(4))
    first = replicate_generator(11, 0).standard_normal(4)
    assert not np.array_equal(first, np.random.default_rng(11).standard_normal(4))


@pytest.mark.parametrize("key", [2**32, -1])
def test_replicate_generator_refuses_a_key_outside_32_bits(monkeypatch, key):
    # SeedSequence would split 2^32 into the words 0 and 1, the stream of
    # the keys (0, 1), and refuse -1 only with its own ValueError
    def never_seeded(*args, **kwargs):
        raise AssertionError("SeedSequence reached")

    monkeypatch.setattr(np.random, "SeedSequence", never_seeded)
    with pytest.raises(ParameterError, match=rf"keys must lie in \[0, 2\^32\), got {key}"):
        replicate_generator(5, 3, key)


def test_clamp_tolerance_defaults_per_dimension():
    for d, tol in ((1, 1e-8), (2, 1e-7)):
        plan = SimulationPlan(model=cauchy(d, 0.2), dimension=d, h=1.0, extent=8.0, seed=0)
        assert plan.clamp_tol == fieldsim.CLAMP_TOL[d] == tol
        # an explicit tolerance wins, and the escalation keeps it
        tight = replace(plan, clamp_tol=1e-9)
        assert replace(tight, padding=8).clamp_tol == 1e-9


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
    # made as 2m normals, the real and imaginary parts of each site in turn,
    # each scaled by sqrt(lam m^d) of its site before the inverse FFT
    for plan, fft in (
        (SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=16.0, seed=8), np.fft.ifft),
        (SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=8), np.fft.ifft2),
    ):
        lam = circulant_spectrum(plan)
        scale = np.sqrt(lam) * np.sqrt(lam.size)
        noise = np.random.default_rng(8).standard_normal(lam.shape + (2,))
        z = noise[..., 0] * scale + 1j * (noise[..., 1] * scale)
        want = fft(z).real
        n = plan.n_per_axis
        want = want[:n] if plan.dimension == 1 else want[:n, :n]
        assert np.array_equal(simulate_field(plan).values, want)


def _serial_pairs(plan, keys, pairs, block):
    """The pairs of window_integrals drawn one at a time: pair j of block k
    is the j-th one-pair simulate_pairs draw from replicate_generator(*keys,
    k), whose block holds `block` pairs (the last one fewer)."""
    fields = []
    for k, start in enumerate(range(0, pairs, block)):
        rng = replicate_generator(*keys, k)
        fields += [simulate_pairs(plan, rng, 1)[0] for _ in range(min(block, pairs - start))]
    return fields


def test_window_integrals_are_block_invariant(monkeypatch):
    # each block's sums come from its own stream alone: they are those of
    # its fields drawn apart, and a count that adds a field to the last
    # block leaves every other column as it was
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    w = rectangle([-0.5], [0.5])
    G = functional_catalog("h2")
    radii = (4.0, 10.0, 16.0)
    stream = partial(replicate_generator, 3, 0)
    result = window_integrals(plan, G, w, radii, 1001, stream)
    sums = result.sums
    assert sums.shape == (3, 1001)
    # 2^18 sites hold all 501 pairs of the 128-site torus (padding 4): one
    # stream
    assert embedding(plan).torus_side == 128
    assert (result.pairs_per_stream, result.streams) == (2048, 1)
    fld = simulate_field(plan, rng=stream(0))
    assert result.volumes == tuple(lattice_window_volume(fld, w, r) for r in radii)
    # the first sums come from the field simulate_field draws from stream 0
    assert list(sums[:, 0]) == [functional_integral(fld, G, w, r) for r in radii]
    assert np.array_equal(window_integrals(plan, G, w, radii, 1002, stream).sums[:, :1001], sums)
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)  # one pair per stream
    one_pair = window_integrals(plan, G, w, radii, 1002, stream)
    assert (one_pair.pairs_per_stream, one_pair.streams) == (1, 501)
    assert np.array_equal(window_integrals(plan, G, w, radii, 1001, stream).sums, one_pair.sums[:, :1001])
    fields = [half for f in _serial_pairs(plan, (3, 0), 501, 1) for half in (f.real, f.imag)]
    for row, r in zip(one_pair.sums, radii):
        assert list(row) == [functional_integral(GridField(f, plan.h, plan.origin), G, w, r) for f in fields]
    with pytest.raises(CoverageError):
        window_integrals(plan, G, w, (16.0, 32.0), 10, stream)
    # r=7.5 would lay out extent 3.75, (8 - 3.75) / 0.5 = 8.5 sites in from
    # plan's edge; its window is read off plan's lattice all the same
    off = window_integrals(plan, G, w, (7.5,), 10, stream)
    assert off.sums[0, 0] == functional_integral(fld, G, w, 7.5)
    assert off.volumes == (lattice_window_volume(fld, w, 7.5),)


def test_the_largest_radius_sums_as_if_drawn_alone():
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.25, extent=8.0, seed=0)
    w = ball(1)
    G = functional_catalog("abs-centered")
    stream = partial(replicate_generator, 4, 1)
    shared = window_integrals(plan, G, w, (2.0, 4.0, 8.0), 301, stream)
    alone = window_integrals(plan, G, w, (8.0,), 301, stream)
    assert np.array_equal(shared.sums[-1], alone.sums[0])
    assert shared.volumes[-1] == alone.volumes[0]
    # the smaller windows read sub-blocks of the same fields, so they are
    # correlated with the largest one
    assert np.corrcoef(shared.sums[1], shared.sums[2])[0, 1] > 0.3


# r=8.1 would lay out a lattice that is no sub-lattice of the drawn one:
# (16 - 8.1) / 0.25, (8 - 4.05) / 0.5 and (8.1 - 8) / 1 are not whole
@pytest.mark.parametrize("window, h, radii, layout_trap", [
    (ball(1), 0.25, (4.0, 8.0, 8.1, 16.0), True),
    (rectangle([-0.5], [0.5]), 0.5, (4.0, 8.1, 10.0, 16.0), False),
    (ball(2), 1.0, (4.0, 6.0, 8.0, 8.1), False),
], ids=["interval", "rectangle-1d", "disk"])
def test_each_window_sum_is_functional_integral_of_its_field(
    monkeypatch, window, h, radii, layout_trap
):
    d = window.dimension
    plan = SimulationPlan(
        model=cauchy(d, 0.3), dimension=d, h=h, extent=window_extent(window, radii[-1]), seed=0
    )
    G = functional_catalog("abs-centered")
    count = 301
    # 16 pairs per stream: 151 pairs make 10 blocks, the last one short
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 16 * embedding(plan).torus_side**d)
    result = window_integrals(plan, G, window, radii, count, partial(replicate_generator, 8, 1))
    assert (result.pairs_per_stream, result.streams) == (16, 10)
    sums = result.sums
    pairs = _serial_pairs(plan, (8, 1), (count + 1) // 2, 16)
    fields = [half for f in pairs for half in (f.real, f.imag)][:count]
    for row, r in zip(sums, radii):
        want = [functional_integral(GridField(f, h, plan.origin), G, window, r) for f in fields]
        assert list(row) == want
    if layout_trap:
        # a boolean gather of the same block lays the fields out column by
        # column, and a reduction across its rows then adds each field's
        # values in another order: the one-pass sums must not take it
        union, _, _ = fieldsim._window_picks(plan, window, radii[-1:])
        mask = np.zeros(plan.n_per_axis**d, dtype=bool)
        mask[union] = True
        block = np.stack(pairs).reshape(len(pairs), -1)[:, mask]
        values = G(np.stack((block.real, block.imag), axis=1).reshape(2 * len(block), -1))
        assert not values.flags.c_contiguous
        trapped = np.add.reduce(values, axis=1)[:count] * plan.h**d
        assert not np.array_equal(trapped, sums[-1])


# 1000 sites hold 7 pairs of the 128-site torus below (padding 4), so 501
# pairs make 72 blocks, the last one short
@pytest.mark.parametrize("block_sites", [fieldsim._BLOCK_SITES, 1, 1000])
def test_window_integrals_leave_the_generator_where_serial_draws_do(monkeypatch, block_sites):
    # each block reads its own stream from the start and only as far as its
    # own pairs, as serial one-pair draws of those pairs do
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", block_sites)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 3)
    handed = {}

    def stream(k):
        handed[k] = replicate_generator(5, 0, k)
        return handed[k]

    result = window_integrals(plan, functional_catalog("h2"), ball(1), (4.0, 8.0), 1001, stream)
    block = max(1, block_sites // 128)
    assert (result.pairs_per_stream, result.streams) == (block, -(-501 // block))
    assert sorted(handed) == list(range(result.streams))
    fields = []
    for k, rng in handed.items():
        serial = replicate_generator(5, 0, k)
        fields += [(k, simulate_pairs(plan, serial, 1)[0]) for _ in range(min(block, 501 - k * block))]
        assert rng.bit_generator.state == serial.bit_generator.state
    want = [np.sum(functional_catalog("h2")(f.real)) * plan.h for _, f in sorted(fields, key=lambda p: p[0])]
    assert list(result.sums[1, 0:1001:2]) == want


def test_an_error_in_G_stops_the_helper_thread(monkeypatch):
    # G and the generators run on the pool's workers; an error on a worker
    # stops the others after their current block and reaches the caller,
    # and the workers are gone again
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)  # one pair per block: 10 blocks
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 2)
    caller = threading.get_ident()
    before = threading.active_count()
    both = threading.Barrier(2, timeout=10)  # the first two calls wait for each other
    seen = []

    def G(w):
        seen.append((threading.get_ident(), threading.active_count()))
        if len(seen) <= 2:
            both.wait()
        if len(seen) == 5:
            raise FloatingPointError("G failed")
        return w * w - 1.0

    with pytest.raises(FloatingPointError, match="G failed"):
        window_integrals(plan, G, ball(1), (4.0,), 20, partial(replicate_generator, 5, 1))
    assert len({ident for ident, _ in seen[:2]} - {caller}) == 2
    assert max(active for _, active in seen) == before + 2
    assert len(seen) < 10
    assert threading.active_count() == before

    class BrokenGenerator:
        def standard_normal(self, *args, **kwargs):
            raise OverflowError("no more normals")

    def stream(k):
        return BrokenGenerator() if k == 3 else replicate_generator(5, 1, k)

    with pytest.raises(OverflowError, match="no more normals"):
        window_integrals(plan, functional_catalog("h2"), ball(1), (4.0,), 20, stream)
    assert threading.active_count() == before


def test_only_the_calling_thread_evaluates_the_embedding(monkeypatch):
    # the spectrum and the covariance run before the pool starts; the
    # generators and G run on its workers only
    threads = {}

    def spy(name, fn):
        def recorded(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return recorded

    monkeypatch.setattr(fieldsim, "circulant_spectrum", spy("spectrum", circulant_spectrum))
    monkeypatch.setattr(fieldsim, "covariance_eval", spy("covariance", covariance_eval))
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 2)
    G = spy("G", functional_catalog("h2"))
    stream = spy("stream", partial(replicate_generator, 5, 2))
    clear_spectrum_cache()
    plan = SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=0)
    result = window_integrals(plan, G, ball(2), (4.0, 8.0), 12, stream)
    clear_spectrum_cache()
    caller = threading.get_ident()
    assert (result.streams, result.workers) == (6, 2)
    assert threads["spectrum"] == threads["covariance"] == {caller}
    assert threads["G"] | threads["stream"] and caller not in threads["G"] | threads["stream"]


def test_window_sums_do_not_depend_on_the_workers(monkeypatch):
    # every block writes only its own columns, so neither the worker count
    # nor which worker claims which block changes a sum; the streams stall
    # unevenly to shuffle the claims
    plan = SimulationPlan(model=cauchy(2, 0.3), dimension=2, h=1.0, extent=8.0, seed=0)
    G = functional_catalog("abs-centered")
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 2 * embedding(plan).torus_side**2)

    def stream(k):
        time.sleep(0.002 * (k * 7 % 3))
        return replicate_generator(6, 0, k)

    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fieldsim, "_available_cores", lambda: workers)
        runs.append(window_integrals(plan, G, ball(2), (4.0, 6.0, 8.0), 41, stream))
        assert (runs[-1].pairs_per_stream, runs[-1].streams, runs[-1].workers) == (2, 11, workers)
    assert all(np.array_equal(run.sums, runs[0].sums) for run in runs[1:])
    # more cores than blocks: the pool is capped at the blocks
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 64)
    capped = window_integrals(plan, G, ball(2), (4.0, 6.0, 8.0), 41, stream)
    assert capped.workers == 11 and np.array_equal(capped.sums, runs[0].sums)


def test_more_workers_than_cores_claim_every_block_once(monkeypatch):
    # eight workers on 300 one-pair blocks, switching threads every
    # microsecond: a claim lost or made twice would skip a block or draw it
    # twice
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    G = functional_catalog("h2")
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)
    claims = []

    def stream(k):
        claims.append(k)
        return replicate_generator(9, 0, k)

    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 1)
    serial = window_integrals(plan, G, ball(1), (4.0, 8.0), 600, stream).sums
    claims.clear()
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        shared = window_integrals(plan, G, ball(1), (4.0, 8.0), 600, stream)
    finally:
        sys.setswitchinterval(interval)
    assert shared.workers == 8
    assert sorted(claims) == list(range(300))
    assert np.array_equal(shared.sums, serial)


def _count_pools(monkeypatch):
    built = []

    class Counted(fieldsim.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fieldsim, "ThreadPoolExecutor", Counted)
    return built


def test_csv_text_builds_one_pool_per_call(monkeypatch):
    draws = np.random.default_rng(12).standard_normal(3 * expcli._CSV_CHUNK + 7)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 1)
    built = _count_pools(monkeypatch)
    text = "".join(expcli._csv_text(("x",), draws))
    assert len(built) == 1
    assert text.count("\n") == draws.size + 1


def test_window_integrals_build_one_pool_per_call(monkeypatch):
    plan = SimulationPlan(model=cauchy(1, 0.2), dimension=1, h=0.5, extent=8.0, seed=0)
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1)
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 2)
    built = _count_pools(monkeypatch)
    stream = partial(replicate_generator, 5, 3)
    result = window_integrals(plan, functional_catalog("h2"), ball(1), (4.0, 8.0), 40, stream)
    assert (result.streams, result.workers, len(built)) == (20, 2, 1)


def test_in_order_yields_in_order_when_later_tasks_finish_first(monkeypatch):
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: 3)
    finished = []

    def task(k):
        time.sleep(0.01 * (5 - k))
        finished.append(k)
        return k

    assert list(fieldsim._in_order(task, 6)) == list(range(6))
    assert finished != sorted(finished)


@pytest.mark.parametrize("workers", [1, 2])
def test_closing_in_order_starts_no_further_task(monkeypatch, workers):
    monkeypatch.setattr(fieldsim, "_available_cores", lambda: workers)
    before = threading.active_count()
    started = []

    def task(k):
        started.append(k)
        time.sleep(0.005)
        return k

    results = fieldsim._in_order(task, 50)
    assert next(results) == 0
    results.close()
    seen = list(started)
    time.sleep(0.05)
    # the first task and at most two per worker submitted behind it
    assert started == seen and len(seen) <= 1 + 2 * workers
    assert threading.active_count() == before


@pytest.mark.parametrize("d", [1, 2])
def test_h2_window_sums_have_the_exact_lattice_variance(monkeypatch, d):
    # E H2(X) H2(Y) = 2 B(x - y)^2, so the sum over the window's sites x, y
    # of 2 B(x - y)^2 h^(2d) is the exact variance of the lattice sum; a
    # noise layout that mixed up the real and imaginary parts of the sites
    # would give the fields the wrong covariance
    model = cauchy(d, 0.3)
    h, r = (0.5, 4.0) if d == 1 else (1.0, 3.0)
    window = ball(d)
    plan = SimulationPlan(model=model, dimension=d, h=h, extent=window_extent(window, r), seed=0)
    # the sums are far from normal, so the variance needs many of them:
    # scaling the real and imaginary parts by the spectrum of the wrong
    # sites lowers it by 7 (d=1) and 12 (d=2) standard errors or more
    count = 20000
    monkeypatch.setattr(fieldsim, "_BLOCK_SITES", 1250 * embedding(plan).torus_side**d)
    result = window_integrals(
        plan, functional_catalog("h2"), window, (r,), count, partial(replicate_generator, 61, d)
    )
    assert result.streams == 8
    sums = result.sums[0]
    mask = fieldsim._window_mask(plan.origin, plan.n_per_axis, h, window, r)
    sites = plan.origin + h * np.argwhere(mask)
    lag = np.sqrt(np.sum((sites[:, None, :] - sites[None, :, :]) ** 2, axis=-1))
    exact = 2.0 * float(np.sum(covariance_eval(model, lag) ** 2)) * h ** (2 * d)
    mean = float(np.mean(sums))
    assert abs(mean) < 6.0 * math.sqrt(exact / count)
    square = (sums - mean) ** 2
    estimate = float(np.mean(square)) * count / (count - 1)
    assert abs(estimate - exact) < 6.0 * float(np.std(square, ddof=1)) / math.sqrt(count)


@pytest.mark.parametrize(
    "window, h, radii", [(ball(1), 0.25, (8.0, 16.0, 32.0)), (ball(2), 1.0, (8.0, 12.0, 16.0))]
)
def test_each_radius_masks_its_own_lattice_placed_in_the_drawn_one(window, h, radii):
    d = window.dimension
    plan = SimulationPlan(
        model=cauchy(d, 0.3), dimension=d, h=h, extent=window_extent(window, radii[-1]), seed=0
    )
    n = plan.n_per_axis
    union, picks, counts = fieldsim._window_picks(plan, window, radii)
    for r, pick, count in zip(radii, picks, counts):
        drawn = fieldsim._window_mask(plan.origin, n, h, window, r)
        # the pick reads the window on the drawn lattice
        assert np.array_equal(union[pick], np.flatnonzero(drawn))
        assert count == np.count_nonzero(drawn)
        # these grids nest: the lattice r would lay out sits k whole sites
        # into the drawn one, and no cell centre lies on the window's
        # boundary, so its own window placed there is the same set of sites
        own = replace(plan, extent=window_extent(window, r))
        k = (n - own.n_per_axis) // 2
        assert own.extent == plan.extent - k * h
        placed = np.zeros((n,) * d, dtype=bool)
        placed[(slice(k, k + own.n_per_axis),) * d] = fieldsim._window_mask(
            own.origin, own.n_per_axis, h, window, r
        )
        assert np.array_equal(placed, drawn)


# h = 0.25 puts the cell centres at odd multiples of 1/8; the rectangles'
# faces at r = 2 (-0.875, 1.375 and -0.625) are centres, so the <= of a face
# test decides sites
@pytest.mark.parametrize("window", [
    ball(1, 0.75), rectangle([-0.4375], [0.6875]),
    ball(2, 0.8), rectangle([-0.4375, -0.3125], [0.6875, 0.5]),
], ids=["interval", "rectangle-1d", "disk", "rectangle-2d"])
def test_window_mask_is_the_window_site_by_site(window):
    d = window.dimension
    n, h, r = 16, 0.25, 2.0
    origin = -0.5 * n * h + 0.5 * h
    box = [(a * r, b * r) for a, b in zip(window.lower, window.upper)]

    def inside(x):
        if window.shape == "ball":
            return sum(c * c for c in x) <= (window.radius * r) ** 2
        return all(a <= c <= b for c, (a, b) in zip(x, box))

    want = np.zeros((n,) * d, dtype=bool)
    for index in np.ndindex(want.shape):
        want[index] = inside([origin + h * i for i in index])
    mask = fieldsim._window_mask(origin, n, h, window, r)
    assert np.array_equal(mask, want)
    if window.shape == "rect":
        # the faces at -0.875 and 1.375 are the centres of cells 4 and 13
        rows = np.flatnonzero(mask.reshape(n, -1).any(axis=1))
        assert (rows[0], rows[-1]) == (4, 13)
    with pytest.raises(CoverageError):
        fieldsim._window_mask(origin, n, h, window, 4.0 * r)


@pytest.mark.parametrize("r", [-2.0, 0.0, math.nan])
@pytest.mark.parametrize("window", [ball(1), rectangle([-0.5], [0.5]), ball(2)],
                         ids=["interval", "rectangle-1d", "disk"])
def test_a_nonpositive_scale_is_refused_naming_it(window, r):
    # each call read r <= 0 as an empty window, or failed further on
    d = window.dimension
    plan = SimulationPlan(model=cauchy(d, 0.3), dimension=d, h=1.0, extent=8.0, seed=0)
    field = simulate_field(plan)
    G = functional_catalog("h2")
    for call in (
        lambda: functional_integral(field, G, window, r),
        lambda: lattice_window_volume(field, window, r),
        lambda: window_extent(window, r),
        lambda: window_integrals(plan, G, window, (r,), 10, partial(replicate_generator, 0, 0)),
    ):
        with pytest.raises(DomainError, match=f"r must be positive, got {r}$"):
            call()


def test_the_lattice_covers_its_extent():
    # the fewest cells a side of the origin that cover [-extent, extent]:
    # 8 / 0.3 = 26.7 takes 27 a side, and 0.35 / 0.1 = 3.5 takes 4
    m = cauchy(1, 0.2)
    for extent, h, n in ((8.0, 0.3, 54), (8.0, 0.25, 64), (0.35, 0.1, 8), (2.1, 0.7, 6)):
        plan = SimulationPlan(model=m, dimension=1, h=h, extent=extent, seed=0)
        assert plan.n_per_axis == n
        lo, hi = plan.origin - 0.5 * h, plan.origin + (n - 0.5) * h
        assert lo == pytest.approx(-hi, abs=1e-12)
        assert hi >= extent - 1e-12 and hi - h < extent
    # the window that lays out the lattice fits on it, and so do all 54
    # centres, out to +-7.95
    plan = SimulationPlan(model=m, dimension=1, h=0.3, extent=window_extent(ball(1), 8.0), seed=0)
    G = functional_catalog("h2")
    result = window_integrals(plan, G, ball(1), (8.0,), 2, partial(replicate_generator, 0, 0))
    assert result.volumes == (54 * 0.3,)


@pytest.mark.parametrize("d, theta, h, r, n, origin, torus", [
    (1, 0.2, 0.25, 256.0, 2048, -255.875, 4096),
    (2, 0.3, 1.0, 64.0, 128, -63.5, 256),
], ids=["d1-mc", "d2-ball"])
def test_the_benchmark_lattices_keep_their_layout(d, theta, h, r, n, origin, torus):
    # when extent / h is whole, the lattice centred on the origin is the one
    # laid out from -extent, and so is its torus
    plan = SimulationPlan(
        model=cauchy(d, theta), dimension=d, h=h, extent=window_extent(ball(d), r), seed=0
    )
    assert (plan.n_per_axis, plan.origin) == (n, origin)
    assert embedding(plan).torus_side == torus


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
    assert [p.name for p in tmp_path.iterdir()] == ["field.bin"]  # no .npz suffix added
    g = import_field(str(path))
    assert np.array_equal(f.values, g.values)
    assert g.h == f.h
    assert g.origin == f.origin
    # a file in another format is refused, not misread
    for name, body in (("raw.bin", b"RLF1" + bytes(12)), ("array.npy", None)):
        other = tmp_path / name
        if body is None:
            np.save(other, f.values)
        else:
            other.write_bytes(body)
        with pytest.raises(ParameterError):
            import_field(str(other))


def test_padding_escalation_has_a_torus_budget():
    # 2048 points per axis at padding 4 need an 8192^2 torus, over the 2^24
    # site budget: refused before the spectrum is allocated (at the default
    # padding 2 they need exactly 2^24 sites, which the budget admits)
    plan = SimulationPlan(
        model=cauchy(2, 0.3), dimension=2, h=1.0, extent=1024.0, seed=0, padding=4
    )
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
