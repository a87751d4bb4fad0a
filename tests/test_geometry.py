"""Observation windows: volumes, transforms, distance laws, reduction identity."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from rosenlab.errors import (
    DomainError,
    IntegrabilityError,
    ParameterError,
    UnsupportedModelError,
)
from rosenlab.geometry import (
    ball,
    ball_ft_radial,
    diameter,
    distance_integral,
    distance_pdf,
    indicator_ft,
    rectangle,
    set_from_json,
    set_to_json,
    volume,
)


def test_volume_goldens():
    assert volume(ball(2), 1.0) == pytest.approx(math.pi, rel=1e-14)
    assert volume(rectangle([-1.0, -1.0], [1.0, 1.0]), 3.0) == pytest.approx(36.0, rel=1e-14)
    assert volume(ball(3), 1.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_volume_homothety():
    for w in (ball(2, 0.7), rectangle([-0.3, -1.0], [0.4, 2.0])):
        assert volume(w, 5.0) == pytest.approx(5.0 ** w.dimension * volume(w, 1.0), rel=1e-13)


def test_diameter():
    assert diameter(ball(2), 1.0) == 2.0
    assert diameter(rectangle([-1.0, -1.0], [1.0, 1.0]), 1.0) == pytest.approx(2.0 * math.sqrt(2.0))
    for w in (ball(3, 1.3), rectangle([-1.0], [1.0])):
        assert diameter(w, 5.0) == pytest.approx(5.0 * diameter(w, 1.0))


def test_rectangle_needs_interior_origin():
    with pytest.raises(ParameterError):
        rectangle([0.0], [1.0])
    with pytest.raises(ParameterError):
        rectangle([-1.0, 0.5], [1.0, 1.0])


def test_indicator_ft_at_zero_is_volume():
    for w in (ball(1), ball(2, 2.0), ball(3), rectangle([-1.0, -0.5], [1.0, 0.5])):
        got = indicator_ft(w, np.zeros(w.dimension))
        assert complex(got).real == pytest.approx(volume(w), rel=1e-12)
        assert abs(complex(got).imag) < 1e-12


def test_indicator_ft_goldens():
    # J_{3/2} half-integer reduction gives 4/pi for the unit d=3 ball at |x| = pi
    got = indicator_ft(ball(3), np.array([math.pi, 0.0, 0.0]))
    assert got == pytest.approx(4.0 / math.pi, rel=1e-12)
    # sinc zero for the unit interval
    got = indicator_ft(rectangle([-1.0], [1.0]), np.array([math.pi]))
    assert abs(complex(got)) < 1e-12


def test_indicator_ft_ball_real_even_bounded():
    w = ball(2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(size=2) * 5.0
        v1 = indicator_ft(w, x)
        v2 = indicator_ft(w, -x)
        assert abs(complex(v1).imag) < 1e-12
        assert complex(v1).real == pytest.approx(complex(v2).real, abs=1e-12)
        assert abs(complex(v1)) <= volume(w) + 1e-12


def test_indicator_ft_rect_matches_quadrature():
    # direct 2-d quadrature of the oscillatory integral as an independent oracle
    w = rectangle([-1.0, -0.5], [1.0, 0.5])
    x = np.array([0.9, -1.7])

    re, _ = integrate.dblquad(
        lambda v, u: math.cos(x[0] * u + x[1] * v), -1.0, 1.0, -0.5, 0.5
    )
    im, _ = integrate.dblquad(
        lambda v, u: math.sin(x[0] * u + x[1] * v), -1.0, 1.0, -0.5, 0.5
    )
    got = complex(indicator_ft(w, x))
    assert got.real == pytest.approx(re, abs=1e-9)
    assert got.imag == pytest.approx(im, abs=1e-9)


def test_indicator_ft_rect_matches_mpmath_near_zero():
    # (e^{ibt} - e^{iat}) / (it) at 40 digits, one axis at a time; in double
    # precision that quotient is off by about 1e-12 at t = 1e-4 (cancellation)
    ts = np.concatenate((np.logspace(-12, -2, 41), [0.99e-4, 1.01e-4]))
    ts = np.concatenate((ts, -ts))
    for a, b in ((-1.0, 0.5), (-0.3, 2.7)):
        got = indicator_ft(rectangle([a], [b]), ts[:, None])
        with mp.workdps(40):
            want = [(mp.expj(b * mp.mpf(t)) - mp.expj(a * mp.mpf(t))) / (1j * mp.mpf(t)) for t in ts]
            err = max(abs(mp.mpc(complex(g)) - w) for g, w in zip(got, want))
        assert err <= 1e-15 * (b - a)


def test_ball_ft_radial_matches_indicator_ft():
    w = ball(2, 1.0)
    for z in (0.0, 0.3, 2.0, 11.5):
        want = complex(indicator_ft(w, np.array([z, 0.0]))).real
        got = float(np.asarray(ball_ft_radial(w, np.array([z]))).ravel()[0])
        assert got == pytest.approx(want, abs=1e-12)


def test_ball_ft_radial_mpmath_oracle():
    # interval: 2 sin(Rz)/z; disk: 2 pi R J_1(Rz)/z
    z = np.array([0.0, 1e-9, 1e-3, 0.5, 2.0, 20.0, 119.7, 600.0])
    for radius in (1.0, 0.7):
        got1 = ball_ft_radial(ball(1, radius), z)
        got2 = ball_ft_radial(ball(2, radius), z)
        for zi, g1, g2 in zip(z, got1, got2):
            if zi == 0.0:
                want1, want2 = 2.0 * radius, math.pi * radius**2
            else:
                x = mp.mpf(zi)
                want1 = float(2 * mp.sin(radius * x) / x)
                want2 = float(2 * mp.pi * radius * mp.besselj(1, radius * x) / x)
            assert abs(g1 - want1) < 1e-14 * 2.0 * radius
            assert abs(g2 - want2) < 1e-14 * math.pi * radius**2


def test_spherical_l2_decay_exponent():
    # octave-averaged |K|^2 must fall at least like z^-(d+1)
    for d in (1, 2, 3):
        w = ball(d)
        edges = np.geomspace(10.0, 1000.0, 13)
        mids, means = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            z = np.linspace(lo, hi, 400)
            k2 = np.asarray(ball_ft_radial(w, z), dtype=float) ** 2
            mids.append(math.sqrt(lo * hi))
            means.append(float(k2.mean()))
        slope = np.polyfit(np.log(mids), np.log(means), 1)[0]
        assert -slope >= d + 1 - 0.1


def test_distance_pdf_triangular_law():
    # |U - V| for U, V uniform on an interval of length 2
    w = ball(1)
    z = np.linspace(0.0, 2.0, 2001)
    got = distance_pdf(w, 1.0, z)
    want = 1.0 - z / 2.0
    assert float(np.max(np.abs(got - want))) < 1e-10


def test_distance_pdf_normalization():
    for d in (1, 2, 3):
        w = ball(d)
        total, err = integrate.quad(lambda z: float(distance_pdf(w, 1.0, z)), 0.0, 2.0, limit=200)
        assert abs(total - 1.0) < 1e-8
        assert err < 1e-8


def test_distance_pdf_support_and_homothety():
    w = ball(2)
    assert distance_pdf(w, 1.0, 2.5) == 0.0
    assert distance_pdf(w, 3.0, 7.0) == 0.0
    for z in (0.3, 0.9, 1.7):
        lhs = float(distance_pdf(w, 3.0, 3.0 * z))
        rhs = float(distance_pdf(w, 1.0, z)) / 3.0
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_distance_pdf_disk_mpmath_betainc():
    # d rho^-d z^(d-1) I_mu((d+1)/2, 1/2) with mu = 1 - (z / 2 rho)^2
    w = ball(2, 0.8)
    r = 3.0
    rho = 0.8 * r
    z = np.array([0.0, 0.05, 0.3, 1.0, 2.4, 4.0, 4.79])
    got = distance_pdf(w, r, z)
    for zi, gi in zip(z, got):
        mu = 1 - (mp.mpf(zi) / (2 * rho)) ** 2
        want = float(2 * rho**-2 * zi * mp.betainc(1.5, 0.5, 0, mu, regularized=True))
        assert gi == pytest.approx(want, rel=1e-12, abs=1e-300)
    assert distance_pdf(w, r, 2.0 * rho) == 0.0


def test_distance_pdf_ball_keeps_precision_at_both_ends():
    # near z = 0 and z = 2 rho, 1 - mu and mu lose digits when mu is
    # formed in double precision; the oracle forms it at 40 digits
    for d, radius in ((2, 0.8), (3, 1.0), (1, 1.0)):
        w = ball(d, radius)
        r = 3.0
        rho = radius * r
        z = np.array([1e-6, 1e-3, 0.7 * rho, 1.5 * rho, 2.0 * rho * (1.0 - 1e-6)])
        got = distance_pdf(w, r, z)
        for zi, gi in zip(z, got):
            mu = 1 - (mp.mpf(zi) / (2 * rho)) ** 2
            inc = mp.betainc(mp.mpf(d + 1) / 2, 0.5, 0, mu, regularized=True)
            want = float(d * mp.mpf(rho) ** -d * mp.mpf(zi) ** (d - 1) * inc)
            assert gi == pytest.approx(want, rel=1e-14)


def test_distance_laws_refuse_the_square():
    # no exact distance pdf for a rectangle in d >= 2: both refuse it before
    # looking at r, z or the integrand
    w = rectangle([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(UnsupportedModelError, match="rectangle in d=2"):
        distance_pdf(w, 1.0, 0.5)
    with pytest.raises(UnsupportedModelError, match="rectangle in d=2"):
        distance_integral(w, -1.0, None)


def _disk_points(n, seed):
    """n uniform points in the unit disk: radius sqrt(U), angle 2 pi V."""
    rng = np.random.default_rng(seed)
    rho = np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    return np.column_stack((rho * np.cos(phi), rho * np.sin(phi)))


def test_pairwise_distance_histogram_matches_pdf():
    w = ball(2)
    n = 60000
    pts = _disk_points(2 * n, seed=21)
    dist = np.linalg.norm(pts[:n] - pts[n:], axis=1)
    edges = np.linspace(0.0, 2.0, 11)
    counts, _ = np.histogram(dist, edges)
    zf = np.linspace(0.0, 2.0, 4001)
    pdf = np.asarray(distance_pdf(w, 1.0, zf), dtype=float)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mask = (zf >= lo) & (zf <= hi)
        p = np.trapezoid(pdf[mask], zf[mask])
        se = math.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(counts[i] / n - p) < 3 * se + 1e-3


def test_distance_integral_normalization():
    for w, r in ((ball(2), 1.0), (rectangle([-0.5], [0.5]), 2.0)):
        got = distance_integral(w, r, lambda z: np.ones_like(z))
        want = volume(w) ** 2 * r ** (2 * w.dimension)
        assert got == pytest.approx(want, rel=1e-8)


def test_distance_integral_interval_closed_form():
    # int int |u-v|^(-1/2) over the unit square of side 1 equals 8/3
    w = rectangle([-0.5], [0.5])
    got = distance_integral(w, 1.0, lambda z: z ** -0.5)
    assert got == pytest.approx(8.0 / 3.0, rel=1e-9)


def test_distance_integral_monte_carlo_cross_check():
    w = ball(2)
    exponent = -0.3
    got = distance_integral(w, 1.0, lambda z: z**exponent)
    n = 10**6
    pts = _disk_points(2 * n, seed=33)
    vals = np.linalg.norm(pts[:n] - pts[n:], axis=1) ** exponent
    scale = volume(w) ** 2
    mc = scale * float(vals.mean())
    se = scale * float(vals.std(ddof=1)) / math.sqrt(n)
    assert abs(got - mc) < 3 * se


def test_distance_integral_flags_divergence():
    w = rectangle([-0.5], [0.5])
    with pytest.raises(IntegrabilityError):
        distance_integral(w, 1.0, lambda z: z**-1.2)
    w2 = ball(2)
    with pytest.raises(IntegrabilityError):
        distance_integral(w2, 1.0, lambda z: z**-2.4)


def test_set_json_round_trip():
    for w in (ball(2, 1.5), rectangle([-1.0, -0.5], [1.0, 0.5])):
        assert set_from_json(set_to_json(w)) == w
    with pytest.raises(ParameterError):
        set_from_json('{"shape": "cone", "R": 1.0}')
    with pytest.raises(ParameterError):
        set_from_json('{"shape": "rect", "a": [-1.0]}')


def test_scale_factor_gate():
    with pytest.raises(DomainError):
        volume(ball(2), -1.0)
    with pytest.raises(DomainError):
        distance_pdf(ball(2), 0.0, 0.5)
