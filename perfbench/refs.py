"""Reference values the benchmark checks rosenlab's outputs against.

Everything here is computed apart from rosenlab (numpy and scipy only), from
the definitions in the paper and in rosenlab's documented conventions:

- the limit variance 2 * int int |u - v|^(-2 alpha) over the unit interval
  (closed form) and over the unit disk (overlap-area quadrature);
- the third cumulant 8 * tr(T^3) of the operator T with kernel
  |x - y|^(-alpha) on [-1, 1], by a piecewise-constant Galerkin solve;
- the exact lattice variance of the window statistic X_r for the Cauchy
  covariance (1 + |x - y|^2)^(-theta);
- the rate exponent kappa = min(alpha (d - 2 alpha) / (d - alpha), kappa_1) / 3.
"""

from math import pi, sqrt

import numpy as np
from scipy.integrate import quad

# --- limit-law variance ---------------------------------------------------


def interval_variance(alpha):
    """2 * int int_{[-1,1]^2} |u - v|^(-2 alpha) du dv, in closed form."""
    return 4.0 * 2.0 ** (2.0 - 2.0 * alpha) / ((1.0 - 2.0 * alpha) * (2.0 - 2.0 * alpha))


def disk_overlap_area(z):
    """Area of the intersection of two unit disks whose centres are z apart."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.arccos(z / 2.0) - 0.5 * z * np.sqrt(np.maximum(4.0 - z * z, 0.0))


def disk_variance(alpha):
    """2 * int int_{D^2} |u - v|^(-2 alpha) for the unit disk D.

    Substituting t = u - v turns the double integral into
    int_{R^2} |t|^(-2 alpha) A(|t|) dt = 2 pi int_0^2 z^(1 - 2 alpha) A(z) dz,
    where A is the overlap area. The algebraic end-point weight of QUADPACK
    takes the z^(1 - 2 alpha) singularity exactly.
    """
    val, _ = quad(
        disk_overlap_area, 0.0, 2.0, weight="alg", wvar=(1.0 - 2.0 * alpha, 0.0),
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return 2.0 * 2.0 * pi * val


# --- third cumulant of the d=1 limit law ------------------------------------


def galerkin_matrix(alpha, cells):
    """Galerkin matrix of |x - y|^(-alpha) on [-1, 1] in the orthonormal
    basis of cell indicators.

    Cell integrals are exact through the second antiderivative
    F(t) = |t|^(2 - alpha) / ((1 - alpha)(2 - alpha)): the entry for cells k
    apart is (F((k+1) w) + F((k-1) w) - 2 F(k w)) / w, w the cell width.
    """
    w = 2.0 / cells
    k = np.arange(cells) * w

    def F(t):
        return np.abs(t) ** (2.0 - alpha) / ((1.0 - alpha) * (2.0 - alpha))

    col = (F(k + w) + F(k - w) - 2.0 * F(k)) / w
    idx = np.arange(cells)
    return col[np.abs(idx[:, None] - idx[None, :])]


def galerkin_kappa3(alpha, cells=1000):
    """kappa_3 = 8 sum nu^3 = 8 tr(T^3) of the d=1 limit law, Galerkin-discretised."""
    a = galerkin_matrix(alpha, cells)
    return 8.0 * float(np.sum((a @ a) * a))


# --- lattice moments of the window statistic --------------------------------


def c2_exact(functional):
    """Second Hermite coefficient E G(W) H_2(W) of a catalog functional."""
    if functional == "h2":
        return 2.0
    if functional == "abs-centered":
        return sqrt(2.0 / pi)
    raise ValueError(f"no exact c2 for {functional!r}")


def pair_covariance(functional, rho):
    """Cov(G(W_x), G(W_y)) for standard normals with correlation rho."""
    rho = np.asarray(rho, dtype=float)
    if functional == "h2":
        return 2.0 * rho * rho
    if functional == "abs-centered":
        r = np.clip(rho, -1.0, 1.0)
        return (2.0 / pi) * (r * np.arcsin(r) + np.sqrt(1.0 - r * r) - 1.0)
    raise ValueError(f"no pair covariance for {functional!r}")


def window_mask(d, radius, r, h):
    """Lattice sites of the scaled ball r * B(radius) in rosenlab's convention:
    n = round(2 R r / h) cells per axis, centres at -R r + (i + 1/2) h."""
    extent = radius * r
    n = int(round(2.0 * extent / h))
    x = -extent + (np.arange(n) + 0.5) * h
    if d == 1:
        return np.abs(x) <= extent
    return x[:, None] ** 2 + x[None, :] ** 2 <= extent**2


def lag_counts(mask):
    """Number of ordered site pairs of the mask at each lattice lag vector.

    Returns (counts, lags): counts[k] pairs at lag lags[k] (in sites), from
    an exact FFT autocorrelation rounded to integers.
    """
    mask = np.asarray(mask, dtype=float)
    shape = tuple(2 * s for s in mask.shape)
    axes = tuple(range(mask.ndim))
    f = np.fft.rfftn(mask, shape, axes)
    auto = np.rint(np.fft.irfftn(f * np.conj(f), shape, axes)).astype(np.int64)
    offsets = [np.fft.fftfreq(s, 1.0 / s) for s in shape]
    grids = np.meshgrid(*offsets, indexing="ij")
    lag = np.sqrt(sum(g * g for g in grids))
    keep = auto > 0
    return auto[keep], lag[keep]


def window_sum_variance(functional, theta, d, radius, r, h):
    """Var K_r = h^(2d) sum_{x, y in r Delta} Cov(G(W_x), G(W_y)) with
    correlation (1 + |x - y|^2)^(-theta)."""
    counts, lag = lag_counts(window_mask(d, radius, r, h))
    rho = (1.0 + (h * lag) ** 2) ** (-theta)
    return h ** (2 * d) * float(np.sum(counts * pair_covariance(functional, rho)))


def statistic_variance(functional, theta, d, radius, r, h):
    """Var X_r for X_r = 2 K_r / (c2 r^(d - alpha) L(r)), Cauchy covariance:
    alpha = 2 theta and L(r) = (1 + r^-2)^(-theta)."""
    alpha = 2.0 * theta
    scale = c2_exact(functional) * r ** (d - alpha) * (1.0 + r**-2.0) ** (-theta)
    return 4.0 * window_sum_variance(functional, theta, d, radius, r, h) / scale**2


def sample_moment_checks(values, mean, variance):
    """z-scores of the sample mean and variance against exact values.

    The standard errors come from the sample itself: s / sqrt(n) for the
    mean and sqrt((m4 - m2^2) / n) for the variance.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    dev = x - x.mean()
    m2 = float(np.mean(dev**2))
    m4 = float(np.mean(dev**4))
    z_mean = (float(x.mean()) - mean) / sqrt(m2 / n)
    z_var = (float(np.var(x, ddof=1)) - variance) / sqrt(max(m4 - m2 * m2, 1e-300) / n)
    return z_mean, z_var


def third_cumulant_check(values, kappa3):
    """z-score of the sample third central moment against kappa3, with the
    delta-method error sqrt((m6 - m3^2 - 6 m4 m2 + 9 m2^3) / n)."""
    x = np.asarray(values, dtype=float)
    dev = x - x.mean()
    m2, m3, m4, m6 = (float(np.mean(dev**p)) for p in (2, 3, 4, 6))
    se = sqrt(max(m6 - m3 * m3 - 6.0 * m4 * m2 + 9.0 * m2**3, 1e-300) / x.size)
    return (m3 - kappa3) / se


# --- rate exponent ----------------------------------------------------------


def cauchy_kappa_bound(d, theta):
    """kappa = min(alpha (d - 2 alpha) / (d - alpha), kappa_1) / 3 for the
    Cauchy field, with alpha = 2 theta, q -> q_max = min(2, d/2 - alpha),
    upsilon = min(2, d - 2 theta) and
    kappa_1 = 2 min(q, 1 / (2 / (d - 2 alpha) + 2 / (d + 1 - 2 alpha) + 1 / upsilon))."""
    alpha = 2.0 * theta
    q = min(2.0, 0.5 * d - alpha)
    upsilon = min(2.0, d - 2.0 * theta)
    harmonic = 1.0 / (2.0 / (d - 2.0 * alpha) + 2.0 / (d + 1.0 - 2.0 * alpha) + 1.0 / upsilon)
    kappa1 = 2.0 * min(q, harmonic)
    geometric = alpha * (d - 2.0 * alpha) / (d - alpha)
    return min(geometric, kappa1) / 3.0

