"""The limiting law of rank-2 functionals over a window.

The limit is a double Wiener-Ito integral whose kernel couples the window
transform with a power singularity at zero frequency. Its law is the
weighted series sum_j nu_j (Z_j^2 - 1) of centered chi-squares over the
spectrum nu_j of that operator, which has closed-form cumulants and a
closed-form characteristic function. Inverting that gives the exact CDF
(series_cdf), and sample draws by inverting the CDF itself: short batched
inverse FFTs (numpy's, the one FFT library of the package) put the CDF on
a fine grid (EigenSeries.cdf_table), and each draw is one uniform mapped
through its linear interpolant, with a reported Kolmogorov error bound.

limit_law(window, alpha) is the one way to get the series. The law is
self-similar (Dobrushin and Major 1979): over the ball of radius R it is
the unit ball's law times R^(d - alpha), and it does not change when the
window is translated, so a ball or any 1-d interval has the law of the ball
of its radius or half-length. limit_law therefore solves the operator of
the unit interval or the unit disk only (build_kernel), keeps its 50
largest eigenvalues (eigen_series) and dilates them; no eigenvalue is
rescaled. The rest of the spectrum is carried by M equal terms tau
(Z_i^2 - 1), Pearson's three-moment chi-square approximation (Biometrika
46, 1959) applied to the tail: their variance is the oracle's remainder
V_t = oracle - 2 sum nu^2, the oracle being a variance of the window that
does not use the mesh (variance_oracle: a closed form for balls and
intervals, a polar quadrature of a closed-form radial integral for d=2
rectangles), and their third cumulant is T_t, the tail's from Weyl
asymptotics. So 2 sum nu^2 equals the oracle by construction. A mesh that
has not resolved the law past its kept terms leaves a V_t off the Weyl
tail variance, which limit_law refuses. d=2 rectangles have no law here.

The operator is never stored whole. It commutes with the symmetries of
the window and the mesh, so it splits into one block per invariant
subspace, and the merged block spectra are the spectrum of the full
matrix:

- d=1: the operator with kernel |x - y|^(-alpha) on [-1, 1], by a
  piecewise-constant Galerkin solve on 500 equal cells, whose entries
  are exact cell integrals. The matrix is Toeplitz and commutes with the
  reflection x -> -x, so it splits into an even and an odd half of order
  250 each.
- d=2: the frequency-difference form
  M_ij = c2 sqrt(w_i w_j) K(lam_i - lam_j) (|lam_i||lam_j|)^(-(d-alpha)/2),
  the matrix T^(1/2) P T^(1/2) for the positive operator T of
  multiplication by the singular weight conjugated with the window
  projection P, on a radial frequency mesh. The kernel oscillates on a
  unit frequency scale out to the cutoff, which a dense polar mesh cannot
  resolve at a feasible matrix size. The unit disk's transform and the
  singular weight are isotropic, so the operator commutes with rotations
  and splits into angular Fourier blocks (multiplicity two except the
  zeroth harmonic m). Gegenbauer's addition theorem writes the unit disk's
  transform as a sum of rank-one terms over Bessel orders k, each in the
  harmonics m <= k of k's parity, so block m is A_m^T A_m and is solved as
  the small Gram matrix A_m A_m^T, which has the same nonzero spectrum. A
  rectangle's operator does not decouple this way, which is why d=2
  rectangles are refused. The Bessel values J_{k+1}(r) of those terms come
  from the Jacobi-Anger expansion e^(i r sin t) = sum_n J_n(r) e^(i n t):
  one DFT over 256 angles (at the default cutoff) gives every order at
  every radius at once. Each Gram matrix is one product of a factor with
  its own transpose, which numpy forms by a symmetric rank-k update, so
  every block is exactly symmetric.

No part of the law loads scipy; only the variance oracle of a d=2
rectangle does (scipy.integrate).
"""

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from math import atan2, ceil, cos, exp, factorial, fsum, lgamma, log, log2, pi, sin, sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss

from .covmodels import c2_constant
from .errors import (
    AccuracyError,
    DomainError,
    IntegrabilityError,
    ParameterError,
    UnsupportedModelError,
    check_json_object,
)
from .fieldsim import replicate_generator
from .geometry import ball, volume

__all__ = [
    "RosenblattKernel",
    "EigenSeries",
    "CdfTable",
    "build_kernel",
    "eigen_series",
    "law_radius",
    "limit_law",
    "sample",
    "series_cdf",
    "cumulant",
    "variance_oracle",
    "series_record",
    "series_to_json",
    "series_from_json",
]

# The mesh of the limit kernel: Galerkin cells of [-1, 1] in d=1, radial
# nodes and frequency cutoff in d=2.
_GALERKIN_CELLS = 500
DEFAULT_RADIAL_2D = 160
DEFAULT_CUTOFF_2D = 60.0
# the leading eigenvalues limit_law keeps, well below the cell count: the
# Weyl tail of the 500 cells is off by 2x at 300 terms
_LEADING_TERMS = 50
# the most equal tail terms a law lists, and the band of V_t / V_W inside
# which the mesh resolved the law past its leading terms
_TAIL_CAP = 2**18
_WEYL_BAND = (0.8, 1.25)
_INNER_RADIUS = 1e-8
_GL_ORDER = 4
_CDF_TOL = 1e-12
_CDF_MAX_NODES = 2**20
_TABLE_INTERP_TOL = 1e-10
_TABLE_MAX_CELLS = 2**22
# draws sample returns, 1 GiB of them at the budget
_SAMPLE_BUDGET = 2**27
# the shortest transform of the CDF table, and the values its working
# arrays hold per group of transforms
_SHORT_FFT = 4096
_TABLE_GROUP = 2**18
# nodes series_cdf sums by Horner per giant step (_midpoint_sum)
_BABY_STEPS = 64
# uniforms drawn and inverted at a time by sample
_SAMPLE_BLOCK = 2**16
_GRADED_END_2D = 1.0
# an addition-theorem term below this, next to the leading 1/4, is rounding
_ROW_FLOOR = 0.25 * np.finfo(float).eps


@dataclass(frozen=True)
class RosenblattKernel:
    """Discretization of the rank-2 limit kernel as symmetry blocks.

    blocks holds one symmetric matrix per invariant subspace, with the
    nonzero spectrum of that subspace's block (see build_kernel).
    block_multiplicity says how often each block's eigenvalues occur in the
    full spectrum. d=1: the even and odd halves of the Galerkin matrix,
    multiplicity 1 each. d=2 (the unit disk): one Gram block per angular
    harmonic, multiplicity 1 for the zeroth harmonic and 2 beyond.
    spectrum_size is the summed order of the blocks with multiplicity.
    """

    blocks: tuple
    block_multiplicity: tuple

    @property
    def spectrum_size(self):
        return sum(
            mult * blk.shape[0] for blk, mult in zip(self.blocks, self.block_multiplicity)
        )


@dataclass(frozen=True, eq=False)
class CdfTable:
    """The CDF of a series law on a uniform grid, for sampling by inversion.

    cdf[j] is F(x[j]) at x[j] = lo + j (hi - lo) / cells, made nondecreasing,
    where lo and hi are the Chernoff points of series_cdf. The values are
    the midpoint sum of series_cdf, formed by short batched inverse FFTs
    (_odd_harmonic_sum) that agree with one inverse FFT over the whole grid
    to rounding (within 1e-15 in the tests). ks_bound bounds the Kolmogorov
    distance between F and the law whose CDF is the linear interpolant of
    the table: the interpolation bound max|second difference of cdf| / 8
    plus the tolerance of the tabulated values.
    """

    x: np.ndarray
    cdf: np.ndarray
    ks_bound: float

    @property
    def cells(self):
        return self.x.size - 1


@dataclass(frozen=True)
class EigenSeries:
    """The weights nu_j of a series law sum_j nu_j (Z_j^2 - 1), listed one
    by one, and how limit_law made them.

    eigenvalues holds the leading_terms (K) largest eigenvalues of the
    window operator, none of them rescaled, then tail_terms (M) copies of
    tail_value (tau): K + M values, and no field repeats that count. The
    tail stands for every eigenvalue past the K-th: tail_variance (V_t) is
    the oracle's variance less 2 sum nu^2 over the K terms and tail_kappa3
    (T_t) the tail's third cumulant from Weyl asymptotics, so
    M = round(8 V_t^3 / T_t^2) and tau = sqrt(V_t / (2 M)), M at most
    _TAIL_CAP. weyl_ratio is V_t over the Weyl tail variance V_W, and
    leading_share the share of the oracle's variance the K terms carry.
    The CDF and the sampler read only the list, each distinct weight once
    with its multiplicity.
    """

    eigenvalues: tuple
    leading_terms: int
    tail_terms: int
    tail_value: float
    tail_variance: float
    tail_kappa3: float
    weyl_ratio: float
    leading_share: float

    @property
    def variance(self):
        return 2.0 * fsum(v * v for v in self.eigenvalues)

    @cached_property
    def inversion_rule(self):
        """The midpoint rule series_cdf and cdf_table invert phi with at the
        tolerance _CDF_TOL = 1e-12, computed on first use and kept.

        A tuple (lo, hi, u, weight, phase): the Chernoff points and the
        nodes, weights and phases of _inversion_terms. AccuracyError, not
        kept, if the rule needs more than 2^20 nodes.
        """
        nu, count = np.unique(np.asarray(self.eigenvalues, dtype=float), return_counts=True)
        return _inversion_rule(nu, count, _CDF_TOL)

    @cached_property
    def cdf_table(self):
        """The CdfTable that sample inverts, built on first use and kept.

        The grid is refined until the interpolation bound is at most 1e-10,
        so ks_bound is at most 1e-10 + 1e-12. AccuracyError if the CDF
        needs more than 2^20 nodes (series_cdf's refusal, as for four or
        fewer equal terms) or the table more than 2^22 cells.
        """
        return _cdf_table(self.inversion_rule, _CDF_TOL)


def _gauss_panels(edges):
    """Gauss-Legendre nodes and weights of order _GL_ORDER on every panel."""
    tg, wg = leggauss(_GL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * tg).ravel(), (half[:, None] * wg).ravel()


def _radial_axis_2d(n_nodes, cutoff):
    """Radial mesh: graded panels over the weight singularity near zero,
    then uniform panels sized to resolve the unit-scale transform
    oscillation out to the cutoff. Returns nodes and plain dr weights."""
    inner_panels = max(8, n_nodes // 16)
    outer_panels = (n_nodes - _GL_ORDER * inner_panels) // _GL_ORDER
    ratio = (_GRADED_END_2D / _INNER_RADIUS) ** (1.0 / inner_panels)
    graded = _INNER_RADIUS * ratio ** np.arange(inner_panels)
    edges = np.concatenate([graded, np.linspace(_GRADED_END_2D, cutoff, outer_panels + 1)])
    return _gauss_panels(edges)


def _bessel_angles(cutoff):
    """Angle count of the Bessel table: the power of two above twice the
    largest order _addition_rows can keep at this cutoff.

    |J_n(r)| <= (r/2)^n / n! bounds that order by the first n > cutoff whose
    term n ((cutoff/2)^n / n! / cutoff)^2 is below _ROW_FLOOR, which is 95
    at the default cutoff of 60, so 256 angles. Every kept order n then
    aliases only with orders above the bound, which are below the floor.
    """
    n, floor = ceil(cutoff) + 1, log(_ROW_FLOOR)
    while log(n) + 2.0 * (n * log(0.5 * cutoff) - lgamma(n + 1.0) - log(cutoff)) > floor:
        n += 1
    return 2 ** (2 * n).bit_length()


def _bessel_table(r, angles):
    """J_n(r) for n = 0, ..., angles/2 - 1 (rows) at the radii r (columns).

    The Jacobi-Anger expansion e^(i r sin t) = sum_n J_n(r) e^(i n t) makes
    J_n(r) the n-th Fourier coefficient of e^(i r sin t), so one DFT over
    equispaced angles t gives every order, each off by its aliases
    J_(n-angles)(r) + J_(n+angles)(r) + ..., the largest of size
    |J_(angles-n)(r)|. The DFT runs over e^(ix) - 1 = 2i sin(x/2) e^(ix/2),
    x = r sin t, which shifts only J_0 (by one, added back) and keeps every
    order to rounding relative to r: next to the constant 1, J_1(r)/r = 1/2
    would lose eight digits at the mesh's inner radius 1e-8.
    """
    half = 0.5 * np.sin(2.0 * pi / angles * np.arange(angles))[:, None] * np.asarray(r)
    table = np.fft.fft(2j * np.sin(half) * np.exp(1j * half), axis=0)[: angles // 2].real
    table /= angles
    table[0] += 1.0
    return table


def _addition_rows(rad, cutoff):
    """Rows sqrt(4 pi (k + 1)) J_{k+1}(r)/r, k = 0, 1, ..., at the radii rad.

    Gegenbauer's addition theorem (Watson, Bessel Functions, 11.41) gives
    J_1(w)/w = 2 sum_k (k + 1) v_k(r) v_k(s) U_k(cos psi) at the chord
    w^2 = r^2 + s^2 - 2 r s cos psi, v_k(r) = J_{k+1}(r)/r, and U_k carries
    each harmonic m <= k of k's parity with weight one, so the harmonic-m
    coefficient over psi of the unit disk transform 2 pi J_1(w)/w is
    rows[m::2].T @ rows[m::2]. The rows stop at the first k whose term
    (k + 1) v_k(r)^2 is below rounding next to the leading 1/4 on
    [0, cutoff], where v_k grows once k + 1 > cutoff: at r = cutoff.
    The Bessel values, at the radii and at the cutoff, are one Jacobi-Anger
    table (_bessel_table) of _bessel_angles(cutoff) angles, computed with
    numpy's FFT.
    """
    table = _bessel_table(np.append(rad, cutoff), _bessel_angles(cutoff))
    edge = table[:, -1] / cutoff
    k = ceil(cutoff)
    while (k + 1) * edge[k + 1] ** 2 > _ROW_FLOOR:
        k += 1
    k = np.arange(k)
    return np.sqrt(4.0 * pi * (k + 1.0))[:, None] * table[1 : k.size + 1, :-1] / rad


def build_kernel(dimension, alpha):
    """The rank-2 limit kernel of the unit window, split into symmetry
    blocks.

    The unit window is the interval [-1, 1] for dimension 1 and the unit disk
    for dimension 2; limit_law dilates its law to other windows. The mesh is
    fixed. d=1: the operator with kernel |x - y|^(-alpha) in the orthonormal
    basis of the indicators of 500 equal cells of width w. The entry of two
    cells k apart is (F((k + 1) w) + F((k - 1) w) - 2 F(k w)) / w, exact
    through F(t) = |t|^(2 - alpha) / ((1 - alpha)(2 - alpha)), so the
    matrix T is Toeplitz, T_ij = c_|i-j|. It commutes with the reflection
    of the cells, so it splits into the even and odd halves A +- BJ of
    order 250, A and B its upper blocks and J the exchange matrix:
    c_|i-j| +- c_(499-i-j). d=2: DEFAULT_RADIAL_2D radial nodes up to
    DEFAULT_CUTOFF_2D; block m is A_m^T A_m, A_m the _addition_rows of m's
    parity times the radial weights, kept as A_m A_m^T for every order the
    rows carry. Doubling the radial count moves the kept terms' variance by
    under 0.1% of the oracle for alpha from 0.4 to 0.8; halving it moves it
    by up to 0.3%, which leaves limit_law's Weyl band at alpha = 0.4.
    """
    d = dimension
    if d not in (1, 2):
        raise ParameterError(f"kernel construction supports d in (1, 2), got {d}")
    if not (0.0 < alpha < 0.5 * d):
        raise DomainError(f"alpha must lie in (0, d/2) = (0, {d / 2}), got {alpha}")
    if d == 1:
        w, half = 2.0 / _GALERKIN_CELLS, _GALERKIN_CELLS // 2
        f = np.abs(np.arange(-1, _GALERKIN_CELLS + 1) * w) ** (2.0 - alpha)
        col = (f[2:] + f[:-2] - 2.0 * f[1:-1]) / (w * (1.0 - alpha) * (2.0 - alpha))
        i = np.arange(half)
        toeplitz = col[np.abs(i[:, None] - i)]
        mirrored = col[2 * half - 1 - i[:, None] - i]
        return RosenblattKernel(blocks=(toeplitz + mirrored, toeplitz - mirrored),
                                block_multiplicity=(1, 1))
    rad, wrad = _radial_axis_2d(DEFAULT_RADIAL_2D, DEFAULT_CUTOFF_2D)
    # radial measure s ds and one weight factor per side
    expo = -0.5 * (d - alpha)
    rows = _addition_rows(rad, DEFAULT_CUTOFF_2D) * (np.sqrt(wrad * rad) * rad**expo)
    gram = 2.0 * pi * c2_constant(d, alpha) * (rows @ rows.T)
    m_max = gram.shape[0] - 1
    blocks = tuple(gram[harmonic::2, harmonic::2].copy() for harmonic in range(m_max + 1))
    return RosenblattKernel(blocks=blocks, block_multiplicity=(1,) + (2,) * m_max)


def eigen_series(kernel):
    """The _LEADING_TERMS = 50 largest eigenvalues of the kernel by
    magnitude, as an array, none of them rescaled.

    Each symmetry block is solved on its own and the block spectra are
    merged with their multiplicities, which gives the spectrum of the full
    operator. limit_law carries the rest of the spectrum by its tail.
    """
    try:
        eig = np.concatenate([
            np.repeat(np.linalg.eigvalsh(blk), mult)
            for blk, mult in zip(kernel.blocks, kernel.block_multiplicity)
        ])
    except np.linalg.LinAlgError as exc:
        raise AccuracyError(f"eigen-solver did not converge: {exc}") from None
    return eig[np.argsort(-np.abs(eig))][:_LEADING_TERMS]


def _ball_radius(window):
    """The radius R of the ball whose limit law is the window's, or None for
    a rectangle in d >= 2.

    A ball is its own. A 1-d interval [a, b] has the law of the interval of
    half-length (b - a)/2, since the law does not change when the window is
    translated.
    """
    if window.shape == "ball":
        return window.radius
    if window.dimension == 1:
        return 0.5 * (window.upper[0] - window.lower[0])
    return None


def law_radius(window):
    """The radius R of the ball whose limit law is the window's.

    The window must be a ball in d = 1 or 2 or a 1-d interval, which has
    the law of a ball (_ball_radius); anything else is refused with
    UnsupportedModelError. The check needs no kernel, so a caller can make
    it before any costly work.
    """
    radius, d = _ball_radius(window), window.dimension
    if radius is None or d > 2:
        raise UnsupportedModelError(
            f"no limit law for a {window.shape} window in d={d}; only balls in "
            f"d <= 2 and 1-d intervals"
        )
    return radius


def limit_law(window, alpha):
    """The limit law over window at alpha, as an EigenSeries: the leading
    eigenvalues of the window operator and a chi-square tail.

    The window must be one law_radius accepts; anything else is refused
    with UnsupportedModelError before a kernel is built. The law over the
    ball of radius R is the unit window's times R^(d - alpha) (Dobrushin and
    Major 1979: the transform of R W is R^d times W's at R lam), so only the
    unit window's kernel is built (build_kernel), and its K = 50 largest
    eigenvalues (eigen_series) are dilated, not rescaled. The rest of the
    spectrum is M equal terms tau, with p = (d - alpha)/d and the Weyl
    asymptotics nu_j ~ nu_K (j / K)^(-p) summed from K + 1/2:
    - V_t = oracle - 2 sum_(j<=K) nu_j^2, the oracle from variance_oracle;
    - T_t = 8 nu_K^3 K^(3p) (K + 1/2)^(1 - 3p) / (3p - 1);
    - M = round(8 V_t^3 / T_t^2), at most _TAIL_CAP, and
      tau = sqrt(V_t / (2 M)),
    so that 2 sum nu^2 equals the oracle and, below the cap, the tail's
    third cumulant 8 M tau^3 is T_t (Pearson 1959). The law is refused with
    AccuracyError unless V_t lies within _WEYL_BAND = [0.8, 1.25] of the
    Weyl tail variance V_W = 2 nu_K^2 K^(2p) (K + 1/2)^(1 - 2p) / (2p - 1):
    outside it the mesh has not resolved the spectrum past its K terms, as
    on the disk at alpha <= 0.3, whose frequency mesh loses variance.
    """
    d = window.dimension
    nu = law_radius(window) ** (d - alpha) * eigen_series(build_kernel(d, alpha))
    oracle = variance_oracle(window, alpha)
    k, p, last = nu.size, (d - alpha) / d, abs(float(nu[-1]))

    def weyl(power):
        # sum_(j>K) |nu_K|^power (j / K)^(-power p) as an integral from K + 1/2
        scale = last**power * k ** (power * p)
        return scale * (k + 0.5) ** (1.0 - power * p) / (power * p - 1.0)

    tail_variance = oracle - 2.0 * float(np.sum(nu**2))
    ratio = tail_variance / (2.0 * weyl(2))
    if not _WEYL_BAND[0] <= ratio <= _WEYL_BAND[1]:
        raise AccuracyError(
            f"tail variance V_t/V_W = {ratio:.4g} outside [{_WEYL_BAND[0]}, "
            f"{_WEYL_BAND[1]}]: the kernel mesh has not resolved the law past its "
            f"{k} leading terms",
            estimate=ratio,
        )
    tail_kappa3 = 8.0 * weyl(3)
    count = min(round(8.0 * tail_variance**3 / tail_kappa3**2), _TAIL_CAP)
    value = sqrt(tail_variance / (2.0 * count))
    return EigenSeries(
        eigenvalues=tuple(map(float, nu)) + (value,) * count,
        leading_terms=k,
        tail_terms=count,
        tail_value=value,
        tail_variance=tail_variance,
        tail_kappa3=tail_kappa3,
        weyl_ratio=ratio,
        leading_share=1.0 - tail_variance / oracle,
    )


def sample(series, n, seed):
    """n i.i.d. draws from the law of sum_j nu_j (Z_j^2 - 1) by inversion.

    Each draw is one uniform from replicate_generator(seed), the stream of
    default_rng(seed), mapped through the linear interpolant of
    series.cdf_table, so the draws follow a law within
    series.cdf_table.ks_bound of the series law in Kolmogorov distance, and
    the first k of n draws are the k draws of the same seed. The uniforms
    are drawn and inverted _SAMPLE_BLOCK at a time; one rng.random call per
    block reads the stream as one call for all n would, so each draw is
    np.interp(u, table.cdf, table.x) at the uniform u of its place in the
    stream. AccuracyError where the table cannot be built (see
    EigenSeries.cdf_table), and ParameterError for a seed that is not a
    nonnegative integer or for n outside [1, _SAMPLE_BUDGET], before the
    table is built.
    """
    rng = replicate_generator(seed)
    n = int(n)
    if n < 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    if n > _SAMPLE_BUDGET:
        raise ParameterError(f"sample count {n} exceeds the 2^27 budget")
    table = series.cdf_table
    out = np.empty(n)
    for start in range(0, n, _SAMPLE_BLOCK):
        u = rng.random(min(_SAMPLE_BLOCK, n - start))
        # queries sorted by their leading 16 bits walk the table nearly in
        # order, several times faster than in draw order; a stable argsort
        # of 16-bit keys is a radix sort, cheaper than sorting u itself, and
        # the values do not depend on the order
        order = np.argsort((u * 65536.0).astype(np.uint16), kind="stable")
        out[start : start + u.size][order] = np.interp(u[order], table.cdf, table.x)
    return out


def _upper_tail_point(nu, count, eps):
    """A point a with P(sum nu_j (Z_j^2 - 1) > a) <= eps, each distinct
    weight nu taken count times: the smallest over a grid of t of the
    Chernoff point (K(t) - log eps)/t, K(t) = sum -log(1 - 2 t nu)/2 - t nu.
    K is finite for 0 < t < 1/(2 max nu), or for every t > 0 when no weight
    is positive; then the sum never exceeds -sum nu either."""
    top = nu.max()
    if top > 0.0:
        t = (1.0 - np.geomspace(1e-6, 0.9, 64)) / (2.0 * top)
    else:
        t = np.geomspace(1e-2, 1e6, 64) / (-2.0 * nu.min())
    k = (-0.5 * np.log1p(-2.0 * t[:, None] * nu) - t[:, None] * nu) @ count
    bound = float(np.min((k - log(eps)) / t))
    return bound if top > 0.0 else min(bound, -float(nu @ count))


def _node_plan(nu, count, tol):
    """Chernoff points lo, hi, step du and node count of the inversion rule
    of the distinct weights nu with their multiplicities count.

    lo and hi each leave tol/4 of the law outside. The count is the first
    power of two K from 16 whose remainder bound |phi(U)|/(pi s(U)), U = K du
    and s = -dlog|phi|/dlog u, is at most tol/2; AccuracyError above 2^20.
    """
    lo = -_upper_tail_point(-nu, count, 0.25 * tol)
    hi = _upper_tail_point(nu, count, 0.25 * tol)
    du = 2.0 * pi / (hi - lo)
    nodes = 16
    while True:
        q = (2.0 * nu * nodes * du) ** 2
        remainder = np.exp(-0.25 * (np.log1p(q) @ count)) / (0.5 * ((q / (1.0 + q)) @ count))
        if remainder <= 0.5 * pi * tol:
            return lo, hi, du, nodes
        if nodes >= _CDF_MAX_NODES:
            raise AccuracyError(
                f"characteristic function of the series decays too slowly: "
                f"remainder {remainder / pi:.2e} after {nodes} nodes",
                estimate=remainder / pi,
            )
        nodes *= 2


def _inversion_terms(nu, count, du, nodes):
    """Midpoint nodes u_k = (k + 1/2) du with weight |phi(u_k)|/(pi (k + 1/2))
    and phase arg phi(u_k), so that F(x) = 1/2 - sum_k weight_k
    sin(phase_k - u_k x); each distinct weight nu is one pass, times its
    count."""
    u = (np.arange(nodes) + 0.5) * du
    log_modulus = np.zeros(nodes)
    phase = np.zeros(nodes)
    for v, c in zip(nu, count):  # one weight at a time: memory stays O(nodes)
        w = 2.0 * v * u
        log_modulus -= 0.25 * c * np.log1p(w * w)
        phase += 0.5 * c * (np.arctan(w) - w)
    weight = np.exp(log_modulus) / (pi * (np.arange(nodes) + 0.5))
    return u, weight, phase


def _inversion_rule(nu, count, tol):
    """(lo, hi, u, weight, phase): the node plan and terms of series_cdf."""
    lo, hi, du, nodes = _node_plan(nu, count, tol)
    return (lo, hi) + _inversion_terms(nu, count, du, nodes)


def _odd_harmonic_sum(odd, cells):
    """0.5 - Re sum_k odd_k e^(i pi (2k + 1) j / N) at j = 0, ..., N = cells.

    That is N times a real inverse FFT of length 2N whose odd harmonics
    2k + 1 carry odd_k; here it is L = N / P (rows) short ones of length 2P
    (P = short). P is the smallest power of two at least
    max(_SHORT_FFT, 2 nodes), so the odd harmonics stay below P, and at
    most N. With j = L p + l,
    e^(i pi (2k + 1) j / N) = e^(i pi (2k + 1) p / P) e^(i pi (2k + 1) l / N),
    so the sums at j = l, L + l, 2L + l, ... are P times the inverse FFT
    over p of the row odd_k e^(i pi (2k + 1) l / N): column l of the table
    viewed as a P x L array. The rows are formed, transformed and written
    _TABLE_GROUP // (2P) at a time, so the working arrays hold about
    _TABLE_GROUP values whatever the table size. j = N is row 0 at p = P.
    """
    nodes = odd.size
    short = min(max(_SHORT_FFT, 1 << (2 * nodes - 1).bit_length()), cells)
    rows = cells // short
    group = min(rows, max(1, _TABLE_GROUP // (2 * short)))
    harmonic = 2.0 * np.arange(nodes) + 1.0
    spectrum = np.zeros((group, short + 1), dtype=complex)
    cdf = np.empty(cells + 1)
    columns = cdf[:cells].reshape(short, rows)
    for first in range(0, rows, group):
        row = np.arange(first, min(first + group, rows))
        bins = spectrum[: row.size, 1 : 2 * nodes : 2]
        np.exp(np.multiply.outer(row * (pi / cells), 1j * harmonic), out=bins)
        bins *= odd
        values = np.fft.irfft(spectrum[: row.size], 2 * short)
        if first == 0:
            cdf[cells] = 0.5 - short * values[0, short]
        block = values[:, :short]
        block *= -short
        block += 0.5
        columns[:, first : first + row.size] = block.T
    return cdf


def _curvature_bound(cdf):
    """max |second difference of cdf| / 8, read a chunk at a time."""
    top = 0.0
    for start in range(0, cdf.size - 2, _TABLE_GROUP):
        curvature = np.diff(cdf[start : start + _TABLE_GROUP + 2], 2)
        top = max(top, curvature.max(), -curvature.min())
    return top / 8.0


def _cdf_table(rule, tol):
    """CdfTable of the series: the midpoint sum of series_cdf at every point
    of a uniform grid on [lo, hi], by short batched inverse FFTs
    (_odd_harmonic_sum) per grid size. rule is the series' _inversion_rule
    at tol.

    The first grid has 8 points per period of the top frequency, where the
    second difference is h^2 F'' to a few percent. The bound falls like
    cells^-2, so the next size is the power of two it predicts, doubled
    while the bound measured there is still above 1e-10. Apart from the
    table itself, x and cdf, the build holds arrays of about _TABLE_GROUP
    values, and one table at a time.
    """
    lo, hi, u, weight, phase = rule
    nodes = u.size
    # At x_j = lo + j (hi - lo)/N, u_k x_j = u_k lo + pi (2k + 1) j / N, so
    # F(x_j) = 0.5 - Re sum_k odd_k e^(i pi (2k + 1) j / N) with
    # odd_k = i weight_k exp(-i (phase_k - u_k lo)).
    odd = 1j * weight * np.exp(-1j * (phase - u * lo))
    cells = min(8 * nodes, _TABLE_MAX_CELLS)
    while True:
        cdf = _odd_harmonic_sum(odd, cells)
        interp = _curvature_bound(cdf)
        if interp <= _TABLE_INTERP_TOL:
            break
        if cells >= _TABLE_MAX_CELLS:
            raise AccuracyError(
                f"series CDF too steep to tabulate: interpolation bound "
                f"{interp:.2e} at {cells} cells",
                estimate=interp,
            )
        doublings = max(1, ceil(0.5 * log2(interp / _TABLE_INTERP_TOL)))
        cells = min(cells * 2**doublings, _TABLE_MAX_CELLS)
        del cdf  # freed before the finer table is allocated
    np.clip(cdf, 0.0, 1.0, out=cdf)
    np.maximum.accumulate(cdf, out=cdf)
    x = np.arange(cells + 1, dtype=float)
    x *= (hi - lo) / cells
    x += lo
    return CdfTable(x=x, cdf=cdf, ks_bound=float(interp) + tol)


def series_cdf(series, x):
    """CDF of sum_j nu_j (Z_j^2 - 1) at x by Gil-Pelaez inversion.

    F(x) = 1/2 - (1/pi) int_0^inf Im[phi(u) e^(-iux)] / u du with the closed
    form phi(u) = prod_j (1 - 2i nu_j u)^(-1/2) e^(-i nu_j u) (Imhof 1961;
    Davies 1980), by the midpoint rule at u_k = (k + 1/2) du. Its aliasing
    error at x is the mass beyond x +- 2 pi/du, so du comes from Chernoff
    points a_lo, a_hi that each leave tol/4 outside, and x is clipped into
    [a_lo, a_hi]. The rule stops at the first power-of-two node count K
    whose remainder int_U^inf |phi|/u du <= |phi(U)|/s(U), U = K du and
    s = -dlog|phi|/dlog u (growing in u), is below tol/2; AccuracyError if
    that needs over 2^20 nodes, as for one- or two-term series. tol is
    _CDF_TOL, and the rule is the series' inversion_rule, computed once per
    series.

    The sum F(x) = 1/2 - sum_k weight_k sin(phase_k - u_k x) takes no sine
    per node (_midpoint_sum).
    """
    x = np.asarray(x, dtype=float)
    lo, hi, u, weight, phase = series.inversion_rule
    flat = np.clip(x, lo, hi).ravel()
    return np.clip(0.5 - _midpoint_sum(u, weight, phase, flat), 0.0, 1.0).reshape(x.shape)


def _midpoint_sum(u, weight, phase, x):
    """sum_k weight_k sin(phase_k - u_k x) at each x of a 1-d array, for the
    nodes u_k = (k + 1/2) du of _inversion_terms.

    With B = min(_BABY_STEPS, K) for K nodes (both powers of two) and
    k = l B + j, e^(-i u_k x) = z^j e^(-i (l B + 1/2) du x), z = e^(-i du x).
    So the sum is Im sum_l e^(-i (l B + 1/2) du x) P_l(z), where
    P_l(z) = sum_j c_(lB+j) z^j and c_k = weight_k e^(i phase_k). Each P_l
    is summed by Horner in B - 1 passes over every (l, x) at once, and each
    giant step takes one direct cosine and sine per (l, x), so the rounding
    stays at a few eps per term. The points go 2^20 / K at a time, so the
    working arrays hold about 2^20 / B values whatever K.
    """
    nodes = u.size
    du = 2.0 * u[0]  # u_0 = du / 2 exactly
    baby = min(_BABY_STEPS, nodes)
    # column j holds c_(lB+j) for every l
    columns = np.ascontiguousarray((weight * np.exp(1j * phase)).reshape(-1, baby).T)[:, :, None]
    giant = (np.arange(nodes // baby) * baby + 0.5) * du
    out = np.empty(x.size)
    step = max(1, 2**20 // nodes)
    for i in range(0, x.size, step):
        xs = x[i : i + step]
        z = np.exp(-1j * (du * xs))
        acc = np.empty((giant.size, xs.size), dtype=complex)
        acc[:] = columns[-1]
        for column in columns[-2::-1]:
            acc *= z
            acc += column
        turn = np.multiply.outer(giant, xs)
        out[i : i + step] = (acc.imag * np.cos(turn) - acc.real * np.sin(turn)).sum(axis=0)
    return out


def cumulant(series, p):
    """p-th cumulant 2^(p-1) (p-1)! sum_j nu_j^p of the series law."""
    p = int(p)
    if p < 2:
        raise ParameterError(f"cumulant order must be >= 2, got {p}")
    nu = np.asarray(series.eigenvalues)
    return float(2.0 ** (p - 1) * factorial(p - 1) * np.sum(nu**p))


def variance_oracle(window, alpha):
    """Limit variance: twice the double window integral of |u-v|^(-2 alpha).

    Independent of the Nystrom construction. That is 2 |W|^2 E|X-Y|^(-beta)
    for X, Y independent uniform on W and beta = 2 alpha. A ball of radius R
    in d dimensions, and a 1-d interval through the ball of its half-length
    (_ball_radius), has it in closed form: with s = (d - beta)/2 and
    a = (d + 1)/2, integrating the incomplete-beta distance pdf by parts,
    E|X-Y|^(-beta) = R^(-beta) d 2^(d-1-beta) B(s + 1/2, a) / (s B(1/2, a)).
    In d=1 the oracle is 4 L^(2-beta) / ((1 - beta)(2 - beta)), L = 2R.

    A d=2 rectangle of sides a and b goes through its lag z = u - v, whose
    overlap area is (a - |z1|)(b - |z2|): the oracle is 8 int_0^(pi/2) F(phi)
    dphi over the first quadrant in polar coordinates (_rectangle_oracle),
    with F the radial integral in closed form. Rectangles in d >= 3 have no
    oracle here and are refused with UnsupportedModelError (build_kernel
    takes d in (1, 2) only). Diverges (and raises IntegrabilityError) once
    alpha >= d/2, d the window's dimension.
    """
    d = window.dimension
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if alpha >= 0.5 * d:
        raise IntegrabilityError(
            f"limit variance diverges for alpha >= d/2 (got alpha={alpha}, d={d})"
        )
    beta = 2.0 * alpha
    radius = _ball_radius(window)
    if radius is None:
        if d == 2:
            return _rectangle_oracle(window, beta)
        raise UnsupportedModelError(f"no variance oracle for a rectangle in d={d}; only d <= 2")
    s, a = 0.5 * (d - beta), 0.5 * (d + 1.0)
    # B(s + 1/2, a) / B(1/2, a) through log-gamma
    ratio = exp(lgamma(s + 0.5) + lgamma(a + 0.5) - lgamma(s + 0.5 + a) - lgamma(0.5))
    moment = radius ** (-beta) * d * 2.0 ** (d - 1.0 - beta) * ratio / s
    return 2.0 * volume(ball(d, radius)) ** 2 * moment


def _rectangle_oracle(window, beta):
    """2 int int |u-v|^(-beta) over a d=2 rectangle, as 8 int_0^(pi/2) F.

    F(phi) = int_0^R (a - p cos phi)(b - p sin phi) p^(1-beta) dp with
    R(phi) = min(a / cos phi, b / sin phi), the ray's exit from the lag
    quadrant [0, a] x [0, b]. Term by term,
    F = ab R^(2-beta)/(2-beta) - (a sin + b cos) R^(3-beta)/(3-beta)
      + cos sin R^(4-beta)/(4-beta),
    smooth in phi on each side of the corner atan(b/a), where R switches
    branch, so quad splits there. scipy.integrate is imported here, on the
    first rectangle, not with the module.
    """
    from scipy.integrate import quad

    a, b = (hi - lo for lo, hi in zip(window.lower, window.upper))

    def radial(phi, reach):
        c, s = cos(phi), sin(phi)
        return (
            a * b * reach ** (2.0 - beta) / (2.0 - beta)
            - (a * s + b * c) * reach ** (3.0 - beta) / (3.0 - beta)
            + c * s * reach ** (4.0 - beta) / (4.0 - beta)
        )

    corner = atan2(b, a)
    tol = {"epsabs": 0.0, "epsrel": 1e-13}
    along_a, _ = quad(lambda phi: radial(phi, a / cos(phi)), 0.0, corner, **tol)
    along_b, _ = quad(lambda phi: radial(phi, b / sin(phi)), corner, 0.5 * pi, **tol)
    return 8.0 * (along_a + along_b)


def series_record(series):
    """The series' fields with its variance 2 sum nu^2 and its third
    cumulant kappa3 = 8 sum nu^3: what series_to_json writes."""
    return {**asdict(series), "variance": series.variance, "kappa3": cumulant(series, 3)}


def series_to_json(series):
    return json.dumps(series_record(series))


def _finite(value):
    return type(value) in (int, float) and abs(value) <= np.finfo(float).max


def series_from_json(text):
    """The EigenSeries of a series_to_json document. ParameterError, before
    any CDF is built, unless eigenvalues is a nonempty list of finite
    numbers, every other field a finite number, tail_terms a whole number
    at least 1, leading_terms one at least 0, and leading_terms + tail_terms
    the length of the list. Each field is read by its name. variance and
    kappa3 are read again from the eigenvalues, not from the document."""
    obj = check_json_object(text, "series document")
    missing = [f.name for f in fields(EigenSeries) if f.name not in obj]
    if missing:
        raise ParameterError(f"series document missing {missing}")
    nu = obj["eigenvalues"]
    if not (isinstance(nu, list) and nu and all(map(_finite, nu))):
        raise ParameterError("series eigenvalues must be a nonempty list of finite numbers")
    floats = ("tail_value", "tail_variance", "tail_kappa3", "weyl_ratio", "leading_share")
    bad = [k for k in ("leading_terms", "tail_terms", *floats) if not _finite(obj[k])]
    if bad:
        raise ParameterError(f"series {', '.join(bad)} must be finite numbers")
    leading, count = obj["leading_terms"], obj["tail_terms"]
    if not (type(count) is int and count >= 1):
        raise ParameterError(f"series tail_terms {count!r} must be a whole number >= 1")
    if not (type(leading) is int and leading >= 0 and leading + count == len(nu)):
        raise ParameterError(
            f"series of {len(nu)} eigenvalues is not leading_terms {leading!r} + "
            f"tail_terms {count}"
        )
    return EigenSeries(
        eigenvalues=tuple(map(float, nu)), leading_terms=leading, tail_terms=count,
        **{k: float(obj[k]) for k in floats},
    )
