"""Lattice simulation of long-memory Gaussian fields and their functionals.

The field is generated by circulant (d=1) or block-circulant (d=2)
embedding: the covariance is wrapped onto a torus at least `padding` times
the requested extent, the embedding eigenvalues come from an FFT, and one
complex standard-normal draw per torus site yields two independent real
fields, its real and imaginary parts, whose lattice covariance is exact up
to the clamped eigenvalue mass. Long-memory covariances embed poorly on
small tori, so the driver escalates the padding until the spectrum is
admissible or the torus would exceed a fixed site budget.

Functionals of the field are midpoint Riemann sums over the lattice cells
whose centers fall in the scaled window. The integrand is non-smooth in x,
so higher-order quadrature would buy nothing; discretization error is
dominated by Monte Carlo variance at the replicate counts used here.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .covmodels import covariance_eval
from .errors import (
    CoverageError,
    EmbeddingError,
    ParameterError,
    RankError,
)

__all__ = [
    "SimulationPlan",
    "GridField",
    "circulant_spectrum",
    "simulate_field",
    "simulate_pairs",
    "window_integrals",
    "clear_spectrum_cache",
    "replicate_generator",
    "functional_integral",
    "normalized_statistic",
    "reduction_check",
    "export_field",
    "import_field",
    "DEFAULT_PADDING",
    "CLAMP_TOL",
]

DEFAULT_PADDING = 4
MAX_PADDING = 64
CLAMP_TOL = 1e-8  # relative to the max eigenvalue
_AXIS_BUDGET = 2**22
# padding escalation refuses tori above this many sites (2^24 complex
# sites take 256 MB per draw)
_TORUS_BUDGET = 2**24
# torus sites per block of window_integrals; larger blocks raise the peak
# memory without running faster
_BLOCK_SITES = 2**18


@dataclass(frozen=True)
class SimulationPlan:
    """Lattice plan: covariance model, dimension, step h, half-width extent.

    model is a CovarianceModel or any callable r -> B(r). The lattice has
    n = round(2 extent / h) cells per axis with centers at
    -extent + (i + 1/2) h, so the origin sits on a cell boundary and the
    lattice is symmetric. padding multiplies the extent before wrapping the
    covariance onto the torus.
    """

    model: object
    dimension: int
    h: float
    extent: float
    seed: int
    padding: int = DEFAULT_PADDING
    clamp_tol: float = CLAMP_TOL

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ParameterError(
                f"simulation supports d in (1, 2), got {self.dimension}"
            )
        if not self.h > 0.0 or not self.extent > 0.0:
            raise ParameterError("h and extent must be positive")
        n = self.n_per_axis
        if n < 2:
            raise ParameterError(f"extent {self.extent} too small for step {self.h}")
        if n > _AXIS_BUDGET:
            raise ParameterError(
                f"{n} lattice points per axis exceeds the 2^22 budget"
            )
        if self.padding < 1:
            raise ParameterError(f"padding must be >= 1, got {self.padding}")
        # block-circulant d=2 embeddings of long-memory covariances keep a
        # small negative floor no padding removes; relaxing must be explicit
        if not (0.0 < self.clamp_tol <= 1e-6):
            raise ParameterError(
                f"clamp_tol must lie in (0, 1e-6], got {self.clamp_tol}"
            )

    @property
    def n_per_axis(self):
        return int(round(2.0 * self.extent / self.h))


@dataclass(frozen=True)
class GridField:
    """Simulated lattice values with the cell-center coordinate convention.

    coordinate(i) = origin + i * h along each axis, origin = -extent + h/2.
    """

    values: np.ndarray
    h: float
    origin: float

    def coordinates(self):
        n = self.values.shape[0]
        return self.origin + self.h * np.arange(n)


def _cov_at(model, dist):
    if callable(model) and not hasattr(model, "family"):
        return np.asarray(model(dist), dtype=float)
    return covariance_eval(model, dist)


def _torus_size(n, padding):
    m = 1
    while m < n * padding:
        m *= 2
    return m


def _spectrum_once(plan):
    n = plan.n_per_axis
    m = _torus_size(n, plan.padding)
    if plan.dimension == 1:
        k = np.arange(m)
        lag = plan.h * np.minimum(k, m - k)
        lam = np.fft.fft(_cov_at(plan.model, lag)).real
    else:
        k = np.arange(m)
        wrap = plan.h * np.minimum(k, m - k)
        dist = np.sqrt(wrap[:, None] ** 2 + wrap[None, :] ** 2)
        lam = np.fft.fft2(_cov_at(plan.model, dist)).real
    return lam


def circulant_spectrum(plan):
    """Eigenvalues of the torus embedding, clamped at -clamp_tol of the peak.

    The default tolerance is 1e-8. A more negative minimum means the torus
    is too small for this covariance; the caller should enlarge the padding
    (simulate_field does this automatically). d=2 long-memory models bottom
    out near -3e-8 of the peak regardless of padding; plans for them must
    opt in to a looser clamp_tol, which perturbs the variance by at most
    that relative amount.
    """
    lam = _spectrum_once(plan)
    peak = float(lam.max())
    low = float(lam.min())
    if low < -plan.clamp_tol * peak:
        raise EmbeddingError(
            f"embedding spectrum min {low:.3e} below -{plan.clamp_tol:.0e} * max "
            f"{peak:.3e}; enlarge the torus (padding {plan.padding})"
        )
    return np.maximum(lam, 0.0)


def _max_padding(plan):
    # the wrap kink leaves a floor that shrinks like (extent * padding)^-2,
    # so small windows need large pads; d=1 FFTs are cheap enough to allow
    # that, d=2 cost grows quadratically with the pad
    if plan.dimension == 1:
        return max(MAX_PADDING, min(4096, _AXIS_BUDGET // plan.n_per_axis))
    return MAX_PADDING


def _admissible_plan(plan):
    pad = plan.padding
    cap = _max_padding(plan)
    while True:
        sites = _torus_size(plan.n_per_axis, pad) ** plan.dimension
        if sites > _TORUS_BUDGET:
            raise EmbeddingError(
                f"padding {pad} needs a torus of {sites} sites, over the 2^24 "
                f"budget; coarsen h or shrink the extent"
            )
        candidate = plan if pad == plan.padding else replace(plan, padding=pad)
        try:
            return candidate, circulant_spectrum(candidate)
        except EmbeddingError:
            pad *= 2
            if pad > cap:
                raise


# Replicate drivers draw thousands of fields with one plan; the spectrum and
# the padding escalation depend only on these fields, not on the seed, so
# they are computed once per plan shape.
_ROOT_CACHE = {}
_ROOT_CACHE_MAX = 32


def _plan_key(plan):
    # the key holds the model itself: while its entry lives, a callable model
    # cannot be freed, so a new callable never inherits its spectrum by id
    return (plan.model, plan.dimension, plan.h, plan.extent, plan.padding, plan.clamp_tol)


def clear_spectrum_cache():
    _ROOT_CACHE.clear()


def _embedding_root(plan):
    """Square root of the admissible embedding spectrum, cached per plan."""
    key = _plan_key(plan)
    root = _ROOT_CACHE.get(key)
    if root is None:
        _, lam = _admissible_plan(plan)
        root = np.sqrt(lam)
        if len(_ROOT_CACHE) >= _ROOT_CACHE_MAX:
            _ROOT_CACHE.pop(next(iter(_ROOT_CACHE)))
        _ROOT_CACHE[key] = root
    return root


def simulate_pairs(plan, rng, pairs):
    """Independent lattice fields, two per complex circulant draw.

    Draws one (pairs, 2, *torus) standard-normal array: for each pair, the
    real then the imaginary parts of the torus noise. One batched inverse
    FFT then gives a complex array of shape (pairs, n) or (pairs, n, n)
    whose real and imaginary parts are independent fields with covariance B
    (Wood & Chan, JCGS 1994; Dietrich & Newsam, SIAM J. Sci. Comput. 1997).
    The generator is read in order, so k calls of one pair give the same
    fields as one call of k pairs.
    """
    root = _embedding_root(plan)
    n = plan.n_per_axis
    noise = rng.standard_normal((pairs, 2) + root.shape)
    z = np.empty((pairs,) + root.shape, dtype=complex)
    z.real = noise[:, 0]
    z.imag = noise[:, 1]
    del noise
    z *= root
    if plan.dimension == 1:
        z = np.fft.ifft(z)[:, :n]
    else:
        # ifft2 transforms the last axis and then the first; only the first
        # n columns reach the lattice, so the second pass skips the rest
        z = np.fft.ifft(z, axis=-1)[..., :n]
        z = np.fft.ifft(z, axis=-2)[:, :n]
    return z * np.sqrt(root.size)


def simulate_field(plan, rng=None):
    """One zero-mean Gaussian lattice field with covariance B at all lags.

    The field is the real half of a one-pair simulate_pairs draw. Identical
    (plan, seed) gives a bit-identical field. Supplying rng overrides the
    plan seed.
    """
    if rng is None:
        rng = np.random.default_rng(plan.seed)
    vals = simulate_pairs(plan, rng, 1)[0].real.copy()
    return GridField(values=vals, h=plan.h, origin=-plan.extent + 0.5 * plan.h)


def window_integrals(plan, G, window, r, count, rng):
    """Midpoint sums of G over the scaled window for count independent fields.

    The fields are both halves of ceil(count / 2) simulate_pairs draws,
    real before imaginary; an odd count drops the last imaginary half. The
    pairs are drawn in blocks of about _BLOCK_SITES torus sites, one
    batched FFT per block. A generator's stream does not depend on how its
    draws are split into blocks, so the sums are identical for any block
    size, and each equals functional_integral of its field. The coverage
    check, the window mask and the lattice volume are built once for all
    fields.

    Returns (sums, volume), volume being the window's lattice volume (cell
    count times h^d, as lattice_window_volume gives for one field).
    """
    if window.dimension != plan.dimension:
        raise ParameterError(
            f"window dimension {window.dimension} does not match plan dimension "
            f"{plan.dimension}"
        )
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    n = plan.n_per_axis
    # the coverage and mask helpers read only the lattice geometry
    lattice = GridField(
        values=np.broadcast_to(0.0, (n,) * plan.dimension),
        h=plan.h,
        origin=-plan.extent + 0.5 * plan.h,
    )
    _check_coverage(lattice, window, r)
    mask = _member_mask(lattice, window, r)
    cell = plan.h**plan.dimension
    pairs = (count + 1) // 2
    block = max(1, _BLOCK_SITES // _embedding_root(plan).size)
    sums = np.empty(2 * pairs)
    for start in range(0, pairs, block):
        z = simulate_pairs(plan, rng, min(block, pairs - start))[:, mask]
        rows = G(np.stack((z.real, z.imag), axis=1).reshape(2 * len(z), -1))
        # one 1-d sum per field: a batched reduction may group its additions
        # by the block's shape, which would tie the sums to the block size
        sums[2 * start : 2 * start + len(rows)] = [np.sum(row) for row in rows]
    return sums[:count] * cell, float(np.count_nonzero(mask) * cell)


def replicate_generator(master_seed, replicate_index):
    """Independent generator for one replicate: mix of master seed and index."""
    return np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(replicate_index)])
    )


def _member_mask(field, window, r):
    xs = field.coordinates()
    d = window.dimension
    if d == 1:
        x = xs
        if window.shape == "ball":
            mask = np.abs(x) <= window.radius * r
        else:
            mask = (x >= window.lower[0] * r) & (x <= window.upper[0] * r)
        return mask
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    if window.shape == "ball":
        return X**2 + Y**2 <= (window.radius * r) ** 2
    return (
        (X >= window.lower[0] * r)
        & (X <= window.upper[0] * r)
        & (Y >= window.lower[1] * r)
        & (Y <= window.upper[1] * r)
    )


def _check_coverage(field, window, r):
    n = field.values.shape[0]
    lo = field.origin - 0.5 * field.h
    hi = field.origin + (n - 0.5) * field.h
    if window.shape == "ball":
        need = window.radius * r
        covered = lo <= -need and hi >= need
    else:
        covered = all(
            lo <= a * r and hi >= b * r
            for a, b in zip(window.lower, window.upper)
        )
    if not covered:
        raise CoverageError(
            f"scaled window at r={r} exceeds the simulated extent [{lo:.3g}, {hi:.3g}]"
        )


def functional_integral(field, G, window, r):
    """Midpoint Riemann sum of G(field) over the scaled window."""
    if window.dimension != field.values.ndim:
        raise ParameterError(
            f"window dimension {window.dimension} does not match field dimension "
            f"{field.values.ndim}"
        )
    _check_coverage(field, window, r)
    mask = _member_mask(field, window, r)
    cell = field.h**window.dimension
    return float(np.sum(G(field.values[mask])) * cell)


def lattice_window_volume(field, window, r):
    """Riemann volume of the window on this lattice (cell count times h^d)."""
    _check_coverage(field, window, r)
    return float(np.count_nonzero(_member_mask(field, window, r)) * field.h**window.dimension)


def normalized_statistic(kr, c2, r, params):
    """Scale the rank-2 functional to the limit normalization.

    Returns 2 kr / (c2 r^(d - alpha) L(r)). c2 is the second Hermite
    coefficient of the functional; zero means the statistic normalizes a
    higher-rank object and is refused.
    """
    if c2 == 0.0:
        raise RankError("normalization requires a nonzero second Hermite coefficient")
    r = float(r)
    if not r > 0.0:
        raise ParameterError(f"r must be positive, got {r}")
    scale = (
        c2
        * r ** (params.dimension - params.alpha)
        * params.slowly_varying(r)
    )
    return 2.0 * float(kr) / scale


def reduction_check(fields, G, window, r, expansion, params):
    """Two-sample Kolmogorov distance between X_r of G and its rank-2 part.

    Both statistics are computed on the same replicate fields with the same
    normalization; for G = H2 the distance is zero by construction, and for
    higher functionals it shrinks as the rank-2 projection dominates.
    expansion must have rank 2.
    """
    if expansion.rank != 2:
        raise RankError(f"reduction check needs a rank-2 functional, got rank {expansion.rank}")
    c0 = expansion.coeffs[0]
    c2 = expansion.coeffs[2]
    xs = np.empty(len(fields))
    ys = np.empty(len(fields))
    for i, field in enumerate(fields):
        lat_vol = lattice_window_volume(field, window, r)
        kr = functional_integral(field, G, window, r) - c0 * lat_vol
        kr2 = 0.5 * c2 * functional_integral(
            field, lambda w: w * w - 1.0, window, r
        )
        xs[i] = normalized_statistic(kr, c2, r, params)
        ys[i] = normalized_statistic(kr2, c2, r, params)
    return ks_distance(xs, ys)


def ks_distance(sample_a, sample_b):
    """Exact two-sample Kolmogorov statistic via pooled breakpoints."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ParameterError("Kolmogorov distance needs nonempty samples")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_MAGIC = b"RLF1"


def export_field(field, path):
    """Flat little-endian binary dump: magic, d, N per axis, h, values.

    Debugging aid, not a stability-guaranteed format.
    """
    vals = np.ascontiguousarray(field.values, dtype="<f8")
    d = vals.ndim
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<i", d))
        for axis in range(d):
            fh.write(struct.pack("<i", vals.shape[axis]))
        fh.write(struct.pack("<d", field.h))
        fh.write(struct.pack("<d", field.origin))
        fh.write(vals.tobytes())


def import_field(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ParameterError(f"{path} is not a field dump")
        (d,) = struct.unpack("<i", fh.read(4))
        shape = tuple(struct.unpack("<i", fh.read(4))[0] for _ in range(d))
        (h,) = struct.unpack("<d", fh.read(8))
        (origin,) = struct.unpack("<d", fh.read(8))
        vals = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return GridField(values=vals.copy(), h=h, origin=origin)
