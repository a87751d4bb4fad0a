"""Lattice simulation of long-memory Gaussian fields and their functionals.

The field is generated by circulant (d=1) or block-circulant (d=2)
embedding: the covariance of an n-point lattice is wrapped onto a torus of
side m, the embedding eigenvalues come from an FFT, and one complex
standard-normal draw per torus site yields two independent real fields, its
real and imaginary parts, whose lattice covariance is exact at every lag up
to n-1 up to the clamped eigenvalue mass. The embedding is exact once
m >= 2(n-1) and its spectrum is nonnegative (Wood & Chan, JCGS 1994;
Dietrich & Newsam, SIAM J. Sci. Comput. 1997). The torus is not a
setting: embedding(plan) starts at the minimal exact torus, padding 2, and
doubles the padding only while the spectrum dips below -CLAMP_TOL of its
peak, a tolerance fixed per dimension, up to a padding cap and a site
budget. Long-memory d=1 covariances on short lattices need the larger tori.

Functionals of the field are midpoint Riemann sums over the lattice cells
whose centers fall in the scaled window. One function, _window_mask,
decides which cells those are, from the window's box (geometry.bounds) and,
for the disc, its radius; functional_integral, lattice_window_volume and
window_integrals all read their sites from it. The integrand is non-smooth
in x, so higher-order quadrature would buy nothing; discretization error is
dominated by Monte Carlo variance at the replicate counts used here.

Every lattice of step h has its cells centred at (k + 1/2) h, an even
number of them per axis, symmetric about the origin (SimulationPlan), so
the lattices of one step nest and a window's sites depend on its scale and
h alone, not on the extent of the lattice they are read off. Every scale of
a table reads its window off one set of fields. They are drawn once, on
the lattice laid out for the largest scale, and the embedding is exact on
the whole of it, so window_integrals sums each scale's window (_window_mask
of that lattice) on the same fields. The scales then see common random
numbers (Glasserman & Yao, Management Science 1992): each scale's sums keep
their law, but sums at different scales are correlated.

window_integrals draws its fields in blocks of a fixed number of pairs,
set by the plan's torus alone, and block k reads its own generator, which
the caller keys by k (replicate_generator with the block index as the last
key; L'Ecuyer, Munger, Oreshkin & Simard, Math. Comput. Simul. 2017).
replicate_generator makes every generator of the package, simulate_field's
default and rosenblatt.sample's included.
_in_order runs the blocks on a standard thread pool of one worker per
available core, capped at the number of blocks: draw, transform, gather, G
and sums, each into its own slice of the result. The generator fills the
float view of a complex block, so the real and imaginary parts of a torus
site are consecutive normals of the stream. No block reads another's
stream or writes another's sums, so the output does not depend on the
worker count or on which worker runs which block. The embedding is
resolved on the calling thread before any worker starts, so the spectrum
and covariance evaluations, the layers a tracer or profiler that keeps one
call stack per process wraps, only ever run there.
"""

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce

import numpy as np
# numpy loads these on first attribute access; load them with the module so
# that the first field draw does not pay for it
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .covmodels import CovarianceModel, covariance_eval
from .errors import (
    CoverageError,
    EmbeddingError,
    ParameterError,
    RankError,
    check_seed,
)
from .geometry import bounds

__all__ = [
    "SimulationPlan",
    "Embedding",
    "GridField",
    "circulant_spectrum",
    "embedding",
    "simulate_field",
    "simulate_pairs",
    "window_integrals",
    "WindowSums",
    "window_extent",
    "clear_spectrum_cache",
    "replicate_generator",
    "functional_integral",
    "normalized_statistic",
    "export_field",
    "CLAMP_TOL",
]

MAX_PADDING = 64
# the most negative embedding eigenvalue, relative to the peak, that is
# clamped to zero instead of escalating: block-circulant d=2 embeddings of
# long-memory covariances keep a small negative floor that no padding removes
CLAMP_TOL = {1: 1e-8, 2: 1e-7}
_AXIS_BUDGET = 2**22
# padding escalation refuses tori above this many sites (2^24 complex
# sites take 256 MB per draw)
_TORUS_BUDGET = 2**24
# torus sites per block of window_integrals, and so per generator stream;
# larger blocks raise the peak memory without running faster
_BLOCK_SITES = 2**18


@dataclass(frozen=True)
class SimulationPlan:
    """Lattice plan: covariance model, dimension, step h, half-width extent.

    model is a CovarianceModel of the plan's dimension; anything else is a
    ParameterError. The lattice has n = 2 ceil(extent / h) cells per axis,
    the fewest in an even count that cover [-extent, extent], centred at
    (k + 1/2) h for k = -n/2 ... n/2 - 1, so the origin sits on a cell
    boundary and a site's place depends on h alone; when h does not divide
    extent the outer cells reach past +-extent. origin is the centre of the
    first cell on every axis. The torus the fields are drawn on is not part
    of the plan: embedding(plan) chooses it. seed must be a nonnegative
    integer. Plans that differ in seed alone compare equal: they share one
    lattice, and so one embedding.
    """

    model: object
    dimension: int
    h: float
    extent: float
    seed: int = dataclass_field(compare=False)

    def __post_init__(self):
        check_seed(self.seed)
        if self.dimension not in (1, 2):
            raise ParameterError(
                f"simulation supports d in (1, 2), got {self.dimension}"
            )
        if not isinstance(self.model, CovarianceModel):
            raise ParameterError(
                f"model must be a CovarianceModel, got {type(self.model).__name__}"
            )
        if self.model.dimension != self.dimension:
            raise ParameterError(
                f"model dimension {self.model.dimension} does not match the "
                f"plan's d={self.dimension}"
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

    @property
    def n_per_axis(self):
        # the tolerance keeps a quotient rounded just above a whole number
        # from adding a cell
        return 2 * math.ceil(self.extent / self.h - 1e-9)

    @property
    def origin(self):
        # h/2 - (n/2) h, not h (1 - n) / 2: the latter rounds the last cell
        # edge of extent 1.5 at h = 0.3 below 1.5
        return 0.5 * self.h - self.n_per_axis // 2 * self.h


@dataclass(frozen=True)
class GridField:
    """Simulated lattice values with the cell-center coordinate convention.

    coordinate(i) = origin + i * h along each axis; a simulated field's
    origin is its plan's.
    """

    values: np.ndarray
    h: float
    origin: float

    def coordinates(self):
        n = self.values.shape[0]
        return self.origin + self.h * np.arange(n)


def _torus_size(n, padding):
    # the smallest power of two at least padding * n
    return 1 << (padding * n - 1).bit_length()


def _spectrum_once(plan, padding):
    m = _torus_size(plan.n_per_axis, padding)
    k = np.arange(m)
    lag = plan.h * np.minimum(k, m - k)
    if plan.dimension == 1:
        return np.fft.fft(covariance_eval(plan.model, lag)).real
    dist = np.sqrt(lag[:, None] ** 2 + lag[None, :] ** 2)
    return np.fft.fft2(covariance_eval(plan.model, dist)).real


def circulant_spectrum(plan, padding):
    """Eigenvalues of plan's lattice embedded on the torus of padding,
    clamped at -CLAMP_TOL of the peak.

    The torus side m is the smallest power of two at least padding * n;
    padding 2 gives the minimal exact embedding, m >= 2(n-1). The tolerance
    is CLAMP_TOL of the plan's dimension: 1e-8 in d=1, and 1e-7 in d=2,
    where the block-circulant embeddings of long-memory models keep a
    negative floor of -3e-8 of the peak or lower that no padding removes. A
    more negative minimum is an EmbeddingError: the torus is too small for
    this covariance, and embedding(plan) tries the next padding. Each
    clamped eigenvalue is at least -tol * peak, so the relative variance the
    clamp adds, Sum|lam < 0| / Sum lam, is at most tol * peak * m^d / Sum lam
    on the m^d-site torus. That can be far above the tolerance itself:
    Cauchy theta=0.2 at h=0.25 on a 4096-site torus has share 1.2e-7
    against 1e-8. embedding(plan).clamped_share reports the actual share.
    """
    lam = _spectrum_once(plan, padding)
    tol = CLAMP_TOL[plan.dimension]
    peak = float(lam.max())
    low = float(lam.min())
    if low < -tol * peak:
        raise EmbeddingError(
            f"embedding spectrum min {low:.3e} below -{tol:.0e} * max {peak:.3e} "
            f"at padding {padding}"
        )
    return np.maximum(lam, 0.0)


def _max_padding(plan):
    # the wrap kink leaves a floor that shrinks like (extent * padding)^-2,
    # so small windows need large pads; d=1 FFTs are cheap enough to allow
    # that, d=2 cost grows quadratically with the pad
    if plan.dimension == 1:
        return max(MAX_PADDING, min(4096, _AXIS_BUDGET // plan.n_per_axis))
    return MAX_PADDING


@dataclass(frozen=True)
class Embedding:
    """The torus embedding a plan's fields are drawn from.

    n_per_axis lattice points sit on a torus of side torus_side, the
    smallest power of two at least padding * n_per_axis, where padding is
    the one the escalation accepted. clamped_share is Sum|lam < 0| / Sum lam,
    the relative variance the clamp adds at every site; it is computed as
    Sum max(lam, 0) / (m^d B(0)) - 1, the trace m^d B(0) being Sum lam, so it
    carries rounding of order 1e-16 and reads 0 below that.
    """

    n_per_axis: int
    torus_side: int
    padding: int
    clamped_share: float


# Plans equal up to the seed share one entry: embedding() is read once per
# table row, and simulate_pairs loops draw many blocks from one plan.
@lru_cache(maxsize=32)
def _embedding_and_scale(plan):
    """(Embedding, noise scale) of plan's lattice and model.

    The escalation starts at padding 2, the minimal exact torus, and doubles
    the padding while circulant_spectrum refuses the spectrum, up to
    _max_padding; a padding whose torus exceeds _TORUS_BUDGET sites is
    refused before its spectrum is allocated. The noise scale is
    sqrt(lam m^d) of the clamped spectrum lam on the m^d-site torus, each
    value repeated twice along the last axis: the factor of a complex
    draw's float view, real and imaginary parts interleaved.
    """
    padding = 2
    while True:
        sites = _torus_size(plan.n_per_axis, padding) ** plan.dimension
        if sites > _TORUS_BUDGET:
            raise EmbeddingError(
                f"padding {padding} needs a torus of {sites} sites, over the 2^24 "
                f"budget; coarsen h or shrink the extent"
            )
        try:
            lam = circulant_spectrum(plan, padding)
            break
        except EmbeddingError:
            padding *= 2
            if padding > _max_padding(plan):
                raise
    m = lam.shape[0]
    trace = m**plan.dimension * float(covariance_eval(plan.model, 0.0))
    emb = Embedding(
        n_per_axis=plan.n_per_axis,
        torus_side=m,
        padding=padding,
        clamped_share=max(0.0, float(np.sum(lam)) / trace - 1.0),
    )
    # the inverse FFT divides by m^d; scaling the noise by sqrt(m^d) up front
    # leaves a field of covariance B, and the repeat lays each factor over the
    # real and the imaginary part of its site
    return emb, np.repeat(np.sqrt(lam) * math.sqrt(lam.size), 2, axis=-1)


clear_spectrum_cache = _embedding_and_scale.cache_clear


def embedding(plan):
    """The admissible embedding of plan: the one simulate_pairs draws from.

    The escalation runs once per lattice and model; later calls and every
    draw reuse its cached result.
    """
    return _embedding_and_scale(plan)[0]


def _draw_fields(plan, scale, rng, z):
    """Draw the lattice fields of one block into z and transform them there.

    z is a complex (pairs, *torus) array. rng fills its float view, so the
    real and imaginary parts of each torus site are consecutive normals,
    site after site in C order; scale (_embedding_and_scale) shapes that
    noise in place, and the inverse FFTs run in place. Returns the (pairs, n) or
    (pairs, n, n) lattice corner of z.
    """
    noise = z.view(np.float64)
    rng.standard_normal(out=noise)
    noise *= scale
    n = plan.n_per_axis
    if plan.dimension == 1:
        return np.fft.ifft(z, out=z)[:, :n]
    # ifft2 transforms the last axis and then the first; only the first n
    # columns reach the lattice, so the second pass skips the rest
    np.fft.ifft(z, axis=-1, out=z)
    columns = z[..., :n]
    return np.fft.ifft(columns, axis=-2, out=columns)[:, :n]


def simulate_pairs(plan, rng, pairs):
    """Independent lattice fields, two per complex circulant draw.

    Fills a complex (pairs, *torus) array with standard normals from rng,
    real and imaginary parts interleaved site by site (_draw_fields), and
    transforms it with one batched inverse FFT. The result has shape
    (pairs, n) or (pairs, n, n), and its real and imaginary parts are
    independent fields with covariance B (Wood & Chan, JCGS 1994; Dietrich
    & Newsam, SIAM J. Sci. Comput. 1997). The generator is read in order,
    so k calls of one pair give the same fields as one call of k pairs.
    Block k of window_integrals is this function's draw of that block's
    pairs from that block's generator.
    """
    emb, scale = _embedding_and_scale(plan)
    z = np.empty((pairs,) + (emb.torus_side,) * plan.dimension, dtype=complex)
    return _draw_fields(plan, scale, rng, z).copy()


def simulate_field(plan, rng=None):
    """One zero-mean Gaussian lattice field with covariance B at all lags.

    The field is the real half of a one-pair simulate_pairs draw, by
    default from replicate_generator(plan.seed). Identical (plan, seed)
    gives a bit-identical field. Supplying rng overrides the plan seed.
    """
    if rng is None:
        rng = replicate_generator(plan.seed)
    vals = simulate_pairs(plan, rng, 1)[0].real.copy()
    return GridField(values=vals, h=plan.h, origin=plan.origin)


def window_extent(window, r):
    """Half-width of the lattice laid out for window at scale r.

    It is the largest coordinate magnitude of the box of rW (geometry.bounds),
    so the lattice of that extent, which covers [-extent, extent] on every
    axis, holds rW and the window of every smaller scale.
    """
    return max(max(-low, high) for low, high in bounds(window, r))


def _window_mask(origin, n, h, window, r):
    """Which cells of a lattice have their centres in the window at scale r.

    The lattice has n cells of step h per axis, the first centred at origin
    on every axis. CoverageError unless the cells cover the box of rW
    (geometry.bounds) to within 1e-9 of a cell, the slack of
    SimulationPlan.n_per_axis, so a window is never refused on the lattice
    laid out for it when rounding puts its last cell edge an ulp inside the
    window's edge. The mask is the per-axis interval tests of that box,
    except on the d=2 disc, which tests x^2 + y^2 <= (Rr)^2; in d=1 the ball
    is its box.
    """
    box = bounds(window, r)
    lo = origin - 0.5 * h
    hi = origin + (n - 0.5) * h
    slack = 1e-9 * h
    if not all(lo - slack <= low and hi + slack >= high for low, high in box):
        raise CoverageError(
            f"scaled window at r={r} exceeds the simulated extent [{lo:.3g}, {hi:.3g}]"
        )
    xs = origin + h * np.arange(n)
    if window.shape == "ball" and window.dimension == 2:
        square = xs**2
        return np.add.outer(square, square) <= box[0][1] ** 2
    return reduce(np.logical_and.outer, [(xs >= low) & (xs <= high) for low, high in box])


def _window_picks(plan, window, radii):
    """Where each radius's window sits among the sites the draw reads.

    Each window is _window_mask of plan's lattice at its radius. Returns
    (union, picks, counts): union holds the flat indices, in C order, of
    every site some window covers. Those are the largest window's sites:
    the scaled windows rW of a convex W with the origin inside are nested,
    and so are their masks, since a float product is monotone in r. Each
    pick selects one window's sites from the union's, a slice where they
    are contiguous there (every d=1 window), else an index array. Either
    way the sites come in C order, the order functional_integral sums them
    in. counts holds each window's number of sites. A window that holds no
    site is a ParameterError.
    """
    placed = [
        np.flatnonzero(_window_mask(plan.origin, plan.n_per_axis, plan.h, window, r))
        for r in radii
    ]
    for r, sites in zip(radii, placed):
        if sites.size == 0:
            raise ParameterError(f"the window at r={r} holds no lattice site at h={plan.h}")
    union = placed[int(np.argmax(radii))]
    picks = []
    for sites in placed:
        at = np.searchsorted(union, sites)
        contiguous = at[-1] - at[0] + 1 == at.size
        picks.append(slice(at[0], at[-1] + 1) if contiguous else at)
    return union, picks, [sites.size for sites in placed]


@dataclass(frozen=True)
class WindowSums:
    """What window_integrals returns.

    sums has shape (len(radii), count), and sites holds each radius's
    number of window sites; times h^d it is the window's lattice volume.
    The fields were drawn in `streams` blocks of pairs_per_stream pairs (the
    last may hold fewer), block k from its own generator, and `workers`
    threads ran the blocks.
    """

    sums: np.ndarray
    sites: tuple
    pairs_per_stream: int
    streams: int
    workers: int


def _available_cores():
    return len(os.sched_getaffinity(0))


def _in_order(task, tasks):
    """Yield task(k) for k in range(tasks), in order of k.

    The calls run on a pool of min(_available_cores(), tasks) threads, and
    at most two calls per worker are submitted ahead of the one the caller
    waits for. When a call raises, or the generator is closed, the calls
    not yet started are cancelled; the pool is shut down, after the calls
    already running are done, before the generator returns or raises.
    """
    workers = min(_available_cores(), tasks)
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="rosenlab-worker")
    try:
        ahead = deque()
        for k in range(tasks):
            ahead.append(pool.submit(task, k))
            if len(ahead) > 2 * workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def window_integrals(plan, G, window, radii, count, stream):
    """Midpoint sums of G over the window at each radius, on count fields
    drawn once.

    The fields are drawn on plan's lattice, and every radius reads its
    window off the same fields: the rows of the result share their
    replicates (common random numbers). Radius r sums over the sites of
    _window_mask of plan's lattice at r, so each radius has its own
    coverage check.

    The fields are both halves of ceil(count / 2) pairs, real before
    imaginary; an odd count drops the last imaginary half. The pairs come
    in blocks of b = max(1, _BLOCK_SITES // m^d) pairs on the plan's
    m^d-site torus, so b depends on the plan alone. stream(k) returns the
    generator of block k, and block k is exactly simulate_pairs(plan,
    stream(k), b) (the last block may be shorter): each block reads its own
    generator from its start, and only as far as its own pairs. Each block
    gathers the union of the windows (_window_picks) once, by a slice where
    the union is one run of sites (every d=1 window), and evaluates G
    once on it, for the real and imaginary halves together; each radius
    then reads its sites off those values and sums them with one reduction
    along C-contiguous rows, which adds each field's values pairwise in the
    order a 1-d np.sum of that field's window does. So each sum equals
    functional_integral of its field.

    The blocks run on one pool of one worker per available core, capped at
    the number of blocks (_in_order); numpy releases the GIL in the draws,
    FFTs, gathers and sums. A block writes only its own columns of the
    result, so the sums do not depend on the worker count or on which
    worker runs which block. The embedding is resolved on the calling
    thread before the pool starts, so covariance_eval and
    circulant_spectrum never run on a worker; stream and G do. The pool is
    shut down before the call returns or raises. Each worker allocates one
    complex block of b pairs on its first block, keeps it in a
    threading.local for the whole call and runs the FFTs in place
    (4 MB at the default _BLOCK_SITES, more when a single pair's torus
    exceeds it); per block it allocates only lattice-sized arrays, the
    gathered window values and in d=2 a copy of the lattice corner: at most
    a half (d=1) or a quarter (d=2) of the block's torus sites each.

    Returns a WindowSums.
    """
    if window.dimension != plan.dimension:
        raise ParameterError(
            f"window dimension {window.dimension} does not match plan dimension "
            f"{plan.dimension}"
        )
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    union, picks, counts = _window_picks(plan, window, radii)
    # every d=1 union is one run of sites, gathered by a slice
    span = slice(union[0], union[-1] + 1) if union[-1] - union[0] + 1 == union.size else None
    cell = plan.h**plan.dimension
    pairs = (count + 1) // 2
    emb, scale = _embedding_and_scale(plan)
    torus = (emb.torus_side,) * plan.dimension
    block = max(1, _BLOCK_SITES // emb.torus_side**plan.dimension)
    streams = -(-pairs // block)
    workers = min(_available_cores(), streams)
    sums = np.empty((len(picks), 2 * pairs))
    own = threading.local()

    def run(k):
        if not hasattr(own, "z"):
            own.z = np.empty((min(block, pairs),) + torus, dtype=complex)
        start = k * block
        fields = _draw_fields(plan, scale, stream(k), own.z[: min(block, pairs - start)])
        # a slice or np.take along axis 1 gives rows that are contiguous; a
        # boolean gather here would not, and a reduction over its rows would
        # not add them pairwise
        flat = fields.reshape(len(fields), -1)
        w = flat[:, span] if span is not None else np.take(flat, union, axis=1)
        values = G(np.stack((w.real, w.imag), axis=1).reshape(2 * len(w), -1))
        for row, pick in zip(sums, picks):
            part = values[:, pick] if isinstance(pick, slice) else np.take(values, pick, axis=1)
            np.add.reduce(part, axis=1, out=row[2 * start : 2 * start + len(values)])

    for _ in _in_order(run, streams):
        pass
    return WindowSums(sums[:, :count] * cell, tuple(counts), block, streams, workers)


def replicate_generator(master_seed, *keys):
    """Independent generator for one stream: SeedSequence(master_seed,
    spawn_key=keys).

    keys are integers in [0, 2^32), such as a tag that tells the streams of
    one experiment apart and a block index; any other key is refused with
    ParameterError before seeding, since SeedSequence would split a larger
    one into 32-bit words and so name another key list's stream. SeedSequence pads the seed with zero words up to its pool size
    and appends the spawn key after that, so two key lists name different
    streams even where one is the other with zeros appended. With no keys
    the stream is that of default_rng(master_seed).
    """
    keys = tuple(int(k) for k in keys)
    bad = [k for k in keys if not 0 <= k < 2**32]
    if bad:
        raise ParameterError(f"stream keys must lie in [0, 2^32), got {bad[0]}")
    return np.random.default_rng(np.random.SeedSequence(check_seed(master_seed), spawn_key=keys))


def functional_integral(field, G, window, r):
    """Midpoint Riemann sum of G(field) over the scaled window."""
    if window.dimension != field.values.ndim:
        raise ParameterError(
            f"window dimension {window.dimension} does not match field dimension "
            f"{field.values.ndim}"
        )
    mask = _window_mask(field.origin, field.values.shape[0], field.h, window, r)
    return float(np.sum(G(field.values[mask])) * field.h**window.dimension)


def lattice_window_volume(field, window, r):
    """Riemann volume of the window on this lattice (cell count times h^d)."""
    mask = _window_mask(field.origin, field.values.shape[0], field.h, window, r)
    return float(np.count_nonzero(mask) * field.h**window.dimension)


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


def export_field(field, path):
    """Values, h and origin in numpy's .npz format, written to path as given."""
    with open(path, "wb") as fh:
        np.savez(fh, values=field.values, h=field.h, origin=field.origin)
