"""Experiment orchestration and the command line interface.

The experiments tie the package together: simulate long-memory fields,
integrate a rank-2 functional over a growing window, normalize, and
measure the Kolmogorov distance to the chi-square-series reference law.
Everything is reproducible: every r of a table reads its window off one set
of fields, drawn on the lattice of the largest r in blocks of a size set by
that lattice alone, block k from the generator stream keyed by the master
seed, a tag and k. A block depends on its own stream only, so output tables
are bit-identical for any number of worker threads and any assignment of
blocks to them, and the largest r's row is the same for every grid that
ends at that r. Each file-producing invocation writes a JSON manifest next
to its output recording every value it read, versions, and wall time. Every
value comes from its flag or its default: argv is the command line's only
input.

The reference law is the chi-square series itself: its CDF is evaluated
exactly by characteristic-function inversion, so rho carries only the
Monte Carlo error of the replicates. Monte Carlo protocol choices
(replicate counts, bootstrap resampling, seeding scheme) are this
implementation's own and are recorded in the manifest rather than taken
from any published experiment.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from platform import python_version

import numpy as np

from . import __version__, fieldsim
from .covmodels import (
    covariance_eval,
    linnik,
    local_global,
    lrd_params,
    model_from_json,
    model_to_json,
    residual_exponent_fit,
    spectral_density,
)
from .errors import ParameterError, RankError, RosenlabError, check_seed
# functional_integral is not called here; the perfbench tracer test reaches
# it through this module's namespace
from .fieldsim import (  # noqa: F401
    SimulationPlan,
    embedding,
    export_field,
    functional_integral,
    normalized_statistic,
    replicate_generator,
    simulate_field,
    window_extent,
    window_integrals,
)
from .geometry import indicator_ft, set_from_json, set_to_json
from .hermite import functional_catalog, hermite_coefficients
from .ratelab import (
    CURVE_COLUMNS,
    RateInputs,
    curve_table,
    geometric_term,
    inputs_from_model,
    kappa0_identity_check,
    kappa1,
    kappa_bound,
)
from .rosenblatt import (
    law_radius,
    limit_law,
    sample,
    series_cdf,
    series_from_json,
    series_record,
    series_to_json,
)

__all__ = [
    "ExperimentConfig",
    "RhoRow",
    "RhoTable",
    "rate_experiment",
    "main",
]

RHO_CSV_COLUMNS = ("r", "replicates", "rho", "rho_stderr", "kappa_bound")
_BOOTSTRAP_RESAMPLES = 200
# resamples per batch of _bootstrap_stderrs: all 200 at once run slower
_BOOTSTRAP_BATCH = 10
_BOOTSTRAP_TAG = 0xB007
_REPLICATE_TAG = 0xF1E1D
# values per chunk of a streamed one-column CSV. _repr_lines holds about
# 5 MB of working arrays for a chunk of 2**14 values, 20 MB for 2**16;
# _csv_text formats one chunk per worker thread at a time and holds the
# text of at most two per worker beyond the one being written, about
# 0.3 MB each for 2**14 draws
_CSV_CHUNK = 2**14
# replicates x len(r_grid), the values a rate experiment holds: each is kept
# as its window sum, its CDF value and its sort index, 24 bytes, so the
# budget takes 400 MB
_VALUE_BUDGET = 2**24


@dataclass(frozen=True)
class ExperimentConfig:
    """Self-contained description of one distance-versus-r experiment."""

    model: object
    window: object
    functional: str
    r_grid: tuple
    replicates: int = 1000
    master_seed: int = 0
    h: float = 0.25

    def __post_init__(self):
        r = tuple(float(x) for x in self.r_grid)
        object.__setattr__(self, "r_grid", r)
        if len(r) == 0 or any(x <= 0 for x in r) or any(b <= a for a, b in zip(r, r[1:])):
            raise ParameterError(f"r_grid must be increasing and positive, got {r}")
        if self.replicates < 1000:
            raise ParameterError(
                f"distance estimates need >= 1000 replicates per r, got {self.replicates}"
            )
        if self.replicates * len(r) > _VALUE_BUDGET:
            raise ParameterError(
                f"{self.replicates} replicates at {len(r)} r are "
                f"{self.replicates * len(r)} values, over the 2^24 budget"
            )
        if not self.h > 0.0:
            raise ParameterError(f"lattice step must be positive, got {self.h}")
        if self.model.dimension != self.window.dimension:
            raise ParameterError(
                f"model dimension {self.model.dimension} does not match window "
                f"dimension {self.window.dimension}"
            )
        # the plan checks the seed and the lattice budget; the largest r lays
        # out the largest lattice
        _experiment_plan(self, r[-1])


def config_to_json(config):
    return json.dumps(
        {
            "model": json.loads(model_to_json(config.model)),
            "window": json.loads(set_to_json(config.window)),
            "functional": config.functional,
            "r_grid": list(config.r_grid),
            "replicates": config.replicates,
            "master_seed": config.master_seed,
            "h": config.h,
        }
    )


@dataclass(frozen=True)
class RhoRow:
    """One r of the table.

    runtime_seconds counts only this row's own work: normalisation, CDF
    and Kolmogorov distance. The draws, window sums and bootstrap it shares
    with the other rows are timed in RhoTable.stage_seconds. window_sites
    is the number of lattice sites in this row's window.
    """

    r: float
    replicates: int
    rho: float
    rho_stderr: float
    kappa_bound: float
    runtime_seconds: float
    window_sites: int


@dataclass(frozen=True)
class RhoTable:
    """Distance-versus-r results and the limit-law series they were
    measured against; runtime stays out of the CSV contract so identical
    configs produce byte-identical tables.

    embedding is the fieldsim.Embedding of the lattice of the largest r, on
    which every row's replicates were drawn. stage_seconds holds the
    limit-law build ("limit_law"), the draws and window sums ("draws":
    seconds, with pairs_per_stream, streams and workers of the
    fieldsim.window_integrals call), the per-row normalisation, CDF and KS
    work summed over rows ("rows") and the bootstrap the rows share
    ("bootstrap").
    """

    rows: tuple
    law: object
    embedding: object
    stage_seconds: dict

    def csv_rows(self):
        return [
            (row.r, row.replicates, row.rho, row.rho_stderr, row.kappa_bound)
            for row in self.rows
        ]


def _experiment_plan(config, r):
    return SimulationPlan(
        model=config.model,
        dimension=config.window.dimension,
        h=config.h,
        extent=window_extent(config.window, r),
        seed=config.master_seed,
    )


def _ks_from_cdf(f, counts):
    """Kolmogorov distance between a continuous CDF and an empirical law.

    f holds the CDF at the sorted points and counts how often each point
    is drawn; the empirical CDF jumps from (upto - counts)/n to upto/n
    there, and (upto - counts)/n is the previous point's upto/n, or 0 at
    the first point. Points drawn zero times never attain the maximum.
    counts may hold one empirical law per row; the result then holds one
    distance per row.
    """
    upto = np.cumsum(counts, axis=-1)
    step = upto / upto[..., -1:]
    below = np.max(f[1:] - step[..., :-1], axis=-1, initial=f[0])
    return np.maximum(below, np.max(step - f, axis=-1))


def _bootstrap_stderrs(cdfs, orders, master_seed):
    """Standard deviation of each row's Kolmogorov distance over one shared
    set of bootstrap resamples.

    Row i's reference CDF at its sorted replicates is cdfs[i], and orders[i]
    holds the replicate at each of its sorted positions. Every row has the
    same n replicates, so one resample, a multiset of replicate indices,
    serves every row (common random numbers), and its distance needs only
    its counts, read in each row's sorted order. The 200 resamples are drawn
    from the one stream keyed by (master_seed, _BOOTSTRAP_TAG), each by its
    own integers(0, n, n) call, and their distances are computed
    _BOOTSTRAP_BATCH resamples at a time, so the stream is read call for
    call as one resample at a time reads it and the working memory is a
    few batch-by-n arrays whatever the number of rows.
    """
    rng = replicate_generator(master_seed, _BOOTSTRAP_TAG)
    n = len(orders[0])
    stats = np.empty((len(cdfs), _BOOTSTRAP_RESAMPLES))
    picks = np.empty((_BOOTSTRAP_BATCH, n), dtype=np.int64)
    # resample j of a batch counts its draws in bins j n ... (j + 1) n - 1
    shift = n * np.arange(_BOOTSTRAP_BATCH)[:, None]
    for start in range(0, _BOOTSTRAP_RESAMPLES, _BOOTSTRAP_BATCH):
        k = min(_BOOTSTRAP_BATCH, _BOOTSTRAP_RESAMPLES - start)
        for row in picks[:k]:
            row[:] = rng.integers(0, n, n)
        picks[:k] += shift[:k]
        counts = np.bincount(picks[:k].ravel(), minlength=k * n).reshape(k, n)
        for row_stats, f, order in zip(stats, cdfs, orders):
            row_stats[start : start + k] = _ks_from_cdf(f, counts[:, order])
    return [float(np.std(row_stats, ddof=1)) for row_stats in stats]


def rate_experiment(config):
    """Kolmogorov distance to the limit law at every r in the grid.

    The limit law is rosenblatt.limit_law, built once per call; its CDF
    is evaluated exactly at the sorted replicates of each r.

    Every r shares the replicates (common random numbers): one embedding
    is solved, on the lattice of the largest r, the fields are drawn there
    once, and fieldsim.window_integrals sums every r over its window on
    that lattice. Block k of the fields is drawn from the generator stream
    keyed by (master_seed, _REPLICATE_TAG, k), and the block size is set by
    the lattice alone, so the table is bit-identical for any number of
    workers, and the largest r's row does not depend on the smaller r of
    the grid. Each r's window sites depend on r and h alone
    (fieldsim.SimulationPlan), and a window that holds none is refused
    before any embedding is solved. The rows' bootstrap shares its
    resamples too (_bootstrap_stderrs), drawn from the one stream keyed by
    (master_seed, _BOOTSTRAP_TAG). Each row's rho and bootstrap stderr keep
    their meaning, but the rows are correlated.

    The fields are drawn before the limit law is built. The law's Gram
    products and eigen-solves run on OpenBLAS threads that keep spinning
    for a while after they return, and would hold one of the cores of the
    draws' pool if the draws came after them. The checks that need no
    solve come first: the functional's rank, the inputs of the kappa bound
    and the window shape (rosenblatt.law_radius, UnsupportedModelError).
    The refusal of limit_law that needs the solve, its Weyl-band gate on
    the tail variance, comes only after the draws.
    """
    params = lrd_params(config.model)
    d = config.window.dimension
    G = functional_catalog(config.functional)
    expansion = hermite_coefficients(G, 6)
    if expansion.rank != 2:
        raise RankError(
            f"rate experiment needs a rank-2 functional, got rank {expansion.rank} "
            f"for {config.functional!r}"
        )
    c0 = expansion.coeffs[0]
    c2 = expansion.coeffs[2]
    kb = kappa_bound(inputs_from_model(config.model))
    law_radius(config.window)

    t0 = time.perf_counter()
    plan = _experiment_plan(config, config.r_grid[-1])
    stream = partial(replicate_generator, config.master_seed, _REPLICATE_TAG)
    drawn = window_integrals(plan, G, config.window, config.r_grid, config.replicates, stream)
    draws = {
        "seconds": time.perf_counter() - t0,
        "pairs_per_stream": drawn.pairs_per_stream,
        "streams": drawn.streams,
        "workers": drawn.workers,
    }

    t0 = time.perf_counter()
    law = limit_law(config.window, params.alpha)
    stages = {"limit_law": time.perf_counter() - t0, "draws": draws}

    cell = config.h**d
    measured, cdfs, orders = [], [], []
    for r, kr, sites in zip(config.r_grid, drawn.sums, drawn.sites):
        t0 = time.perf_counter()
        if c0 != 0.0:
            kr -= c0 * (sites * cell)
        values = np.array([normalized_statistic(k, c2, r, params) for k in kr])
        order = np.argsort(values)
        f = series_cdf(law, values[order])
        rho = float(_ks_from_cdf(f, np.ones(f.size, dtype=np.intp)))
        cdfs.append(f)
        orders.append(order)
        measured.append((r, rho, time.perf_counter() - t0, sites))
    t0 = time.perf_counter()
    stderrs = _bootstrap_stderrs(cdfs, orders, config.master_seed)
    stages["bootstrap"] = time.perf_counter() - t0
    stages["rows"] = sum(seconds for _, _, seconds, _ in measured)

    rows = [
        RhoRow(
            r=float(r),
            replicates=config.replicates,
            rho=rho,
            rho_stderr=stderr,
            kappa_bound=kb,
            runtime_seconds=seconds,
            window_sites=sites,
        )
        for (r, rho, seconds, sites), stderr in zip(measured, stderrs)
    ]
    return RhoTable(rows=tuple(rows), law=law, embedding=embedding(plan), stage_seconds=stages)


def _law_record(law):
    """What a manifest records of the limit law, as derived_limit_law: its
    rosenblatt.series_record but the eigenvalues."""
    record = series_record(law)
    del record["eigenvalues"]
    return record


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return str(float(value))
    return str(value)


# _repr_lines tables. 10**s is exact in binary64 for s <= 22, and so are
# its Veltkamp halves (10**s = 5**s * 2**s has at most 47 significant bits).
_POW10 = 10.0 ** np.arange(21)
_SPLIT = 134217729.0  # 2**27 + 1
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# a distance this close to a rounding edge or a tie is left to repr
_EDGE = 2.0**-20
# a line is drawn from one row of 42 columns: sign, "0.", three zeros, the
# 17 digits, '.', the 17 digits again and the newline; its layout picks the
# columns it keeps
_LINE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"\n", np.uint8)
_INT, _FRAC = 6, 24  # first column of each copy of the digits


def _layouts():
    """Kept columns per layout, one row per code.

    Code (sign * 20 + decpt + 3) * 17 + count - 1 is a positional line:
    decpt in [-3, 16] places the point (the value is 0.d1d2... * 10**decpt)
    and count in [1, 17] is the number of significant digits. Code
    _REPR_CODE + k keeps the first k columns, where a repr line was written.
    """
    sign, decpt, count = (
        g.reshape(-1, 1)
        for g in np.meshgrid((0, 1), np.arange(-3, 17), np.arange(1, 18), indexing="ij")
    )
    col = np.arange(_LINE.size)
    lead = decpt <= 0  # "0." and -decpt zeros come before the digits
    end = _FRAC + np.where(lead, count, np.maximum(count, decpt + 1))
    keep = (col == 0) & (sign == 1)
    keep |= lead & (col >= 1) & (col < 3 - decpt)
    keep |= ~lead & (((col >= _INT) & (col < _INT + decpt)) | (col == _FRAC - 1))
    keep |= (col >= _FRAC + np.where(lead, 0, decpt)) & (col < end)
    keep |= col == col[-1]
    return np.concatenate([keep, col < np.arange(_LINE.size + 1).reshape(-1, 1)])


_LAYOUTS = _layouts()
_REPR_CODE = 2 * 20 * 17


def _repr_lines(values):
    """The text repr(x) + "\\n" for each x of a 1-d float array, joined.

    repr writes the shortest digit string that reads back as x, the nearest
    to x among those, positionally for 1e-4 <= |x| < 1e16. There this works
    on whole arrays. With e = floor(log10 |x|) and s = 16 - e in [1, 20],
    y = |x| * 10**s in [1e16, 1e17) is formed exactly as yh + yl (Dekker's
    product with Veltkamp's split), so its integer part is exact in int64
    and its fraction is within 2**-53. Every real within h = ulp(x)/2 *
    10**s of y, itself an exact double between 0.55 and 11.2, reads back as
    x. The digits are those of y rounded to the coarsest multiple of 10**q
    that stays within h: q = 0 always does, a rounding that stays within h
    does so at every finer q, and at the coarsest q the last digit is not 0.
    Each value that this cannot settle exactly is formatted by repr in its
    place: |x| outside the range, 0, inf and nan; a power-of-two
    significand, whose interval is lopsided; a log10 in the wrong decade; a
    tie in the rounding; and a distance within 2**-20 of h, where the
    interval's open or closed edge would matter.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & ((a.view(np.uint64) & np.uint64(2**52 - 1)) != 0)
    a = np.where(fast, a, 1.5)
    e = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    s = 16 - e
    p = _POW10[s]
    yh = a * p
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    ph, pl = _POW10_HI[s], _POW10_LO[s]
    yl = al * pl - (((yh - ah * ph) - al * ph) - ah * pl)
    # y = whole + frac with frac in [0, 1], rounded by at most 2**-53
    floor_yl = np.floor(yl)
    whole = yh.astype(np.int64) + floor_yl.astype(np.int64)
    frac = yl - floor_yl
    fast &= (whole >= 10**16) & (whole < 10**17)
    h = np.spacing(a) * 0.5 * p
    # distances to the nearest multiples of 10 and of 100, for every value
    tens, hundreds = whole // 10, whole // 100
    t1 = (whole - tens * 10) + frac
    t2 = (whole - hundreds * 100) + frac
    d1 = np.minimum(t1, 10.0 - t1)
    d2 = np.minimum(t2, 100.0 - t2)
    ok1, ok2 = d1 < h, d2 < h
    fast &= (np.abs(d1 - h) > _EDGE) & (np.abs(d2 - h) > _EDGE)
    # a tie at the q taken; from q = 2 on, a tie is farther from y than h
    fast &= np.where(ok1, ok2 | (np.abs(t1 - 5.0) > _EDGE), np.abs(frac - 0.5) > _EDGE)
    digits = np.where(ok1, (tens + (t1 > 5.0)) * 10, whole + (frac > 0.5))
    q = ok1 + ok2.astype(np.intp)
    # the few values that pass q = 2 go on to coarser q
    idx = np.flatnonzero(ok2)
    digits[idx] = (hundreds[idx] + (t2[idx] > 50.0)) * 100
    for level in range(3, 17):
        if idx.size == 0:
            break
        scale = 10**level
        quo = whole[idx] // scale
        rem = whole[idx] - quo * scale
        t = rem + frac[idx]
        dist = np.minimum(t, (scale - rem) - frac[idx])
        fast[idx] &= np.abs(dist - h[idx]) > _EDGE
        ok = dist < h[idx]
        idx = idx[ok]
        q[idx] = level
        digits[idx] = (quo[ok] + (t[ok] > scale / 2)) * scale
    fast &= digits < 10**17  # a rounding up to the next decade
    # the 17 digits, from two uint32 halves, in columns of one array
    high = digits // 10**9
    parts = ((high, range(7, -1, -1)), (digits - high * 10**9, range(16, 7, -1)))
    cols = np.empty((17, x.size), np.uint32)
    for part, positions in parts:
        part = part.astype(np.uint32)
        for k in positions:
            rest = part // np.uint32(10)
            np.subtract(part, rest * np.uint32(10), out=cols[k])
            part = rest
    cols = cols.astype(np.uint8).T
    cols += ord("0")
    mat = np.empty((x.size, _LINE.size), np.uint8)
    mat[:] = _LINE
    mat[:, _INT : _INT + 17] = cols
    mat[:, _FRAC : _FRAC + 17] = cols
    code = ((x < 0) * 20 + e + 4) * 17 + 16 - q
    # repr's lines, written in place from column 0 of their rows
    slow = np.flatnonzero(~fast)
    if slow.size:
        lines = [repr(v) + "\n" for v in x[slow].tolist()]
        lens = np.fromiter(map(len, lines), np.intp, slow.size)
        text = np.frombuffer("".join(lines).encode("ascii"), np.uint8)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        mat[np.repeat(slow, lens), np.arange(text.size) - starts] = text
        code[slow] = _REPR_CODE + lens
    return mat[_LAYOUTS[code]].tobytes().decode("ascii")


def _csv_text(header, rows):
    """The CSV text in parts: one part, or chunks of _CSV_CHUNK values.

    A 1-d float array is one column: _repr_lines writes each chunk, in the
    same bytes as repr, which is what _fmt writes; no float needs quoting.
    The chunks are formatted on one pool of one thread per available core
    (fieldsim._in_order) and yielded in order, so the text is the serial
    join. While the caller writes one chunk, the pool formats the next
    ones, at most two per worker ahead of it. numpy releases the GIL in
    most of _repr_lines, but its calls on 2**14 values are short, so two
    threads on two cores format about 1.3 times as fast as one.
    """
    if isinstance(rows, np.ndarray):
        yield f"{header[0]}\n"
        yield from fieldsim._in_order(
            lambda k: _repr_lines(rows[k * _CSV_CHUNK : (k + 1) * _CSV_CHUNK]),
            -(-rows.size // _CSV_CHUNK),
        )
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    yield buf.getvalue()


def _write_csv(out, header, rows):
    """CSV with a header row, '.' decimals, shortest round-trip floats.

    rows is a sequence of tuples, or a 1-d float array for a one-column
    table, which is formatted by _repr_lines, with no per-value Python work
    outside its fallback, and written in chunks of _CSV_CHUNK values.
    """
    if out is None:
        sys.stdout.writelines(_csv_text(header, rows))
        return None
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_csv_text(header, rows))
    return out


def _write_manifest(out, command, merged, wall_seconds, outputs):
    """The JSON manifest next to out: the command, every value it read
    (merged), versions, wall time and outputs. Only a command that reads
    --seed records seeds, and only rate experiment a protocol_note."""
    if out is None:
        return None
    path = out + ".manifest.json"
    doc = {
        "command": command,
        "config": merged,
        "versions": {
            "python": python_version(),
            "numpy": np.__version__,
            "rosenlab": __version__,
        },
        "wall_seconds": wall_seconds,
        "outputs": outputs,
    }
    if "seed" in merged:
        doc["seeds"] = {"master_seed": merged["seed"]}
    if command == "rate experiment":
        doc["protocol_note"] = (
            "Monte Carlo protocol (seeding, replicate counts, bootstrap) is "
            "chosen by this implementation; rho is measured against the exact "
            "CDF of the chi-square series of derived_limit_law: its leading "
            "eigenvalues and a three-cumulant tail. Every r shares the "
            "replicates (common random numbers): its window is read off "
            "fields drawn once on the lattice of the largest r "
            "(derived_embedding drawn_on_r), so each row's rho and stderr "
            "keep their meaning but the rows are correlated. The fields are "
            "drawn in blocks of pairs_per_stream complex draws "
            "(derived_stage_seconds draws), a count set by the drawn lattice "
            "alone; block k reads the generator of SeedSequence(master_seed, "
            f"spawn_key=({_REPLICATE_TAG:#x}, k)), whatever the grid, so the "
            "largest r's row is the same for every grid that ends at it. "
            "Lattice cells are centred at (k + 1/2) h, so each r's window "
            "sites (derived_window_sites) depend on r and h alone. "
            "The bootstrap draws its resamples of the replicate indices once, "
            "from SeedSequence(master_seed, "
            f"spawn_key=({_BOOTSTRAP_TAG:#x},)), and every r measures its "
            "distance on the same resamples. No "
            "stream depends on the number of workers."
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_text(path, flag):
    """The text of the file at path, or ParameterError naming --flag."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read --{flag} {path!r}: {exc.strerror}") from None


def _out_path(out, name):
    """out, or ParameterError unless it names a file in an existing
    directory."""
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ParameterError(f"cannot write --{name} {out!r}: no directory {folder!r}")
    if os.path.isdir(out):
        raise ParameterError(f"cannot write --{name} {out!r}: it is a directory")
    return out


def _number(kind, text, name):
    """text read as an int or a float (kind), or ParameterError naming --name.

    An int must be written as one: 1.5 and true are refused, not truncated.
    """
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParameterError(f"--{name} must be {noun}, got {text!r}") from None


_int = partial(_number, int)
_float = partial(_number, float)


def _floats(text, name):
    """A nonempty comma-separated list of numbers."""
    values = [_float(tok, name) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ParameterError(f"--{name} must hold at least one number")
    return values


def _grid(text, name):
    """start:stop:count linear grid with count >= 1, or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"--{name} grid must be start:stop:count, got {text!r}")
        start, stop = (_float(v, name) for v in parts[:2])
        count = _int(parts[2], name)
        if count < 1:
            raise ParameterError(f"--{name} grid count must be at least 1, got {count}")
        return np.linspace(start, stop, count).tolist()
    return _floats(text, name)


def _seed(value, name):
    """A nonnegative integer. Text that reads as an integer is one; any other
    value goes to check_seed as it is, which names it in its refusal."""
    try:
        value = _int(value, name)
    except ParameterError:
        pass
    return check_seed(value)


@dataclass(frozen=True)
class _Option:
    """One command line option, declared once.

    Every flag takes a value, as text. kind reads it into what the handler
    gets: _int, _float, _floats, _grid, _seed or _out_path; None passes the
    text through as given, such as a JSON descriptor or a path.
    """

    flag: str
    kind: object = None
    default: object = None
    required: bool = False
    help: str = None

    @property
    def dest(self):
        return self.flag.replace("-", "_")

    def read(self, args):
        """The flag's value, else the default."""
        value = getattr(args, self.dest)
        if value is None:
            if self.required:
                raise ParameterError(f"missing required option --{self.flag}")
            return self.default
        return value if self.kind is None else self.kind(value, self.flag)


def _require(opts, *names):
    """For options a handler needs only in some cases."""
    for name in names:
        if opts[name] is None:
            raise ParameterError(f"missing required option --{name}")


def _cmd_covariance_eval(opts):
    model = model_from_json(opts["model"])
    rows = [(r, float(covariance_eval(model, r))) for r in opts["r"]]
    return ("r", "covariance"), rows, {}


def _cmd_spectral_eval(opts):
    model = model_from_json(opts["model"])
    rows = [(lam, float(spectral_density(model, lam))) for lam in opts["lam"]]
    return ("lam", "density"), rows, {}


def _cmd_spectral_fit(opts):
    model = model_from_json(opts["model"])
    fit = residual_exponent_fit(model, np.asarray(opts["grid"]))
    target = lrd_params(model).upsilon
    rows = [(model.family, float(fit), float(target), float(fit - target))]
    return ("family", "upsilon_fit", "upsilon_formula", "difference"), rows, {}


def _cmd_geometry_ft(opts):
    window = set_from_json(opts["set"])
    if opts["direction"] is None:
        vec = np.zeros(window.dimension)
        vec[0] = 1.0
    else:
        vec = np.asarray(opts["direction"], dtype=float)
        if vec.shape != (window.dimension,) or not np.linalg.norm(vec) > 0:
            raise ParameterError("direction must be a nonzero vector matching d")
        vec = vec / np.linalg.norm(vec)
    rows = []
    for z in opts["z"]:
        val = complex(indicator_ft(window, z * vec))
        rows.append((z, val.real, val.imag))
    return ("z", "ft_real", "ft_imag"), rows, {}


def _cmd_hermite_coeffs(opts):
    expansion = hermite_coefficients(functional_catalog(opts["functional"]), opts["order"])
    rows = [(j, c) for j, c in enumerate(expansion.coeffs)]
    return ("j", "coefficient"), rows, {"rank": expansion.rank}


def _cmd_simulate_field(opts):
    model = model_from_json(opts["model"])
    plan = SimulationPlan(
        model=model,
        dimension=model.dimension,
        h=opts["h"],
        extent=opts["extent"],
        seed=opts["seed"],
    )
    if opts["out"] is None:
        raise ParameterError("simulate field writes binary output; --out is required")
    export_field(simulate_field(plan), opts["out"])
    return None, None, {"embedding": asdict(embedding(plan))}


def _cmd_rosenblatt_build(opts):
    series = limit_law(set_from_json(opts["set"]), opts["alpha"])
    text = series_to_json(series)
    if opts["out"] is None:
        sys.stdout.write(text + "\n")
    else:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return None, None, {"limit_law": _law_record(series)}


def _cmd_rosenblatt_sample(opts):
    series = series_from_json(_read_text(opts["series"], "series"))
    draws = sample(series, opts["n"], opts["seed"])
    table = series.cdf_table
    return ("x",), draws, {"cdf_table_cells": table.cells, "ks_bound": table.ks_bound}


def _cmd_rate_bound(opts):
    if opts["model"] is not None:
        fixed = [f"--{name}" for name in ("d", "alpha", "upsilon") if opts[name] is not None]
        if fixed:
            raise ParameterError(f"--model fixes d, alpha and upsilon; drop {', '.join(fixed)}")
        inputs = inputs_from_model(model_from_json(opts["model"]), q=opts["q"])
    else:
        _require(opts, "d", "alpha", "q", "upsilon")
        inputs = RateInputs(
            dimension=opts["d"], alpha=opts["alpha"], q=opts["q"], upsilon=opts["upsilon"]
        )
    rows = [(
        inputs.dimension, inputs.alpha, inputs.q, inputs.upsilon,
        kappa1(inputs), geometric_term(inputs), kappa_bound(inputs), inputs.theorem_applicable,
    )]
    header = (
        "d", "alpha", "q", "upsilon",
        "kappa1", "geometric_term", "kappa_bound", "theorem_applicable",
    )
    return header, rows, {}


# the options of rate curves that only one family reads
_CURVE_FAMILY_OPTIONS = {"localglobal": ("theta",), "linnik": ("d", "sigma")}


def _cmd_rate_curves(opts):
    family = opts["family"]
    if family not in _CURVE_FAMILY_OPTIONS:
        raise ParameterError(f"unknown curve family {family!r}; use localglobal or linnik")
    unread = [
        f"--{name}"
        for other, names in _CURVE_FAMILY_OPTIONS.items() if other != family
        for name in names if opts[name] is not None
    ]
    if unread:
        raise ParameterError(f"--family {family} does not read {', '.join(unread)}")
    info = {}
    if family == "localglobal":
        theta = 0.5 if opts["theta"] is None else opts["theta"]
        info["theta"] = theta
        builder = lambda a: local_global(1, a, theta)
    else:
        _require(opts, "d", "sigma")
        d, sigma = opts["d"], opts["sigma"]
        builder = lambda a: linnik(d, sigma, a / sigma)
    table = curve_table(builder, opts["alpha_grid"], q=opts["q"])
    rows = [tuple(row[c] for c in CURVE_COLUMNS) for row in table]
    return CURVE_COLUMNS, rows, info


def _cmd_rate_experiment(opts):
    config = ExperimentConfig(
        model=model_from_json(opts["model"]), window=set_from_json(opts["set"]),
        functional=opts["functional"], r_grid=tuple(opts["r"]),
        replicates=opts["replicates"], master_seed=opts["seed"], h=opts["h"],
    )
    table = rate_experiment(config)
    info = {
        "config": json.loads(config_to_json(config)),
        "runtime_seconds": [row.runtime_seconds for row in table.rows],
        "stage_seconds": table.stage_seconds,
        "embedding": {**asdict(table.embedding), "drawn_on_r": config.r_grid[-1]},
        "window_sites": [row.window_sites for row in table.rows],
        "limit_law": _law_record(table.law),
    }
    return RHO_CSV_COLUMNS, table.csv_rows(), info


def _cmd_verify_supmin(opts):
    inputs = RateInputs(
        dimension=opts["d"], alpha=opts["alpha"], q=opts["q"], upsilon=opts["upsilon"]
    )
    rep = kappa0_identity_check(inputs, opts["resolution"])
    header = ("grid_value", "closed_form", "deviation", "beta", "gamma", "gamma0", "resolution")
    rows = [(rep.grid_value, rep.closed_form, rep.deviation, *rep.argmax, rep.resolution)]
    return header, rows, {}


_MODEL = _Option("model", required=True, help="model JSON descriptor")
_SET = _Option("set", required=True, help="window JSON descriptor")
_EXPONENTS = (
    _Option("d", _int, required=True, help="dimension"),
    _Option("alpha", _float, required=True, help="long-memory exponent"),
    _Option("q", _float, required=True, help="spectral smoothness exponent"),
    _Option("upsilon", _float, required=True, help="residual exponent"),
)
# listed only by the three commands that draw
_SEED = _Option("seed", _seed, 0, help="master seed (default 0)")

# "group action" -> (handler(opts) returning (header, rows, info), its
# options besides _COMMON). Each option is declared once: _build_parser makes
# its flag, and _run reads its value into opts under its argparse dest, which
# is also its key in the manifest's config; a command refuses at argparse
# every flag it does not list. info holds only what config does not record;
# it goes to the manifest's config as derived_ values. header is None for
# commands that write their own output file.
_COMMANDS = {
    "covariance eval": (_cmd_covariance_eval, (
        _MODEL,
        _Option("r", _floats, required=True, help="comma-separated distances"),
    )),
    "spectral eval": (_cmd_spectral_eval, (
        _MODEL,
        _Option("lam", _floats, required=True, help="comma-separated frequencies"),
    )),
    "spectral fit-upsilon": (_cmd_spectral_fit, (
        _MODEL,
        _Option("grid", _grid, np.geomspace(1e-4, 10**-2.5, 10).tolist(),
                help="lambda grid, start:stop:count or comma list (default 10 log-spaced)"),
    )),
    "geometry ft": (_cmd_geometry_ft, (
        _SET,
        _Option("z", _floats, required=True, help="comma-separated radii"),
        _Option("direction", _floats, help="ray direction for rectangular windows"),
    )),
    "hermite coeffs": (_cmd_hermite_coeffs, (
        _Option("functional", required=True, help="functional name"),
        _Option("order", _int, 6, help="expansion order (default 6)"),
    )),
    "simulate field": (_cmd_simulate_field, (
        _MODEL,
        _Option("h", _float, required=True, help="lattice step"),
        _Option("extent", _float, required=True, help="half-width of the lattice"),
        _SEED,
    )),
    "rosenblatt build": (_cmd_rosenblatt_build, (
        _SET,
        _Option("alpha", _float, required=True, help="long-memory exponent"),
    )),
    "rosenblatt sample": (_cmd_rosenblatt_sample, (
        _Option("series", required=True, help="series JSON path from rosenblatt build"),
        _Option("n", _int, required=True, help="number of draws"),
        _SEED,
    )),
    "rate bound": (_cmd_rate_bound, (
        _Option("model", help="model JSON descriptor; it fixes d, alpha and upsilon"),
        *(replace(opt, required=False) for opt in _EXPONENTS),
    )),
    "rate curves": (_cmd_rate_curves, (
        _Option("family", required=True, help="localglobal or linnik"),
        _Option("alpha-grid", _grid, required=True, help="start:stop:count or comma list"),
        _Option("d", _int, help="dimension (linnik)"),
        _Option("sigma", _float, help="Linnik sigma (linnik)"),
        _Option("theta", _float, help="local-global theta (localglobal, default 0.5)"),
        _Option("q", _float, help="spectral smoothness exponent"),
    )),
    "rate experiment": (_cmd_rate_experiment, (
        _MODEL,
        _SET,
        _Option("functional", required=True, help="rank-2 functional name"),
        _Option("r", _floats, required=True, help="comma-separated window scales"),
        _Option("replicates", _int, 1000, help="replicates per r (default 1000)"),
        _Option("h", _float, 0.25, help="lattice step (default 0.25)"),
        _SEED,
    )),
    "verify supmin": (_cmd_verify_supmin, (
        *_EXPONENTS,
        _Option("resolution", _int, 1000, help="grid points per axis (default 1000)"),
    )),
}
# the options of every command
_COMMON = (_Option("out", _out_path, help="output path (stdout when omitted)"),)
_GROUP_HELP = dict(
    covariance="covariance evaluation", spectral="spectral densities",
    geometry="window transforms", hermite="functional expansions",
    simulate="field simulation", rosenblatt="limit-law sampler",
    rate="rate exponents and experiments", verify="identity verification",
)


@cache
def _build_parser():
    """One subparser per _COMMANDS entry; every flag is text, read by _run.

    Built once per process and shared by every main call: parsing does not
    change the parser, and _COMMANDS is not changed after import."""
    parser = argparse.ArgumentParser(
        prog="rosenlab",
        description="Long-memory field experiments: covariances, spectra, "
        "Hermite functionals, limit-law sampling, and rate tables.",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, (_, options) in _COMMANDS.items():
        group, action = command.split()
        if group not in groups:
            groups[group] = top.add_parser(group, help=_GROUP_HELP[group]).add_subparsers(
                dest="action", required=True
            )
        p = groups[group].add_parser(action)
        for opt in (*_COMMON, *options):
            p.add_argument(f"--{opt.flag}", dest=opt.dest, default=None, help=opt.help)
    return parser


def main(argv=None):
    """Run one command; a RosenlabError becomes one line on stderr and exit
    code 2."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except RosenlabError as exc:
        sys.stderr.write(f"rosenlab: {exc}\n")
        return 2


def _run(args):
    """Read the command's options, run its handler, write its output and
    manifest.

    Each option is read by _Option.read, the common ones first, so a
    malformed or missing value is refused before any work. The manifest's
    config records every value read, typed, under its argparse dest, next
    to the handler's derived_ values.
    """
    command = f"{args.group} {args.action}"
    handler, options = _COMMANDS[command]
    opts = {opt.dest: opt.read(args) for opt in (*_COMMON, *options)}
    out = opts["out"]
    t0 = time.perf_counter()

    header, rows, info = handler(opts)

    outputs = []
    if header is not None:
        t_write = time.perf_counter()
        written = _write_csv(out, header, rows)
        info["write_seconds"] = time.perf_counter() - t_write
        if written is not None:
            outputs.append(written)
    elif out is not None:
        outputs.append(out)

    wall = time.perf_counter() - t0
    merged = {k: v for k, v in opts.items() if v is not None}
    merged.update({f"derived_{k}": v for k, v in info.items()})
    manifest = _write_manifest(out, command, merged, wall, outputs)
    if manifest is not None:
        outputs.append(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
