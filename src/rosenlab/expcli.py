"""Experiment orchestration and the command line interface.

The experiments tie the package together: simulate long-memory fields,
integrate a rank-2 functional over a growing window, normalize, and
measure the Kolmogorov distance to the chi-square-series reference law.
Everything is reproducible: the replicates at each r come from one
generator stream keyed by the master seed and the r index, and a stream
does not depend on how its draws are split into blocks, so output tables
are bit-identical for any block size. Each file-producing invocation writes
a JSON manifest next to its output recording the merged configuration,
versions, and wall time.

Monte Carlo protocol choices (replicate counts, bootstrap resampling,
seeding scheme, reference sample size) are this implementation's own and
are recorded in the manifest rather than taken from any published
experiment.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field
from math import log, sqrt
from platform import python_version

import numpy as np

from .covmodels import (
    covariance_eval,
    lrd_params,
    model_from_json,
    model_to_json,
    residual_exponent_fit,
    spectral_density,
)
from .errors import DegenerateFitError, ParameterError, RankError
# functional_integral is not called here; the perfbench tracer test reaches
# it through this module's namespace
from .fieldsim import (  # noqa: F401
    SimulationPlan,
    export_field,
    functional_integral,
    ks_distance,
    normalized_statistic,
    simulate_field,
    window_integrals,
)
from .geometry import indicator_ft, set_from_json, set_to_json
from .hermite import DEFAULT_QUAD_ORDER, functional_catalog, hermite_coefficients
from .ratelab import (
    CURVE_COLUMNS,
    SupMinSearch,
    curve_table,
    geometric_term,
    inputs_from_model,
    kappa0_identity_check,
    kappa1,
    kappa_bound,
)
from .rosenblatt import (
    build_kernel,
    calibrate_series,
    density_estimate,
    eigen_series,
    sample,
    series_from_json,
    series_to_json,
    variance_oracle,
)

__all__ = [
    "ExperimentConfig",
    "RhoRow",
    "RhoTable",
    "SlopeFit",
    "SmoothingReport",
    "ks_distance",
    "rate_experiment",
    "slope_fit",
    "smoothing_inequality_check",
    "reference_sample",
    "clear_reference_cache",
    "main",
]

__version__ = "0.1.0"

RHO_CSV_COLUMNS = ("r", "replicates", "rho", "rho_stderr", "kappa_bound")
_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TAG = 0xB007
_REFERENCE_TAG = 0xCAFE
_REPLICATE_TAG = 0xF1E1D
_D2_CLAMP = 1e-7
_EXTENT_BUDGET = 2**22


@dataclass(frozen=True)
class ExperimentConfig:
    """Self-contained description of one distance-versus-r experiment."""

    model: object
    window: object
    functional: str
    r_grid: tuple
    replicates: int = 1000
    reference_size: int = 200000
    master_seed: int = 0
    h: float = 0.25
    out: str = None

    def __post_init__(self):
        r = tuple(float(x) for x in self.r_grid)
        object.__setattr__(self, "r_grid", r)
        if len(r) == 0 or any(x <= 0 for x in r) or any(b <= a for a, b in zip(r, r[1:])):
            raise ParameterError(f"r_grid must be increasing and positive, got {r}")
        if self.replicates < 1000:
            raise ParameterError(
                f"distance estimates need >= 1000 replicates per r, got {self.replicates}"
            )
        if self.reference_size < 10**4:
            raise ParameterError(
                f"reference sample must have >= 10^4 draws, got {self.reference_size}"
            )
        if not self.h > 0.0:
            raise ParameterError(f"lattice step must be positive, got {self.h}")
        half = _window_half_extent(self.window)
        n_max = int(round(2.0 * half * r[-1] / self.h))
        if n_max > _EXTENT_BUDGET:
            raise ParameterError(
                f"largest window needs {n_max} lattice points per axis, over the "
                f"{_EXTENT_BUDGET} budget; coarsen h or shrink r_grid"
            )


def _window_half_extent(window):
    if window.shape == "ball":
        return window.radius
    return max(max(-a for a in window.lower), max(window.upper))


def config_to_json(config):
    return json.dumps(
        {
            "model": json.loads(model_to_json(config.model)),
            "window": json.loads(set_to_json(config.window)),
            "functional": config.functional,
            "r_grid": list(config.r_grid),
            "replicates": config.replicates,
            "reference_size": config.reference_size,
            "master_seed": config.master_seed,
            "h": config.h,
            "out": config.out,
        }
    )


def config_from_json(text):
    obj = json.loads(text) if isinstance(text, str) else dict(text)
    return ExperimentConfig(
        model=model_from_json(obj["model"]),
        window=set_from_json(obj["window"]),
        functional=obj["functional"],
        r_grid=tuple(obj["r_grid"]),
        replicates=int(obj.get("replicates", 1000)),
        reference_size=int(obj.get("reference_size", 200000)),
        master_seed=int(obj.get("master_seed", 0)),
        h=float(obj.get("h", 0.25)),
        out=obj.get("out"),
    )


@dataclass(frozen=True)
class RhoRow:
    r: float
    replicates: int
    rho: float
    rho_stderr: float
    kappa_bound: float
    runtime_seconds: float


@dataclass(frozen=True)
class RhoTable:
    """Distance-versus-r results; runtime stays out of the CSV contract so
    identical configs produce byte-identical tables."""

    rows: tuple

    def csv_rows(self):
        return [
            (row.r, row.replicates, row.rho, row.rho_stderr, row.kappa_bound)
            for row in self.rows
        ]


# The reference law depends only on the window, alpha, d, the draw count,
# and the seed, so one sample serves every r in a sweep (and repeat sweeps
# in one process).
_REFERENCE_CACHE = {}


def clear_reference_cache():
    _REFERENCE_CACHE.clear()


def reference_sample(window, alpha, d, size, master_seed, keep=300):
    """Calibrated chi-square-series reference draws, cached and sorted."""
    key = (window, float(alpha), int(d), int(size), int(master_seed), int(keep))
    hit = _REFERENCE_CACHE.get(key)
    if hit is not None:
        return hit
    kernel = build_kernel(window, d, alpha)
    series = eigen_series(kernel, min(keep, kernel.spectrum_size))
    series = calibrate_series(series, variance_oracle(window, alpha, d))
    seed = np.random.SeedSequence([int(master_seed), _REFERENCE_TAG])
    draws = np.sort(sample(series, size, seed))
    if len(_REFERENCE_CACHE) >= 8:
        _REFERENCE_CACHE.pop(next(iter(_REFERENCE_CACHE)))
    _REFERENCE_CACHE[key] = (series, draws)
    return series, draws


def _experiment_plan(config, r):
    half = _window_half_extent(config.window)
    d = config.window.dimension
    return SimulationPlan(
        model=config.model,
        dimension=d,
        h=config.h,
        extent=half * float(r),
        seed=config.master_seed,
        clamp_tol=_D2_CLAMP if d == 2 else 1e-8,
    )


def _bootstrap_stderr(values, ref_sorted, master_seed, r_index):
    """Standard deviation of the Kolmogorov distance over bootstrap resamples.

    Each resample's distance is evaluated at its own breakpoints only, which
    is exact up to 1/len(ref) and far below bootstrap noise. A resample is a
    multiset of the replicates, so its empirical CDF at the sorted
    replicates is a cumulative sum of counts, and the reference CDF there is
    looked up once for all resamples.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([int(master_seed), int(r_index), _BOOTSTRAP_TAG])
    )
    n = values.size
    order = np.argsort(values)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    fr = np.searchsorted(ref_sorted, values[order], side="right") / ref_sorted.size
    stats = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
        counts = np.bincount(rank[rng.integers(0, n, n)], minlength=n)
        upto = np.cumsum(counts)
        drawn = counts > 0
        f, c, u = fr[drawn], counts[drawn], upto[drawn]
        stats[b] = max(np.max(f - (u - c) / n), np.max(u / n - f))
    return float(np.std(stats, ddof=1))


def rate_experiment(config):
    """Kolmogorov distance to the reference law at every r in the grid.

    At each r the replicates come from one generator stream keyed by
    (master_seed, r_index) and are drawn by fieldsim.window_integrals in
    blocks of complex draws, two fields per draw. A stream does not depend
    on how its draws are split into blocks, so the table is bit-identical
    for any block size.
    """
    params = lrd_params(config.model)
    d = config.window.dimension
    if params.dimension != d:
        raise ParameterError(
            f"model dimension {params.dimension} does not match window dimension {d}"
        )
    G = functional_catalog(config.functional)
    expansion = hermite_coefficients(G, 6)
    if expansion.rank != 2:
        raise RankError(
            f"rate experiment needs a rank-2 functional, got rank {expansion.rank} "
            f"for {config.functional!r}"
        )
    c0 = expansion.coeffs[0]
    c2 = expansion.coeffs[2]
    _, ref = reference_sample(
        config.window, params.alpha, d, config.reference_size, config.master_seed
    )
    kb = kappa_bound(inputs_from_model(config.model))
    rows = []
    for r_index, r in enumerate(config.r_grid):
        t0 = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence([int(config.master_seed), r_index, _REPLICATE_TAG])
        )
        kr, volume = window_integrals(
            _experiment_plan(config, r), G, config.window, r, config.replicates, rng
        )
        if c0 != 0.0:
            kr -= c0 * volume
        values = np.array([normalized_statistic(k, c2, r, params) for k in kr])
        rho = ks_distance(values, ref)
        stderr = _bootstrap_stderr(values, ref, config.master_seed, r_index)
        rows.append(
            RhoRow(
                r=float(r),
                replicates=config.replicates,
                rho=rho,
                rho_stderr=stderr,
                kappa_bound=kb,
                runtime_seconds=time.perf_counter() - t0,
            )
        )
    return RhoTable(rows=tuple(rows))


@dataclass(frozen=True)
class SlopeFit:
    """Log-log regression of rho on r, with the one-sided rate comparison.

    consistent reports whether -slope >= kappa_bound - 2 stderr; the rate
    theory gives an upper bound on rho, so this is informational, never an
    assertion.
    """

    slope: float
    intercept: float
    r_squared: float
    slope_stderr: float
    kappa_bound: float
    consistent: bool


def slope_fit(table):
    """Least squares of log rho against log r over the significant rows."""
    rows = [row for row in table.rows if row.rho > 3.0 * row.rho_stderr]
    if len(rows) < 4:
        raise DegenerateFitError(
            f"slope fit needs >= 4 rows with rho above 3 stderr, got {len(rows)}"
        )
    x = np.array([log(row.r) for row in rows])
    y = np.array([log(row.rho) for row in rows])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    rss = float(np.sum((y - fitted) ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if tss == 0.0 else 1.0 - rss / tss
    dof = len(rows) - 2
    var = rss / dof if dof > 0 else 0.0
    stderr = sqrt(var / float(np.sum((x - x.mean()) ** 2)))
    kb = table.rows[0].kappa_bound
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        slope_stderr=stderr,
        kappa_bound=kb,
        consistent=bool(-slope >= kb - 2.0 * stderr),
    )


@dataclass(frozen=True)
class SmoothingRow:
    label: str
    lhs: float
    rhs: float
    slack: float
    holds: bool


@dataclass(frozen=True)
class SmoothingReport:
    rows: tuple
    eps: float
    samples: int
    kde_max: float


def smoothing_inequality_check(reference, eps, seed=0):
    """Empirical check of rho(X+Y, Z) <= rho(X, Z) + rho(Z+eps, Z) + P(|Y| >= eps).

    Runs the perturbation inequality on synthetic triples built from the
    reference law and from Gaussians, and checks the shift term against
    eps times the peak of the reference density (boundedness of the
    limiting law is what makes the rate machinery work).
    """
    reference = np.asarray(reference, dtype=float)
    if reference.size < 10**5:
        raise ParameterError(
            f"smoothing check needs >= 10^5 reference samples, got {reference.size}"
        )
    if not eps > 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x50FF]))
    # interleave the sorted sample so both halves carry the full law; a
    # contiguous split of sorted draws would give disjoint conditional laws
    srt = np.sort(reference)
    half = reference.size // 2
    za, xa = srt[0 : 2 * half : 2], srt[1 : 2 * half : 2]
    tol = 3.0 * sqrt(2.0 / half)
    rows = []

    base = ks_distance(xa, za)
    shift_ref = ks_distance(za + eps, za)
    rows.append(
        SmoothingRow(
            label="zero-perturbation",
            lhs=base,
            rhs=base + shift_ref,
            slack=shift_ref,
            holds=True,
        )
    )

    xg = rng.standard_normal(half)
    zg = rng.standard_normal(half)
    yg = 0.1 * rng.standard_normal(half)
    lhs = ks_distance(xg + yg, zg)
    rhs = ks_distance(xg, zg) + ks_distance(zg + eps, zg) + float(np.mean(np.abs(yg) >= eps))
    rows.append(
        SmoothingRow(
            label="gaussian-triple",
            lhs=lhs,
            rhs=rhs,
            slack=rhs - lhs,
            holds=bool(lhs <= rhs + tol),
        )
    )

    bandwidth = 1.06 * float(np.std(reference)) * reference.size ** (-0.2)
    kde = density_estimate(reference, bandwidth)
    bound = eps * kde.max_value
    rows.append(
        SmoothingRow(
            label="shift-vs-density",
            lhs=shift_ref,
            rhs=bound,
            slack=bound - shift_ref,
            holds=bool(shift_ref <= bound + tol),
        )
    )
    return SmoothingReport(
        rows=tuple(rows), eps=float(eps), samples=int(reference.size), kde_max=kde.max_value
    )


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return str(float(value))
    return str(value)


def _write_csv(out, header, rows):
    """CSV with a header row, '.' decimals, shortest round-trip floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
        return None
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return out


def _write_manifest(out, command, merged, wall_seconds, seeds, outputs):
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
        "seeds": seeds,
        "outputs": outputs,
        "protocol_note": (
            "Monte Carlo protocol (seeding, replicate counts, bootstrap, "
            "reference size) is chosen by this implementation."
        ),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _load_config_doc(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParameterError("config document must be a JSON object")
    return doc


def _pick(args, doc, key, default=None, flag=None):
    """The flag's value, else the config document's, else default.

    flag names the option when it differs from the config key.
    """
    value = getattr(args, (flag or key).replace("-", "_"), None)
    if value is not None:
        return value
    if key in doc:
        return doc[key]
    return default


def _need(args, doc, key, flag=None):
    value = _pick(args, doc, key, flag=flag)
    if value is None:
        raise ParameterError(f"missing required option --{(flag or key).replace('_', '-')}")
    return value


def _parse_model(spec):
    if isinstance(spec, dict):
        return model_from_json(spec)
    return model_from_json(str(spec))


def _parse_window(spec):
    if isinstance(spec, dict):
        return set_from_json(json.dumps(spec))
    return set_from_json(str(spec))


def _floats(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _grid(text):
    """start:stop:count linear grid, or a comma list."""
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    s = str(text)
    if ":" in s:
        start, stop, count = s.split(":")
        return list(np.linspace(float(start), float(stop), int(count)))
    return _floats(s)


def _cmd_covariance_eval(args, doc):
    model = _parse_model(_need(args, doc, "model"))
    rs = _floats(_need(args, doc, "r"))
    rows = [(r, float(covariance_eval(model, r))) for r in rs]
    return ("r", "covariance"), rows, {}


def _cmd_spectral_eval(args, doc):
    model = _parse_model(_need(args, doc, "model"))
    lams = _floats(_need(args, doc, "lam"))
    rows = [(lam, float(spectral_density(model, lam))) for lam in lams]
    return ("lam", "density"), rows, {}


def _cmd_spectral_fit(args, doc):
    model = _parse_model(_need(args, doc, "model"))
    grid = _pick(args, doc, "grid")
    grid = np.geomspace(1e-4, 10**-2.5, 10) if grid is None else np.asarray(_grid(grid))
    fit = residual_exponent_fit(model, grid)
    target = lrd_params(model).upsilon
    rows = [(model.family, float(fit), float(target), float(fit - target))]
    return ("family", "upsilon_fit", "upsilon_formula", "difference"), rows, {}


def _cmd_geometry_ft(args, doc):
    window = _parse_window(_need(args, doc, "set"))
    zs = _floats(_need(args, doc, "z"))
    direction = _pick(args, doc, "direction")
    if direction is None:
        vec = np.zeros(window.dimension)
        vec[0] = 1.0
    else:
        vec = np.asarray(_floats(direction), dtype=float)
        if vec.shape != (window.dimension,) or not np.linalg.norm(vec) > 0:
            raise ParameterError("direction must be a nonzero vector matching d")
        vec = vec / np.linalg.norm(vec)
    rows = []
    for z in zs:
        val = complex(indicator_ft(window, z * vec))
        rows.append((z, val.real, val.imag))
    return ("z", "ft_real", "ft_imag"), rows, {}


def _cmd_hermite_coeffs(args, doc):
    name = _need(args, doc, "functional")
    order = int(_pick(args, doc, "order", 6))
    quad = int(_pick(args, doc, "quad-order", DEFAULT_QUAD_ORDER))
    expansion = hermite_coefficients(functional_catalog(name), order, quad)
    rows = [(j, c) for j, c in enumerate(expansion.coeffs)]
    return ("j", "coefficient"), rows, {"rank": expansion.rank, "functional": name}


def _cmd_simulate_field(args, doc, out, seed):
    model = _parse_model(_need(args, doc, "model"))
    plan = SimulationPlan(
        model=model,
        dimension=int(_pick(args, doc, "d", model.dimension)),
        h=float(_need(args, doc, "h")),
        extent=float(_need(args, doc, "extent")),
        seed=int(seed),
        padding=int(_pick(args, doc, "padding", 4)),
        clamp_tol=float(_pick(args, doc, "clamp-tol", 1e-8)),
    )
    if out is None:
        raise ParameterError("simulate field writes binary output; --out is required")
    fld = simulate_field(plan)
    export_field(fld, out)
    return {"n_per_axis": plan.n_per_axis, "path": out}


def _cmd_rosenblatt_build(args, doc, out):
    window = _parse_window(_need(args, doc, "set"))
    d = int(_pick(args, doc, "d", window.dimension))
    alpha = float(_need(args, doc, "alpha"))
    n_nodes = _pick(args, doc, "n-nodes")
    cutoff = _pick(args, doc, "cutoff")
    keep = int(_pick(args, doc, "keep", 300))
    kernel = build_kernel(
        window,
        d,
        alpha,
        n_nodes=None if n_nodes is None else int(n_nodes),
        cutoff=None if cutoff is None else float(cutoff),
    )
    series = eigen_series(kernel, min(keep, kernel.spectrum_size))
    info = {"raw_variance": series.raw_variance, "tail_mass": series.tail_mass}
    if not bool(_pick(args, doc, "no-calibrate", False)):
        oracle = variance_oracle(window, alpha, d)
        series = calibrate_series(series, oracle)
        info["oracle_variance"] = oracle
        info["calibration_factor"] = series.calibration_factor
    text = series_to_json(series)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return info


def _cmd_rosenblatt_sample(args, doc, seed):
    path = _need(args, doc, "series")
    with open(path, "r", encoding="utf-8") as fh:
        series = series_from_json(fh.read())
    n = int(_need(args, doc, "n"))
    draws = sample(series, n, int(seed))
    return ("x",), [(float(v),) for v in draws], {"series": path, "n": n}


def _cmd_rate_bound(args, doc):
    model_spec = _pick(args, doc, "model")
    if model_spec is not None:
        q = _pick(args, doc, "q")
        inputs = inputs_from_model(_parse_model(model_spec), q=None if q is None else float(q))
    else:
        inputs = _rate_inputs_from_flags(args, doc)
    rows = [
        (
            inputs.dimension,
            inputs.alpha,
            inputs.q,
            inputs.upsilon,
            kappa1(inputs),
            geometric_term(inputs),
            kappa_bound(inputs),
            inputs.theorem_applicable,
        )
    ]
    header = (
        "d", "alpha", "q", "upsilon",
        "kappa1", "geometric_term", "kappa_bound", "theorem_applicable",
    )
    return header, rows, {}


def _rate_inputs_from_flags(args, doc):
    from .ratelab import RateInputs

    return RateInputs(
        dimension=int(_need(args, doc, "d")),
        alpha=float(_need(args, doc, "alpha")),
        q=float(_need(args, doc, "q")),
        upsilon=float(_need(args, doc, "upsilon")),
    )


def _cmd_rate_curves(args, doc):
    family = str(_need(args, doc, "family"))
    grid = _grid(_need(args, doc, "alpha-grid"))
    q = _pick(args, doc, "q")
    q = None if q is None else float(q)
    if family == "localglobal":
        theta = float(_pick(args, doc, "theta", 0.5))
        from .covmodels import local_global

        builder = lambda a: local_global(1, a, theta)
    elif family == "linnik":
        d = int(_need(args, doc, "d"))
        sigma = float(_need(args, doc, "sigma"))
        from .covmodels import linnik

        builder = lambda a: linnik(d, sigma, a / sigma)
    else:
        raise ParameterError(f"unknown curve family {family!r}; use localglobal or linnik")
    rows = [
        tuple(row[c] for c in CURVE_COLUMNS) for row in curve_table(builder, grid, q=q)
    ]
    return CURVE_COLUMNS, rows, {"family": family}


def _cmd_rate_experiment(args, doc, out, seed):
    config = ExperimentConfig(
        model=_parse_model(_need(args, doc, "model")),
        window=_parse_window(_need(args, doc, "window", flag="set")),
        functional=str(_need(args, doc, "functional")),
        r_grid=tuple(_floats(_need(args, doc, "r_grid", flag="r"))),
        replicates=int(_pick(args, doc, "replicates", 1000)),
        reference_size=int(_pick(args, doc, "reference_size", 200000)),
        master_seed=int(seed),
        h=float(_pick(args, doc, "h", 0.25)),
        out=out,
    )
    table = rate_experiment(config)
    info = {
        "config": json.loads(config_to_json(config)),
        "runtime_seconds": [row.runtime_seconds for row in table.rows],
    }
    try:
        fit = slope_fit(table)
        info["slope_fit"] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "slope_stderr": fit.slope_stderr,
            "kappa_bound": fit.kappa_bound,
            "consistent": fit.consistent,
        }
    except DegenerateFitError as exc:
        info["slope_fit"] = str(exc)
    return RHO_CSV_COLUMNS, table.csv_rows(), info


def _cmd_verify_supmin(args, doc):
    d = int(_need(args, doc, "d"))
    alpha = float(_need(args, doc, "alpha"))
    q = float(_need(args, doc, "q"))
    upsilon = float(_need(args, doc, "upsilon"))
    res = int(_pick(args, doc, "resolution", 1000))
    search = SupMinSearch(
        beta_points=res,
        gamma_points=res,
        gamma0_points=res,
        refine=not bool(_pick(args, doc, "no-refine", False)),
    )
    rep = kappa0_identity_check(d, alpha, q, upsilon, search)
    header = (
        "grid_value", "closed_form", "deviation",
        "beta", "gamma", "gamma0", "resolution", "refined",
    )
    rows = [
        (
            rep.grid_value, rep.closed_form, rep.deviation,
            rep.argmax[0], rep.argmax[1], rep.argmax[2],
            res, rep.refined,
        )
    ]
    return header, rows, {}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rosenlab",
        description="Long-memory field experiments: covariances, spectra, "
        "Hermite functionals, limit-law sampling, and rate tables.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON document with option defaults")
    common.add_argument("--seed", type=int, help="master seed (default 0)")
    common.add_argument("--out", help="output path (stdout when omitted)")

    top = parser.add_subparsers(dest="group", required=True)

    cov = top.add_parser("covariance", help="covariance evaluation").add_subparsers(
        dest="action", required=True
    )
    p = cov.add_parser("eval", parents=[common])
    p.add_argument("--model", help="model JSON descriptor")
    p.add_argument("--r", help="comma-separated distances")

    spec = top.add_parser("spectral", help="spectral densities").add_subparsers(
        dest="action", required=True
    )
    p = spec.add_parser("eval", parents=[common])
    p.add_argument("--model")
    p.add_argument("--lam", help="comma-separated frequencies")
    p = spec.add_parser("fit-upsilon", parents=[common])
    p.add_argument("--model")
    p.add_argument("--grid", help="lambda grid, start:stop:count or comma list")

    geo = top.add_parser("geometry", help="window transforms").add_subparsers(
        dest="action", required=True
    )
    p = geo.add_parser("ft", parents=[common])
    p.add_argument("--set", help="window JSON descriptor")
    p.add_argument("--z", help="comma-separated radii")
    p.add_argument("--direction", help="ray direction for rectangular windows")

    her = top.add_parser("hermite", help="functional expansions").add_subparsers(
        dest="action", required=True
    )
    p = her.add_parser("coeffs", parents=[common])
    p.add_argument("--functional")
    p.add_argument("--order", type=int)
    p.add_argument("--quad-order", type=int, dest="quad_order")

    sim = top.add_parser("simulate", help="field simulation").add_subparsers(
        dest="action", required=True
    )
    p = sim.add_parser("field", parents=[common])
    p.add_argument("--model")
    p.add_argument("--d", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--extent", type=float)
    p.add_argument("--padding", type=int)
    p.add_argument("--clamp-tol", type=float, dest="clamp_tol")

    ros = top.add_parser("rosenblatt", help="limit-law sampler").add_subparsers(
        dest="action", required=True
    )
    p = ros.add_parser("build", parents=[common])
    p.add_argument("--set")
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-nodes", type=int, dest="n_nodes")
    p.add_argument("--cutoff", type=float)
    p.add_argument("--keep", type=int)
    # default None keeps a config-file value from being shadowed by False
    p.add_argument("--no-calibrate", action="store_true", default=None, dest="no_calibrate")
    p = ros.add_parser("sample", parents=[common])
    p.add_argument("--series", help="series JSON path from rosenblatt build")
    p.add_argument("--n", type=int)

    rate = top.add_parser("rate", help="rate exponents and experiments").add_subparsers(
        dest="action", required=True
    )
    p = rate.add_parser("bound", parents=[common])
    p.add_argument("--model")
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--upsilon", type=float)
    p = rate.add_parser("curves", parents=[common])
    p.add_argument("--family", help="localglobal or linnik")
    p.add_argument("--alpha-grid", dest="alpha_grid", help="start:stop:count or comma list")
    p.add_argument("--d", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--theta", type=float)
    p.add_argument("--q", type=float)
    p = rate.add_parser("experiment", parents=[common])
    p.add_argument("--model")
    p.add_argument("--set")
    p.add_argument("--functional")
    p.add_argument("--r", help="comma-separated window scales")
    p.add_argument("--replicates", type=int)
    p.add_argument("--reference-size", type=int, dest="reference_size")
    p.add_argument("--h", type=float)

    ver = top.add_parser("verify", help="identity verification").add_subparsers(
        dest="action", required=True
    )
    p = ver.add_parser("supmin", parents=[common])
    p.add_argument("--d", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--upsilon", type=float)
    p.add_argument("--resolution", type=int)
    p.add_argument("--no-refine", action="store_true", default=None, dest="no_refine")

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    doc = _load_config_doc(getattr(args, "config", None))
    out = _pick(args, doc, "out")
    seed = int(_pick(args, doc, "seed", doc.get("master_seed", 0)))
    command = f"{args.group} {args.action}"
    t0 = time.perf_counter()

    header = rows = None
    info = {}
    if command == "covariance eval":
        header, rows, info = _cmd_covariance_eval(args, doc)
    elif command == "spectral eval":
        header, rows, info = _cmd_spectral_eval(args, doc)
    elif command == "spectral fit-upsilon":
        header, rows, info = _cmd_spectral_fit(args, doc)
    elif command == "geometry ft":
        header, rows, info = _cmd_geometry_ft(args, doc)
    elif command == "hermite coeffs":
        header, rows, info = _cmd_hermite_coeffs(args, doc)
    elif command == "simulate field":
        info = _cmd_simulate_field(args, doc, out, seed)
    elif command == "rosenblatt build":
        info = _cmd_rosenblatt_build(args, doc, out)
    elif command == "rosenblatt sample":
        header, rows, info = _cmd_rosenblatt_sample(args, doc, seed)
    elif command == "rate bound":
        header, rows, info = _cmd_rate_bound(args, doc)
    elif command == "rate curves":
        header, rows, info = _cmd_rate_curves(args, doc)
    elif command == "rate experiment":
        header, rows, info = _cmd_rate_experiment(args, doc, out, seed)
    elif command == "verify supmin":
        header, rows, info = _cmd_verify_supmin(args, doc)
    else:
        raise ParameterError(f"unknown command {command!r}")

    outputs = []
    if header is not None:
        written = _write_csv(out, header, rows)
        if written is not None:
            outputs.append(written)
    elif out is not None and command in ("simulate field", "rosenblatt build"):
        outputs.append(out)

    wall = time.perf_counter() - t0
    merged = {k: v for k, v in vars(args).items() if v is not None and k not in
              ("group", "action", "config")}
    merged["config_document"] = doc
    merged.update({f"derived_{k}": v for k, v in info.items() if _json_safe(v)})
    manifest = _write_manifest(
        out, command, merged, wall, {"master_seed": seed}, outputs
    )
    if manifest is not None:
        outputs.append(manifest)
    return 0


def _json_safe(value):
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False


if __name__ == "__main__":
    sys.exit(main())
