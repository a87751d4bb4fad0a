"""Closed-form convergence-rate exponents and their sup-min verification.

The rank-2 normalized functionals approach their limit law at a rate whose
exponent is a minimum of two branches: a geometric term alpha(d-2alpha)/
(d-alpha) coming from the window's boundary, and a harmonic-mean term
driven by the covariance remainder exponents q and upsilon. Everything
here is a pure formula except kappa0_identity_check, whose grid search
re-derives the optimized exponent kappa1 / 3 by brute force, so the closed
form is machine-checked rather than trusted.

The rate formulas stay well-defined (and are plotted) even where q fails
the strict applicability condition q < d/2 - alpha, so RateInputs exposes
that condition as a property instead of rejecting such inputs.
"""

from dataclasses import dataclass

import numpy as np

from .covmodels import lrd_params
from .errors import DomainError, ParameterError, check_dimension

__all__ = [
    "RateInputs",
    "SupMinReport",
    "kappa1",
    "geometric_term",
    "kappa_bound",
    "kappa0_identity_check",
    "curve_table",
    "inputs_from_params",
    "inputs_from_model",
    "CURVE_COLUMNS",
]

CURVE_COLUMNS = ("alpha", "kappa1_over_3", "geometric_term_over_3", "kappa_bound")
# grid points of one kappa0_identity_check pass, resolution^2
_SCAN_BUDGET = 10**7


@dataclass(frozen=True)
class RateInputs:
    """Dimension, memory exponent alpha, remainder exponents q and upsilon."""

    dimension: int
    alpha: float
    q: float
    upsilon: float

    def __post_init__(self):
        d = check_dimension(self.dimension)
        object.__setattr__(self, "dimension", d)
        if not (0.0 < self.alpha < 0.5 * d):
            raise DomainError(
                f"alpha must lie in (0, d/2) = (0, {0.5 * d}), got {self.alpha}"
            )
        if not self.q > 0.0:
            raise DomainError(f"q must be positive, got {self.q}")
        if not self.upsilon > 0.0:
            raise DomainError(f"upsilon must be positive, got {self.upsilon}")

    @property
    def theorem_applicable(self):
        """Strict condition q < d/2 - alpha under which the rate is proved."""
        return self.q < 0.5 * self.dimension - self.alpha


def _harmonic(d, alpha, upsilon):
    return 1.0 / (2.0 / (d - 2.0 * alpha) + 2.0 / (d + 1.0 - 2.0 * alpha) + 1.0 / upsilon)


def kappa1(inputs):
    """Rate exponent 2 min(q, harmonic mean of the remainder exponents)."""
    return 2.0 * min(inputs.q, _harmonic(inputs.dimension, inputs.alpha, inputs.upsilon))


def geometric_term(inputs):
    """Window-boundary branch alpha (d - 2 alpha) / (d - alpha)."""
    d, a = inputs.dimension, inputs.alpha
    return a * (d - 2.0 * a) / (d - a)


def kappa_bound(inputs):
    """Supremum of admissible rate exponents: min of both branches over 3."""
    return min(geometric_term(inputs), kappa1(inputs)) / 3.0


@dataclass(frozen=True)
class SupMinReport:
    """Grid-search value of the triple sup-min against the closed form."""

    grid_value: float
    closed_form: float
    deviation: float
    argmax: tuple
    resolution: int


def _beta_grid_peak(c, n_beta, lo, hi):
    """Best value of min(beta, c - 2 beta) over a uniform beta grid.

    The objective is increasing then decreasing in beta with peak at c/3,
    so the grid maximum sits at one of the two points bracketing the peak;
    evaluating only those equals the full beta loop.
    """
    step = (hi - lo) / (n_beta + 1)
    betas = lo + step * np.arange(1, n_beta + 1)
    idx = np.clip(((c / 3.0 - lo) / step).astype(int) - 1, 0, n_beta - 1)
    best = np.full(c.shape, -np.inf)
    arg = np.zeros(c.shape)
    for off in (0, 1, 2):
        k = np.clip(idx + off, 0, n_beta - 1)
        b = betas[k]
        val = np.minimum(b, c - 2.0 * b)
        better = val > best
        best = np.where(better, val, best)
        arg = np.where(better, b, arg)
    return best, arg


def _scan(d, alpha, q, upsilon, n, g_lo, g_hi, b_lo, b_hi, g0_win=None):
    k = np.arange(1, n + 1)
    gam = g_lo + (g_hi - g_lo) * k / (n + 1.0)
    frac = k / (n + 1.0)
    if g0_win is None:
        g0 = gam[:, None] * frac[None, :]
    else:
        # refined absolute window; points at or beyond gamma drop out on
        # their own because (gamma - g0) turns the objective negative
        lo, hi = max(0.0, g0_win[0]), g0_win[1]
        g0 = np.broadcast_to(lo + (hi - lo) * frac[None, :], (n, n))
    c = np.minimum(2.0 * q, 2.0 * upsilon * (1.0 - gam))[:, None]
    c = np.minimum(c, (gam[:, None] - g0) * (d - 2.0 * alpha))
    c = np.minimum(c, g0 * (d + 1.0 - 2.0 * alpha))
    best, barg = _beta_grid_peak(c, n, b_lo, b_hi)
    flat = int(np.argmax(best))
    i, j = divmod(flat, n)
    return float(best[i, j]), (float(barg[i, j]), float(gam[i]), float(g0[i, j]))


def kappa0_identity_check(inputs, resolution=1000):
    """Brute-force sup-min over (beta, gamma, gamma0) against kappa1 / 3.

    The optimized exponent satisfies sup_beta min(beta, kappa1 - 2 beta)
    = kappa1 / 3; the grid search re-derives it from the RateInputs without
    using the closed form and reports the deviation. Each axis has
    resolution points, strictly inside the open intervals beta, gamma in
    (0, 1) and gamma0 in (0, gamma), and a second pass re-grids around the
    coarse argmax. Each pass holds about 81 bytes per point of its
    resolution^2 grid, so ParameterError refuses a resolution^2 above
    _SCAN_BUDGET before either pass: 10^7 points peak at about 0.81 GB.
    """
    if int(resolution) != resolution or resolution < 8:
        raise ParameterError(f"resolution must be an integer >= 8, got {resolution}")
    n = int(resolution)
    if n * n > _SCAN_BUDGET:
        raise ParameterError(
            f"resolution {n} scans {n * n} grid points, over the 10^7 budget"
        )
    exponents = (inputs.dimension, inputs.alpha, inputs.q, inputs.upsilon)
    value, (b_star, g_star, g0_star) = _scan(*exponents, n, 0.0, 1.0, 0.0, 1.0)
    step = 2.0 / (n + 1.0)
    d0 = 2.0 * g_star / (n + 1.0)
    value2, arg2 = _scan(
        *exponents, n,
        max(0.0, g_star - step), min(1.0, g_star + step),
        max(0.0, b_star - step), min(1.0, b_star + step),
        g0_win=(g0_star - d0, g0_star + d0),
    )
    if value2 > value:
        value, (b_star, g_star, g0_star) = value2, arg2
    target = kappa1(inputs) / 3.0
    return SupMinReport(
        grid_value=value,
        closed_form=target,
        deviation=abs(value - target),
        argmax=(b_star, g_star, g0_star),
        resolution=n,
    )


def inputs_from_params(params, q=None):
    """RateInputs from long-memory parameters; q defaults to 0.999 q_max.

    The slack keeps q strictly below the admissible ceiling, which the
    theorem requires as an open condition.
    """
    if q is None:
        q = 0.999 * params.q_max
    return RateInputs(
        dimension=params.dimension,
        alpha=params.alpha,
        q=float(q),
        upsilon=params.upsilon,
    )


def inputs_from_model(model, q=None):
    return inputs_from_params(lrd_params(model), q=q)


def curve_table(builder, alpha_grid, q=None):
    """Rate-curve rows over an alpha grid for one model family.

    builder maps alpha to a covariance model; each row carries both rate
    branches (each over 3) and their min, ready for CSV plotting.
    """
    rows = []
    for a in np.asarray(alpha_grid, dtype=float):
        inputs = inputs_from_model(builder(float(a)), q=q)
        if abs(inputs.alpha - a) > 1e-12 * max(1.0, abs(a)):
            raise ParameterError(
                f"builder produced alpha={inputs.alpha} for requested {a}; "
                f"the grid must parametrize the memory exponent directly"
            )
        rows.append(
            {
                "alpha": float(a),
                "kappa1_over_3": kappa1(inputs) / 3.0,
                "geometric_term_over_3": geometric_term(inputs) / 3.0,
                "kappa_bound": kappa_bound(inputs),
            }
        )
    return rows
