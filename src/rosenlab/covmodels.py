"""Parametric long-memory covariance families and their spectral side.

Three isotropic families are supported: the Cauchy covariance
(1+r^2)^(-theta), the generalized Linnik covariance (1+r^sigma)^(-theta),
and a local-global model that is a power correction near zero glued to a
pure power tail. Each model in its long-memory regime exposes the tail
exponent alpha, a slowly varying factor L, the admissible singularity
budget q_max for cross-terms, and the origin correction exponent upsilon
of its spectral density. Spectral densities come from closed forms where
they exist and from adaptive quadrature of a real integrand otherwise.
scipy loads with the spectral calls that use it, not with the module: the
Cauchy density (scipy.special.kv) and the Linnik density (kv and
scipy.integrate.quad).
"""

import json
from dataclasses import dataclass, field
from math import atan2, cos, gamma, pi, sin
from typing import Callable

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateFitError,
    DomainError,
    ParameterError,
    RegimeError,
    UnsupportedModelError,
    check_dimension,
    check_json_object,
)
from .specfun import hyp1f2_cosine

__all__ = [
    "CovarianceModel",
    "LongMemoryParams",
    "cauchy",
    "linnik",
    "local_global",
    "model_from_json",
    "model_to_json",
    "covariance_eval",
    "lrd_params",
    "c2_constant",
    "spectral_density",
    "spectral_leading",
    "residual_exponent_fit",
]


@dataclass(frozen=True)
class CovarianceModel:
    """Isotropic covariance family: "cauchy", "linnik", or "localglobal"."""

    family: str
    dimension: int
    theta: float
    sigma: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dimension", check_dimension(self.dimension))
        if not self.theta > 0.0:
            raise ParameterError(f"theta must be positive, got {self.theta}")
        if self.family == "cauchy":
            pass
        elif self.family == "linnik":
            if not (0.0 < self.sigma <= 2.0):
                raise ParameterError(f"linnik requires sigma in (0, 2], got {self.sigma}")
        elif self.family == "localglobal":
            if self.dimension not in (1, 2):
                raise ParameterError("localglobal model is defined for d in {1, 2}")
            if not (0.0 < self.theta <= 0.5 * (3 - self.dimension)):
                raise ParameterError(
                    f"localglobal validity needs theta in (0, {(3 - self.dimension) / 2}], "
                    f"got {self.theta}"
                )
            if not self.alpha > 0.0:
                raise ParameterError(f"localglobal requires alpha > 0, got {self.alpha}")
        else:
            raise ParameterError(f"unknown covariance family {self.family!r}")


def cauchy(dimension, theta):
    return CovarianceModel("cauchy", dimension, float(theta))


def linnik(dimension, sigma, theta):
    return CovarianceModel("linnik", dimension, float(theta), sigma=float(sigma))


def local_global(dimension, alpha, theta):
    return CovarianceModel("localglobal", dimension, float(theta), alpha=float(alpha))


def model_to_json(model):
    obj = {"family": model.family, "d": model.dimension, "theta": model.theta}
    if model.family == "linnik":
        obj["sigma"] = model.sigma
    if model.family == "localglobal":
        obj["alpha"] = model.alpha
    return json.dumps(obj)


def model_from_json(text):
    obj = check_json_object(text, "model descriptor")
    fam = obj.get("family")
    fields = {
        "cauchy": ("d", "theta"),
        "linnik": ("d", "sigma", "theta"),
        "localglobal": ("d", "alpha", "theta"),
    }.get(fam)
    if fields is None:
        raise ParameterError(f"unrecognized model descriptor {obj!r}")
    missing = [k for k in fields if k not in obj]
    if missing:
        raise ParameterError(f"model descriptor missing {missing} for family {fam!r}")
    if fam == "cauchy":
        return cauchy(obj["d"], obj["theta"])
    if fam == "linnik":
        return linnik(obj["d"], obj["sigma"], obj["theta"])
    return local_global(obj["d"], obj["alpha"], obj["theta"])


@dataclass(frozen=True)
class LongMemoryParams:
    """Long-memory summary (alpha, L, q_max, upsilon) of a model, or synthetic.

    q_max is an open-interval supremum: downstream rate machinery must pick
    q strictly below it. slowly_varying is the evaluator t -> L(t).
    """

    dimension: int
    alpha: float
    slowly_varying: Callable[[float], float] = field(repr=False)
    q_max: float
    upsilon: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5 * self.dimension):
            raise RegimeError(
                f"long-memory regime needs alpha in (0, d/2) = (0, {self.dimension / 2}), "
                f"got {self.alpha}"
            )
        if not self.q_max > 0.0:
            raise RegimeError(f"q_max must be positive, got {self.q_max}")
        if not self.upsilon > 0.0:
            raise RegimeError(f"upsilon must be positive, got {self.upsilon}")


def covariance_eval(model, r):
    """Covariance B(r) at distance r >= 0; B(0) = 1 exactly. Accepts arrays."""
    scalar = np.ndim(r) == 0
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0.0):
        raise DomainError("covariance distance must be nonnegative")
    if model.family == "cauchy":
        out = (1.0 + r * r) ** (-model.theta)
    elif model.family == "linnik":
        out = (1.0 + r**model.sigma) ** (-model.theta)
    else:
        th, al = model.theta, model.alpha
        out = np.where(
            r <= 1.0,
            1.0 - (al / (th + al)) * r**th,
            (th / (th + al)) * np.maximum(r, 1e-300) ** (-al),
        )
    return float(out[0]) if scalar else out


def _cauchy_upsilon(d, theta):
    # min(2, d - 2 theta) reproduces the published case table on the whole
    # long-memory range, including the integer-offset and d >= 4 cases
    return min(2.0, d - 2.0 * theta)


def lrd_params(model):
    """Long-memory parameters (alpha, L, q_max, upsilon) of the model.

    Raises RegimeError outside the long-memory regime. The local-global
    model carries a published origin expansion only in d=1; d=2 is refused
    rather than guessed.
    """
    d = model.dimension
    if model.family == "cauchy" or (model.family == "linnik" and model.sigma == 2.0):
        theta = model.theta
        alpha = 2.0 * theta
        if not alpha < 0.5 * d:
            raise RegimeError(
                f"cauchy long-memory regime needs theta < d/4 = {d / 4}, got {theta}"
            )
        return LongMemoryParams(
            dimension=d,
            alpha=alpha,
            slowly_varying=lambda t, th=theta: (1.0 + t ** (-2.0)) ** (-th),
            q_max=min(2.0, 0.5 * d - alpha),
            upsilon=_cauchy_upsilon(d, theta),
        )
    if model.family == "linnik":
        sigma, theta = model.sigma, model.theta
        alpha = sigma * theta
        if not alpha < 0.5 * d:
            raise RegimeError(
                f"linnik long-memory regime needs sigma*theta < d/2 = {d / 2}, "
                f"got {alpha}"
            )
        if d <= 3 and 0.0 < theta < 1.0 and d / (theta + 1.0) < sigma < 2.0:
            upsilon = d - sigma * theta
        else:
            upsilon = sigma  # origin correction saturates at the model smoothness
        return LongMemoryParams(
            dimension=d,
            alpha=alpha,
            slowly_varying=lambda t, s=sigma, th=theta: (1.0 + t ** (-s)) ** (-th),
            q_max=min(sigma, 0.5 * d - alpha),
            upsilon=upsilon,
        )
    # local-global
    if d != 1:
        raise UnsupportedModelError(
            "local-global long-memory parameters are available for d=1 only; the "
            "d=2 spectral expansion has no closed form here"
        )
    alpha, theta = model.alpha, model.theta
    if not alpha < 0.5:
        raise RegimeError(f"local-global d=1 regime needs alpha < 1/2, got {alpha}")

    def lg_slowly_varying(t, al=alpha, th=theta):
        if t > 1.0:
            return th / (th + al)
        return (1.0 - (al / (th + al)) * t**th) * t**al

    return LongMemoryParams(
        dimension=1,
        alpha=alpha,
        slowly_varying=lg_slowly_varying,
        q_max=0.5 - alpha,
        upsilon=1.0 - alpha,
    )


def c2_constant(d, alpha):
    """Spectral normalization Gamma((d-alpha)/2) / (2^alpha pi^(d/2) Gamma(alpha/2))."""
    if not (0.0 < alpha < d):
        raise DomainError(f"c2_constant needs 0 < alpha < d, got alpha={alpha}, d={d}")
    return gamma(0.5 * (d - alpha)) / (2.0**alpha * pi ** (0.5 * d) * gamma(0.5 * alpha))


def _cauchy_density(d, theta, lam):
    from scipy.special import kv

    return (
        lam ** (theta - 0.5 * d)
        * kv(0.5 * d - theta, lam)
        / (2.0 ** (0.5 * d + theta - 1.0) * pi ** (0.5 * d) * gamma(theta))
    )


def _linnik_density(d, sigma, theta, lam):
    # real rational split of (1 + (iu)^sigma)^(-theta); the K-Bessel factor
    # truncates the domain (K(45) ~ 3e-20). scipy.integrate and
    # scipy.special load here, on first use, so that the package import does
    # not pay for them; the integrand closure reads kv from this scope
    from scipy.integrate import quad
    from scipy.special import kv

    nu = 0.5 * (d - 2.0)
    cs, sn = cos(0.5 * pi * sigma), sin(0.5 * pi * sigma)

    def integrand(u):
        t = u**sigma
        re, im = 1.0 + t * cs, t * sn
        mod = (re * re + im * im) ** (-0.5 * theta)
        ph = theta * atan2(im, re)
        return kv(nu, lam * u) * u ** (0.5 * d) * mod * sin(ph)

    ucut = 45.0 / lam
    total = 0.0
    errtot = 0.0
    last = 0.0
    for b in (min(1.0, ucut), min(1.0 / lam, ucut), ucut):
        if b > last:
            val, err = quad(integrand, last, b, limit=300, epsabs=1e-13, epsrel=1e-10)
            total += val
            errtot += err
            last = b
    if errtot > max(1e-9, 1e-6 * abs(total)):
        raise AccuracyError(
            f"linnik spectral quadrature error {errtot:.2e} too large at lam={lam}",
            estimate=errtot,
        )
    return lam ** (0.5 * (2.0 - d)) / (2.0 ** (0.5 * (d - 2.0)) * pi ** (0.5 * (d + 2.0))) * total


def _localglobal_density_1d(alpha, theta, lam):
    if not (0.0 < alpha < 1.0):
        raise DomainError(
            f"local-global d=1 spectral formula needs alpha in (0,1), got {alpha}"
        )
    f1 = hyp1f2_cosine(0.5 * (1.0 - alpha), -0.25 * lam * lam)
    f2 = hyp1f2_cosine(0.5 * (theta + 1.0), -0.25 * lam * lam)
    return (1.0 / pi) * (
        sin(lam) / lam
        + (theta / (theta + alpha))
        * (f1 / (alpha - 1.0) + lam ** (alpha - 1.0) * sin(0.5 * pi * alpha) * gamma(1.0 - alpha))
        - (alpha / ((theta + 1.0) * (theta + alpha))) * f2
    )


def spectral_density(model, lam):
    """Isotropic spectral density f(lam), lam > 0, scalar."""
    lam = float(lam)
    if not lam > 0.0:
        raise DomainError(f"spectral density needs lam > 0, got {lam}")
    d = model.dimension
    if model.family == "cauchy" or (model.family == "linnik" and model.sigma == 2.0):
        return _cauchy_density(d, model.theta, lam)
    if model.family == "linnik":
        return _linnik_density(d, model.sigma, model.theta, lam)
    if d != 1:
        raise UnsupportedModelError(
            "local-global spectral density is published for d=1 only"
        )
    return _localglobal_density_1d(model.alpha, model.theta, lam)


def spectral_leading(params, lam):
    """Leading origin asymptote c2(d, alpha) lam^(alpha-d) L(1/lam)."""
    lam = float(lam)
    if not lam > 0.0:
        raise DomainError(f"spectral leading term needs lam > 0, got {lam}")
    c2 = c2_constant(params.dimension, params.alpha)
    return c2 * lam ** (params.alpha - params.dimension) * params.slowly_varying(1.0 / lam)


def residual_exponent_fit(model, lam_grid):
    """Log-log slope of |f / leading - 1| on a small-frequency grid.

    Estimates the origin correction exponent upsilon. The grid must sit in
    (0, 0.1] with at least 8 points.
    """
    lam_grid = np.sort(np.asarray(lam_grid, dtype=float))
    if lam_grid.size < 8:
        raise ParameterError(f"need at least 8 grid points, got {lam_grid.size}")
    if np.any(lam_grid <= 0.0) or np.any(lam_grid > 0.1):
        raise ParameterError("upsilon fit grid must lie in (0, 0.1]")
    params = lrd_params(model)
    resid = np.empty(lam_grid.size)
    for i, lam in enumerate(lam_grid):
        f = spectral_density(model, lam)
        lead = spectral_leading(params, lam)
        resid[i] = abs(f / lead - 1.0)
    if np.any(resid < 1e-14):
        raise DegenerateFitError(
            "spectral residual at machine precision; no correction exponent to fit"
        )
    slope, _ = np.polyfit(np.log(lam_grid), np.log(resid), 1)
    return float(slope)
