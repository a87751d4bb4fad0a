"""Observation windows, their Fourier transforms, and distance geometry.

A window is a ball of radius R or an axis-aligned rectangle with the origin
in its interior. Homothety enters everywhere through the scale factor r:
the scaled window is r times the base set. The module provides the window
volume, diameter and per-axis bounding box (bounds), the indicator Fourier
transform, the pdf of the distance between two independent uniform points,
and the reduction of double integrals of radial functions to
one-dimensional integrals against that pdf. The pdf is exact on balls and
intervals and refused on rectangles in d >= 2, which have no closed form
here (rosenblatt.variance_oracle integrates d = 2 rectangles over their
lag).

scipy is imported by the calls that need it, not with the module:
distance_pdf on a ball (scipy.special.betainc) and distance_integral
(scipy.integrate.quad). ball_ft_radial and indicator_ft load it through
y_d_kernel for d = 2 (J_1 of the d + 2 = 4 kernel) and d >= 3.
"""

import json
from dataclasses import dataclass
from math import gamma

import numpy as np

from .errors import (
    DomainError,
    IntegrabilityError,
    ParameterError,
    UnsupportedModelError,
    check_dimension,
    check_json_object,
)
from .specfun import y_d_kernel

__all__ = [
    "DomainSet",
    "ball",
    "rectangle",
    "set_from_json",
    "set_to_json",
    "volume",
    "diameter",
    "bounds",
    "indicator_ft",
    "distance_pdf",
    "distance_integral",
]


@dataclass(frozen=True)
class DomainSet:
    """Convex observation window: ball("ball") or rectangle("rect")."""

    shape: str
    dimension: int
    radius: float = 0.0
    lower: tuple = ()
    upper: tuple = ()

    def __post_init__(self):
        if self.shape not in ("ball", "rect"):
            raise ParameterError(f"unknown window shape {self.shape!r}")
        object.__setattr__(self, "dimension", check_dimension(self.dimension))
        if self.shape == "ball":
            if not self.radius > 0.0:
                raise ParameterError(f"ball radius must be positive, got {self.radius}")
        else:
            if len(self.lower) != self.dimension or len(self.upper) != self.dimension:
                raise ParameterError("rectangle bounds must have one entry per dimension")
            for a, b in zip(self.lower, self.upper):
                # origin interior keeps the homothety family nested
                if not (a < 0.0 < b):
                    raise ParameterError(
                        f"rectangle bounds must satisfy a_j < 0 < b_j, got [{a}, {b}]"
                    )


def ball(dimension, radius=1.0):
    return DomainSet("ball", dimension, radius=float(radius))


def rectangle(lower, upper):
    lower = tuple(float(a) for a in np.atleast_1d(lower))
    upper = tuple(float(b) for b in np.atleast_1d(upper))
    return DomainSet("rect", len(lower), lower=lower, upper=upper)


def set_to_json(window):
    if window.shape == "ball":
        return json.dumps({"shape": "ball", "R": window.radius, "d": window.dimension})
    return json.dumps({"shape": "rect", "a": list(window.lower), "b": list(window.upper)})


def set_from_json(text):
    obj = check_json_object(text, "window descriptor")
    if obj.get("shape") == "ball":
        if "d" not in obj:
            raise ParameterError("ball descriptor needs a dimension field 'd'")
        return ball(obj["d"], obj.get("R", 1.0))
    if obj.get("shape") == "rect":
        if "a" not in obj or "b" not in obj:
            raise ParameterError("rect descriptor needs corner fields 'a' and 'b'")
        return rectangle(obj["a"], obj["b"])
    raise ParameterError(f"unrecognized window descriptor {obj!r}")


def _check_r(r):
    r = float(r)
    if not r > 0.0:
        raise DomainError(f"scale factor r must be positive, got {r}")
    return r


def volume(window, r=1.0):
    """Volume of the scaled window, r^d times the base volume."""
    r = _check_r(r)
    d = window.dimension
    if window.shape == "ball":
        base = np.pi ** (0.5 * d) * window.radius**d / gamma(0.5 * d + 1.0)
    else:
        base = float(np.prod([b - a for a, b in zip(window.lower, window.upper)]))
    return r**d * base


def diameter(window, r=1.0):
    """Diameter of the scaled window."""
    r = _check_r(r)
    if window.shape == "ball":
        return 2.0 * window.radius * r
    edges = np.array(window.upper) - np.array(window.lower)
    return r * float(np.sqrt(np.sum(edges**2)))


def bounds(window, r=1.0):
    """Per-axis (low, high) of the box of the scaled window."""
    r = _check_r(r)
    if window.shape == "ball":
        reach = window.radius * r
        return ((-reach, reach),) * window.dimension
    return tuple((a * r, b * r) for a, b in zip(window.lower, window.upper))


def indicator_ft(window, x):
    """Fourier transform of the window indicator at frequency x.

    x has shape (d,) or (n, d). Balls give a real radial value; rectangles
    give a complex product, one closed form per axis,
    (b - a) e^{i(a+b)t/2} sinc((b - a)t / 2pi), which holds at every t.
    x = 0 returns the volume.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != window.dimension:
        raise DomainError(
            f"frequency has {pts.shape[1]} components, window dimension is {window.dimension}"
        )
    if window.shape == "ball":
        out = ball_ft_radial(window, np.sqrt(np.sum(pts**2, axis=1)))
        return float(out[0]) if single else out
    out = np.ones(pts.shape[0], dtype=complex)
    for j in range(window.dimension):
        a, b = window.lower[j], window.upper[j]
        t = pts[:, j]
        # (e^{ibt} - e^{iat}) / (it), with no cancellation as t -> 0
        out *= (b - a) * np.exp(0.5j * (a + b) * t) * np.sinc((b - a) * t / (2 * np.pi))
    return complex(out[0]) if single else out


def ball_ft_radial(window, z):
    """Radial profile of the ball transform: indicator_ft at any |x| = z."""
    if window.shape != "ball":
        raise DomainError("radial profile is defined for balls only")
    return volume(window) * y_d_kernel(window.dimension + 2, window.radius * np.asarray(z, dtype=float))


def _check_exact_pdf(window):
    if window.shape == "rect" and window.dimension >= 2:
        raise UnsupportedModelError(
            f"no distance pdf for a rectangle in d={window.dimension}; balls and "
            f"intervals only"
        )


def distance_pdf(window, r, z):
    """pdf of |X - Y| for X, Y independent uniform on the scaled window.

    Balls use the incomplete-beta closed form and intervals the triangular
    law. A rectangle in d >= 2 has no closed form here and is refused with
    UnsupportedModelError. Scalar or array z.
    """
    _check_exact_pdf(window)
    r = _check_r(r)
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0.0):
        raise DomainError("distance is nonnegative")
    d = window.dimension
    out = np.zeros_like(z)
    if window.shape == "ball":
        from scipy.special import betainc

        rho = window.radius * r
        # z = 0 included: z^(d-1) gives the d = 1 triangular endpoint 1/rho
        # and vanishes for d >= 2
        inside = (z >= 0.0) & (z < 2.0 * rho)
        zi = z[inside]
        # I_mu((d+1)/2, 1/2) at mu = 1 - x^2, never rounding 1 - x^2 in
        # double: as 1 - I_{x^2}(1/2, (d+1)/2) for small x, and with
        # mu = (1 - x)(1 + x) near the diameter
        x = zi / (2.0 * rho)
        a = 0.5 * (d + 1.0)
        vals = np.where(
            x * x <= 0.5,
            1.0 - betainc(0.5, a, x * x),
            betainc(a, 0.5, (1.0 - x) * (1.0 + x)),
        )
        out[inside] = d * rho ** (-d) * zi ** (d - 1.0) * vals
    else:
        ell = (window.upper[0] - window.lower[0]) * r
        inside = (z >= 0.0) & (z < ell)
        out[inside] = 2.0 * (ell - z[inside]) / ell**2
    return float(out[0]) if scalar else out


def distance_integral(window, r, upsilon_fn):
    """Double integral of upsilon(|x - y|) over the scaled window, squared.

    Reduces to |window(r)|^2 times the expectation of upsilon against the
    distance pdf, so it takes the windows distance_pdf takes: a rectangle in
    d >= 2 is refused with UnsupportedModelError. The integrand may blow up
    at zero; a log-slope probe near the origin rejects non-integrable
    singularities before quadrature. scipy.integrate is imported on the
    first call, not with the module.
    """
    _check_exact_pdf(window)
    from scipy.integrate import quad

    r = _check_r(r)
    d = window.dimension
    z1, z2 = 1e-7, 2e-7
    g1 = upsilon_fn(z1) * z1 ** (d - 1)
    g2 = upsilon_fn(z2) * z2 ** (d - 1)
    if g1 > 0.0 and g2 > 0.0:
        slope = np.log(g2 / g1) / np.log(2.0)
        if slope <= -1.0 + 1e-9:
            raise IntegrabilityError(
                f"integrand behaves like z^{slope:.3f} near zero after the surface "
                f"factor; the double integral diverges"
            )
    dmax = diameter(window, r)
    total_sq = volume(window, r) ** 2
    val, _ = quad(
        lambda z: upsilon_fn(z) * distance_pdf(window, r, z),
        0.0,
        dmax,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=300,
    )
    return total_sq * val
