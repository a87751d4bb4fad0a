"""Special functions with the package's domain checks and typed errors.

Gamma, Bessel K and the incomplete beta are called directly where they are
needed (math.gamma, scipy.special.kv and betainc). The radial window kernel
Y_d uses the closed forms in d <= 4 (cos, J_0, sin(z)/z and 2 J_1(z)/z),
which are both faster and more accurate than the generic J_nu. scipy has no
1F2, so the one family the local-global spectral density needs,
1F2(a; 1/2, a+1; z) at z = -lam^2/4 <= 0, is evaluated here: by Gauss-Jacobi
quadrature of its integral form for moderate z and by a trigonometric
expansion beyond. The tests check both functions against mpmath.

scipy.special is imported inside the calls that need it, not with the
module: hyp1f2_cosine for -625 < z <= 0 (roots_jacobi) and y_d_kernel for
d = 2 (j0), d = 4 (j1) and d > 4 (jv). The trigonometric 1F2 branch and
y_d_kernel in d = 1, 3 are math and numpy only.
"""

from functools import lru_cache
from math import cos, gamma, pi, sin, sqrt

import numpy as np

from .errors import DomainError

__all__ = [
    "hyp1f2_cosine",
    "y_d_kernel",
]

_HYP_TRIG_CUTOFF = -625.0  # lam = 50, where the trig expansion reaches rounding
_HYP_JACOBI_NODES = 64  # exact to rounding for cos(lam t) up to lam = 50


def _hyp1f2_trig(a, lam):
    """1F2(a; 1/2, a+1; -lam^2/4) for large lam.

    Equals 2a * int_0^1 r^(2a-1) cos(lam r) dr: one exact algebraic term from
    the origin plus the endpoint trig series from repeated integration by
    parts. Accurate to ~5e-10 at lam = 20, machine accuracy past lam ~ 50.
    """
    c = 2.0 * a - 1.0
    total = gamma(2.0 * a) * cos(pi * a) * lam ** (-2.0 * a)
    trig = (sin(lam), -cos(lam), -sin(lam), cos(lam))
    coef = 1.0
    prev = float("inf")
    for k in range(24):
        mag = abs(coef) * lam ** (-(k + 1.0))
        if mag >= prev:
            break
        prev = mag
        total += (-1.0) ** k * coef * lam ** (-(k + 1.0)) * trig[k % 4]
        coef *= c - k
        if coef == 0.0:
            break
    return 2.0 * a * total


@lru_cache(maxsize=8)
def _jacobi_rule(a):
    # a spectral density calls with one or two fixed a over a whole lambda
    # grid; the arrays are read-only because every caller shares them
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(_HYP_JACOBI_NODES, 0.0, 2.0 * a - 1.0)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _hyp1f2_jacobi(a, lam):
    """1F2(a; 1/2, a+1; -lam^2/4) = 2a int_0^1 t^(2a-1) cos(lam t) dt by
    Gauss-Jacobi quadrature, which integrates the weight t^(2a-1) exactly."""
    x, w = _jacobi_rule(a)
    return 2.0 * a * 2.0 ** (-2.0 * a) * float(np.dot(w, np.cos(0.5 * lam * (1.0 + x))))


def hyp1f2_cosine(a, z):
    """The cosine family 1F2(a; 1/2, a+1; z), a > 0 and z <= 0.

    For z = -lam^2/4 it equals 2a int_0^1 t^(2a-1) cos(lam t) dt.
    -625 < z <= 0 integrates that cosine form by Gauss-Jacobi quadrature,
    where the alternating ascending series would cancel; z <= -625
    (lam >= 50) uses the trigonometric large-argument expansion. z = 0 is
    taken, and gives 1 to 2 ulp, because -lam^2/4 underflows to -0 for lam
    below about 1e-162. DomainError for a <= 0 or z > 0.
    """
    a, z = float(a), float(z)
    if not a > 0.0:
        raise DomainError(f"hyp1f2_cosine requires a > 0, got {a}")
    if not z <= 0.0:
        raise DomainError(f"hyp1f2_cosine requires z <= 0, got {z}")
    if z <= _HYP_TRIG_CUTOFF:
        return _hyp1f2_trig(a, 2.0 * sqrt(-z))
    return _hyp1f2_jacobi(a, 2.0 * sqrt(-z))


def y_d_kernel(d, z):
    """Radial kernel Y_d(z) = 2^((d-2)/2) Gamma(d/2) J_{(d-2)/2}(z) z^((2-d)/2).

    Normalized so Y_d(0) = 1: Y_1 = cos, Y_2 = J_0, Y_3 = sin(z)/z and
    Y_4 = 2 J_1(z)/z. d > 4 uses the generic J_nu, and below z = 1e-3 the
    two-term power series, because J_nu(z) z^-nu underflows there for high
    orders. Accepts arrays.
    """
    if int(d) != d or d < 1:
        raise DomainError(f"y_d_kernel requires integer d >= 1, got {d}")
    d = int(d)
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise DomainError("y_d_kernel requires z >= 0")
    zs = np.atleast_1d(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 1:
            out = np.cos(zs)
        elif d == 2:
            from scipy.special import j0

            out = j0(zs)
        elif d == 3:
            out = np.sin(zs)
            out /= zs
        elif d == 4:
            from scipy.special import j1

            out = j1(zs)
            out *= 2.0
            out /= zs
        else:
            from scipy.special import jv

            nu = 0.5 * d - 1.0
            out = jv(nu, zs)
            out *= 2.0**nu * gamma(0.5 * d)
            out /= zs**nu
            small = zs < 1e-3
            zz = zs[small] ** 2
            out[small] = 1.0 - zz / (2.0 * d) + zz * zz / (8.0 * d * (d + 2.0))
    out[zs == 0.0] = 1.0
    return float(out[0]) if z.ndim == 0 else out
