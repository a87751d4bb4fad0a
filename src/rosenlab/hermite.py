"""Hermite expansion of square-integrable functionals of a Gaussian.

Coefficients C_j = E G(w) H_j(w) against the standard normal weight are
computed by Gauss-Hermite quadrature rescaled to the probabilists'
convention; the named functionals of the catalog carry closed forms, which
are used instead. The expansion object carries the detected Hermite rank
(first index j >= 1 with a coefficient above tolerance) and supports
Parseval accounting and truncated reconstruction.

Quadrature nodes come from scipy's asymptotic-safe routine: the pure
recurrence construction overflows beyond a few hundred nodes, and
non-smooth functionals need thousands of nodes for stable coefficients (see
the order-stability guard in hermite_coefficients). Even then a kink at
w = 0, as in |w|, leaves an error near 1e-4, hence the closed forms.
scipy.special (roots_hermite) is therefore imported only where a plain
callable is integrated, by hermite_coefficients and parseval_defect; the
catalog functionals never load it.
"""

from dataclasses import dataclass
from math import factorial, pi, sqrt
from typing import Callable

import numpy as np

from .errors import AccuracyError, ParameterError, RankError

__all__ = [
    "HermiteExpansion",
    "CatalogFunctional",
    "hermite_coefficients",
    "hermite_rank",
    "parseval_defect",
    "truncated_eval",
    "functional_catalog",
    "DEFAULT_QUAD_ORDER",
]

DEFAULT_QUAD_ORDER = 8192
_STABILITY_RTOL = 2e-3


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients C_0..C_J of a functional, with detected rank.

    rank is None when no coefficient with j >= 1 clears the default
    tolerance 1e-8 * max_j |C_j|.
    """

    coeffs: tuple
    order: int
    rank: object
    quad_order: int


def _hermite_matrix(J, w):
    """Rows H_0(w)..H_J(w) of the probabilists' recurrence."""
    H = np.empty((J + 1, w.size))
    H[0] = 1.0
    if J >= 1:
        H[1] = w
    for j in range(1, J):
        H[j + 1] = w * H[j] - j * H[j - 1]
    return H


def _coeffs_at(G, J, quad_order):
    from scipy.special import roots_hermite

    t, wt = roots_hermite(quad_order)
    x = sqrt(2.0) * t
    gx = np.asarray(G(x), dtype=float)
    H = _hermite_matrix(J, x)
    return (H * (wt * gx)).sum(axis=1) / sqrt(pi)


def _detect_rank(coeffs, tol):
    for j in range(1, len(coeffs)):
        if abs(coeffs[j]) > tol:
            return j
    return None


def hermite_coefficients(G, J, quad_order=DEFAULT_QUAD_ORDER):
    """Expansion of G to order J with a cross-order stability guard.

    A CatalogFunctional gives its closed-form coefficients. Any other G is
    integrated by quadrature, and the coefficients are recomputed at 1.5x
    the order; disagreement beyond 2e-3 relative to the coefficient scale
    means the order is too low for this functional and raises
    AccuracyError. G must accept ndarray input and be square-integrable
    against the normal weight (caller asserts).
    """
    J = int(J)
    if J < 0:
        raise ParameterError(f"expansion order must be >= 0, got {J}")
    quad_order = int(quad_order)
    if quad_order < 2 * J:
        raise ParameterError(
            f"quad_order {quad_order} too low for order {J}; need quad_order >= 2J"
        )
    if isinstance(G, CatalogFunctional):
        c = np.array([G.coefficient(j) for j in range(J + 1)])
        drift = 0.0
    else:
        c = _coeffs_at(G, J, quad_order)
        drift = float(np.max(np.abs(c - _coeffs_at(G, J, int(1.5 * quad_order)))))
    scale = max(float(np.max(np.abs(c))), 1e-12)
    if drift > _STABILITY_RTOL * scale:
        raise AccuracyError(
            f"Hermite coefficients unstable across quadrature orders "
            f"{quad_order}/{int(1.5 * quad_order)}: drift {drift:.2e} vs scale {scale:.2e}",
            estimate=drift / scale,
        )
    tol = 1e-8 * scale
    return HermiteExpansion(
        coeffs=tuple(float(v) for v in c),
        order=J,
        rank=_detect_rank(c, tol),
        quad_order=quad_order,
    )


def hermite_rank(expansion, tol=None):
    """Smallest j >= 1 with |C_j| > tol; RankError if none exists."""
    if tol is None:
        tol = 1e-8 * max(max(abs(v) for v in expansion.coeffs), 1e-12)
    if tol < 0.0:
        raise ParameterError(f"tolerance must be nonnegative, got {tol}")
    rank = _detect_rank(expansion.coeffs, tol)
    if rank is None:
        raise RankError(
            f"no Hermite coefficient with 1 <= j <= {expansion.order} exceeds {tol:.2e}"
        )
    return rank


def parseval_defect(G, expansion):
    """Energy not captured by the truncation: E G^2 - sum C_j^2 / j!.

    A CatalogFunctional gives E G^2 in closed form; for any other G it is
    integrated by Gauss-Hermite quadrature, which a kink such as |w|'s
    leaves off by about 1e-4. Nonnegative up to that quadrature error;
    decreasing in the truncation order.
    """
    if isinstance(G, CatalogFunctional):
        total = G.second_moment
    else:
        from scipy.special import roots_hermite

        t, wt = roots_hermite(expansion.quad_order)
        x = sqrt(2.0) * t
        gx = np.asarray(G(x), dtype=float)
        total = float((wt * gx * gx).sum() / sqrt(pi))
    acc = 0.0
    fact = 1.0
    for j, cj in enumerate(expansion.coeffs):
        if j > 0:
            fact *= j
        acc += cj * cj / fact
    return total - acc


def truncated_eval(expansion, w):
    """Partial sum sum_j C_j H_j(w) / j! at w (scalar or ndarray)."""
    w = np.asarray(w, dtype=float)
    H = _hermite_matrix(len(expansion.coeffs) - 1, w.ravel())
    scaled = np.array([cj / factorial(j) for j, cj in enumerate(expansion.coeffs)])
    acc = (scaled @ H).reshape(w.shape)
    return float(acc) if w.ndim == 0 else acc


@dataclass(frozen=True)
class CatalogFunctional:
    """A functional G with closed-form Hermite coefficients.

    Calling it evaluates G on an array; coefficient(j) is the exact
    C_j = E G(w) H_j(w), which hermite_coefficients uses in place of
    quadrature, and second_moment is the exact E G(w)^2, which
    parseval_defect uses.
    """

    evaluate: Callable
    coefficient: Callable
    second_moment: float

    def __call__(self, w):
        return self.evaluate(w)


def _abs_centered_coefficient(j):
    # E|w| H_2k(w) = sqrt(2/pi) (-1)^(k+1) (2k-2)! / (2^(k-1) (k-1)!) for
    # k >= 1; the centering cancels C_0 = E|w| and odd orders vanish
    if j == 0 or j % 2:
        return 0.0
    k = j // 2
    return sqrt(2.0 / pi) * (-1) ** (k + 1) * factorial(2 * k - 2) / (
        2 ** (k - 1) * factorial(k - 1)
    )


_CATALOG = {
    "h2": CatalogFunctional(lambda w: w * w - 1.0, lambda j: 2.0 if j == 2 else 0.0, 2.0),
    "square": CatalogFunctional(
        lambda w: w * w, lambda j: {0: 1.0, 2: 2.0}.get(j, 0.0), 3.0
    ),
    # E(|w| - E|w|)^2 = E w^2 - (E|w|)^2
    "abs-centered": CatalogFunctional(
        lambda w: np.abs(w) - sqrt(2.0 / pi), _abs_centered_coefficient, 1.0 - 2.0 / pi
    ),
}


def functional_catalog(name):
    """Named functionals addressable from the CLI, as CatalogFunctional.

    "h2" is the second Hermite polynomial, "square" is w^2, "abs-centered"
    is |w| - sqrt(2/pi) (mean-zero, Hermite rank 2).
    """
    if name not in _CATALOG:
        raise ParameterError(
            f"unknown functional {name!r}; catalog: {sorted(_CATALOG)}"
        )
    return _CATALOG[name]
