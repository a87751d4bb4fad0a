"""Hermite expansion of square-integrable functionals of a Gaussian.

Coefficients C_j = E G(w) H_j(w) against the standard normal weight are
computed by Gauss-Hermite quadrature rescaled to the probabilists'
convention; the named functionals of the catalog carry closed forms, which
are used instead. The expansion object carries the detected Hermite rank
(first index j >= 1 with a coefficient above tolerance).

Quadrature nodes come from scipy's asymptotic-safe routine: the pure
recurrence construction overflows beyond a few hundred nodes, and
non-smooth functionals need thousands of nodes for stable coefficients (see
the order-stability guard in hermite_coefficients). Even then a kink at
w = 0, as in |w|, leaves an error near 1e-4, hence the closed forms.
scipy.special (roots_hermite) is therefore imported only where
hermite_coefficients integrates a plain callable; the catalog functionals
never load it.
"""

from dataclasses import dataclass
from math import factorial, pi, sqrt
from typing import Callable

import numpy as np

from .errors import AccuracyError, ParameterError

__all__ = [
    "HermiteExpansion",
    "CatalogFunctional",
    "hermite_coefficients",
    "functional_catalog",
    "DEFAULT_QUAD_ORDER",
]

DEFAULT_QUAD_ORDER = 8192
_STABILITY_RTOL = 2e-3


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients C_0..C_J of a functional, with detected rank.

    rank is the first j >= 1 with |C_j| above 1e-8 * max_j |C_j|, or None
    when there is none.
    """

    coeffs: tuple
    order: int
    rank: object


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
    return HermiteExpansion(
        coeffs=tuple(float(v) for v in c),
        order=J,
        rank=next((j for j in range(1, J + 1) if abs(c[j]) > 1e-8 * scale), None),
    )


@dataclass(frozen=True)
class CatalogFunctional:
    """A functional G with closed-form Hermite coefficients.

    Calling it evaluates G on an array; coefficient(j) is the exact
    C_j = E G(w) H_j(w), which hermite_coefficients uses in place of
    quadrature.
    """

    evaluate: Callable
    coefficient: Callable

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
    "h2": CatalogFunctional(lambda w: w * w - 1.0, lambda j: 2.0 if j == 2 else 0.0),
    "square": CatalogFunctional(lambda w: w * w, lambda j: {0: 1.0, 2: 2.0}.get(j, 0.0)),
    "abs-centered": CatalogFunctional(
        lambda w: np.abs(w) - sqrt(2.0 / pi), _abs_centered_coefficient
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
