"""Hermite expansion of square-integrable functionals of a Gaussian.

Coefficients C_j = E G(w) H_j(w) against the standard normal weight, in the
probabilists' convention. Every functional a command reaches is a named
CatalogFunctional, and each carries its coefficients in closed form, so
that is the one way they are computed; any other G is refused. The
expansion object carries the detected Hermite rank (first index j >= 1
with a coefficient above tolerance).
"""

from dataclasses import dataclass
from math import factorial, lgamma, pi, sqrt
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = [
    "HermiteExpansion",
    "CatalogFunctional",
    "hermite_coefficients",
    "functional_catalog",
]


# the largest order whose abs-centered coefficients are all finite doubles:
# C_174 needs 172!, which exceeds the largest double
_MAX_ORDER = 172


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients C_0..C_J of a functional, with detected rank.

    rank is the first j >= 1 whose term has an L^2 norm |C_j| / sqrt(j!)
    above 1e-8 times the largest term's, or None when there is none. C_j
    itself grows like sqrt(j!): beside C_22 of abs-centered, 1e-8 max_j |C_j|
    exceeds C_2.
    """

    coeffs: tuple
    rank: object


def hermite_coefficients(G, J):
    """Closed-form expansion of the CatalogFunctional G to order J.

    ParameterError, before any coefficient is computed, for an order
    outside [0, _MAX_ORDER] or a G that is not a CatalogFunctional.
    """
    J = int(J)
    if not 0 <= J <= _MAX_ORDER:
        raise ParameterError(f"expansion order must lie in [0, {_MAX_ORDER}], got {J}")
    if not isinstance(G, CatalogFunctional):
        raise ParameterError(
            f"Hermite coefficients need a CatalogFunctional, got {type(G).__name__}; "
            f"catalog: {sorted(_CATALOG)}"
        )
    c = np.array([G.coefficient(j) for j in range(J + 1)])
    norms = np.abs(c) * np.exp([-0.5 * lgamma(j + 1.0) for j in range(J + 1)])
    scale = max(float(np.max(norms)), 1e-12)
    return HermiteExpansion(
        coeffs=tuple(float(v) for v in c),
        rank=next((j for j in range(1, J + 1) if norms[j] > 1e-8 * scale), None),
    )


@dataclass(frozen=True)
class CatalogFunctional:
    """A functional G with closed-form Hermite coefficients.

    Calling it evaluates G on an array; coefficient(j) is the exact
    C_j = E G(w) H_j(w), which hermite_coefficients returns.
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
