"""Exception types shared across the package, and the checks of a seed, of
a dimension and of a JSON descriptor.

Each class marks one failure category so tests and callers can tell a bad
argument from a numerical breakdown. Everything derives from RosenlabError.
"""

import json
import reprlib
from numbers import Integral


class RosenlabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RosenlabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParameterError(RosenlabError, ValueError):
    """Structurally invalid parameter (wrong sign, wrong range, wrong shape)."""


class RegimeError(RosenlabError, ValueError):
    """Parameters valid for the model but outside the long-memory regime."""


class UnsupportedModelError(RosenlabError, NotImplementedError):
    """Requested a model/dimension combination with no implemented formula."""


class AccuracyError(RosenlabError, RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class IntegrabilityError(RosenlabError, ValueError):
    """Integrand diverges too fast at an endpoint for the integral to exist."""


class EmbeddingError(RosenlabError, RuntimeError):
    """Circulant embedding stays indefinite beyond tolerance on every torus tried."""


class CoverageError(RosenlabError, ValueError):
    """Simulation lattice does not cover the requested observation window."""


class RankError(RosenlabError, ValueError):
    """Functional does not have the Hermite rank an operation requires."""


class DegenerateFitError(RosenlabError, RuntimeError):
    """Not enough usable points above the noise floor to fit a slope."""


def check_seed(seed):
    """seed as an int, or ParameterError unless it is a nonnegative integer.

    Every entry point that seeds a generator calls this first. numpy refuses
    a negative seed too, but only at the first draw, after the work before
    it, and with a ValueError traceback; a bool, a float or a string would be
    truncated or refused there.
    """
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def check_dimension(dimension):
    """dimension as an int, or ParameterError unless it is a positive integer.

    A bool, a float (1.5 or 2.0) and text are refused, not truncated, so a
    descriptor's "d": 1.5 or "d": true builds nothing.
    """
    if isinstance(dimension, bool) or not isinstance(dimension, Integral) or dimension < 1:
        raise ParameterError(f"dimension must be a positive integer, got {dimension!r}")
    return int(dimension)


def check_json_object(text, what):
    """A JSON object's text as a dict; else ParameterError.

    Text that is not JSON, and JSON that is not an object, are refused here,
    not later with a JSONDecodeError or AttributeError; what names the text.
    """
    try:
        obj = json.loads(text)
    except ValueError:
        obj = None
    if not isinstance(obj, dict):
        raise ParameterError(f"{what} must be a JSON object, got {reprlib.repr(text)}")
    return obj
