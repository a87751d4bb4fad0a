"""Shared test setup: the mpmath oracles run at 40 significant digits."""

import mpmath as mp
import pytest


@pytest.fixture(autouse=True)
def _mpmath_digits():
    with mp.workdps(40):
        yield
