"""A limit-law series from a plain list of weights, shared by the tests."""

from rosenlab.rosenblatt import EigenSeries


def listed_series(nu):
    """The series of the terms nu, one term per weight, grouped as
    series_from_json groups a listed document."""
    return EigenSeries.grouped(list(nu))
