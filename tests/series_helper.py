"""A limit-law series from a plain list of weights, shared by the tests."""

from rosenlab.rosenblatt import EigenSeries


def listed_series(nu):
    """The series of the weights nu. The CDF and the sampler read only the
    list, so its last weight stands for a one-term tail."""
    nu = tuple(float(v) for v in nu)
    return EigenSeries(eigenvalues=nu, leading_terms=len(nu) - 1,
                       tail_kappa3=8.0 * nu[-1] ** 3, weyl_ratio=1.0)
