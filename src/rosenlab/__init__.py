"""Numerical laboratory for long-range dependent fields and their
non-Gaussian limit laws.

Layers, bottom up: special-function kernels (specfun), isotropic
covariance families with long-memory parameters (covmodels), observation
window geometry (geometry), Hermite expansions of pointwise functionals
(hermite), circulant-embedding field simulation (fieldsim), the
chi-square-series limit-law sampler (rosenblatt), closed-form convergence
rate exponents (ratelab), and the experiment driver plus CLI (expcli).
"""

# set before the imports: expcli records it in every manifest
__version__ = "0.1.0"

from .covmodels import (
    CovarianceModel,
    LongMemoryParams,
    c2_constant,
    cauchy,
    covariance_eval,
    linnik,
    local_global,
    lrd_params,
    model_from_json,
    model_to_json,
    residual_exponent_fit,
    spectral_density,
    spectral_leading,
)
from .errors import (
    AccuracyError,
    CoverageError,
    DegenerateFitError,
    DomainError,
    EmbeddingError,
    IntegrabilityError,
    ParameterError,
    RankError,
    RegimeError,
    RosenlabError,
    UnsupportedModelError,
)
from .expcli import (
    ExperimentConfig,
    RhoRow,
    RhoTable,
    config_to_json,
    rate_experiment,
)
from .fieldsim import (
    GridField,
    SimulationPlan,
    export_field,
    functional_integral,
    import_field,
    ks_distance,
    normalized_statistic,
    simulate_field,
)
from .geometry import (
    ball,
    ball_ft_radial,
    distance_integral,
    distance_pdf,
    indicator_ft,
    rectangle,
    set_from_json,
    set_to_json,
    volume,
)
from .hermite import (
    HermiteExpansion,
    functional_catalog,
    hermite_coefficients,
)
from .ratelab import (
    RateInputs,
    curve_table,
    geometric_term,
    inputs_from_model,
    inputs_from_params,
    kappa0_identity_check,
    kappa1,
    kappa_bound,
)
from .rosenblatt import (
    EigenSeries,
    RosenblattKernel,
    build_kernel,
    cumulant,
    eigen_series,
    law_radius,
    limit_law,
    sample,
    series_cdf,
    series_from_json,
    series_to_json,
    variance_oracle,
)
from .specfun import hyp1f2_cosine, y_d_kernel
