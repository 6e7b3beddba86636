"""Softplus and neural-network INGARCH models for overdispersed count series.

A numpy-only library covering simulation, conditional maximum likelihood
estimation, moment approximation, residual diagnostics, and one-step-ahead
forecasting for count time series whose conditional mean follows a softplus
link on a linear predictor or a single-hidden-layer network, with Poisson or
negative binomial conditional distributions.
"""

__version__ = "0.1.0"

from .data import CountSeries, as_counts, dispersion_ratio, sample_acf
from .diagnostics import (
    cumulative_periodogram,
    one_step_forecasts,
    pacf_from_acf,
    pearson_residuals,
    rmse,
    sample_pacf,
)
from .distributions import RngStream, nb_log_pmf, nb_sample, poisson_log_pmf
from .estimate import (
    FitResult,
    OptimizerOptions,
    fit_cml,
    information_criteria,
    init_params,
    negloglik,
    negloglik_and_grad,
    select_fit,
    select_hidden_units,
    standard_errors,
)
from .exceptions import ConvergenceWarning, DataError, NumericError, ParameterError
from .model import (
    NEGBIN,
    NEURAL,
    POISSON,
    SOFTPLUS_LINEAR,
    LinearParams,
    ModelSpec,
    Moments,
    NeuralWeights,
    StationarityReport,
    check_stationarity,
    conditional_mean_path,
    linear_acvf_general,
    linear_moments_11,
    slfn_forward,
)
from .simulate import (
    MomentRow,
    SimConfig,
    StudyCell,
    StudyTable,
    empirical_moments,
    moment_study,
    simulate_path,
    simulation_study,
)
from .special import logistic, relu, softplus, softplus_deriv, softplus_inverse
