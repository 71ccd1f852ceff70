"""Spectrum and bispectrum estimation with flat-top lag-windows.

Public surface: sample cumulants, lag-window kernels, smoothed spectral
estimators, data-driven bandwidth selection, simulation models, and a
Monte-Carlo evaluation harness.
"""

from .bandwidth import (
    BandwidthSelection,
    bootstrap_threshold,
    lex_point,
    plugin_bandwidth,
    plugin_formula,
    select_bandwidth_bispectrum,
    select_bandwidth_general,
)
from .cumulants import (
    TimeSeries,
    central_moment_estimate,
    joint_cumulant_estimate,
    normalized_cumulant,
)
from .evaluate import (
    CriterionResult,
    PrincipalGrid,
    StudyReport,
    bandwidth_histogram_study,
    composite_grid,
    err_lambda,
    run_mse_study,
)
from .exceptions import (
    DegenerateSeriesError,
    FlatTopSpecError,
    MissingReferenceError,
    OrderError,
)
from .models import (
    MODEL_KINDS,
    ModelSpec,
    ReferenceTable,
    build_reference_table,
    generate,
    reference_bispectrum,
    true_spectrum,
)
from .spectra import (
    BispectrumLagCache,
    SpectralEstimate,
    bispectrum_curvature,
    canonical_frequency,
    estimate_bispectrum,
    estimate_bispectrum_partial,
    estimate_spectrum,
)
from .windows import (
    FlatTopReport,
    LagWindow,
    bessel_j2,
    flat_top_rcf,
    flat_top_rpf,
    lambda_opt,
    lambda_rc,
    lambda_rcf,
    lambda_rp,
    lambda_rpf,
    opt_truncation_radius,
    optimal_window,
    parse_window,
    parzen_window,
    parzen_window_2d,
    symmetrize,
    symmetrize_even_1d,
    trapezoid_window,
    validate_flat_top,
    window_curvature_at_zero,
    window_l2_norm,
)

__version__ = "0.1.0"
