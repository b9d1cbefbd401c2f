"""Spectral correlation density estimation toolkit.

Two SCD estimators (the FFT accumulation method and the strip spectral
correlation analyser, the latter with a decomposed two-stage transform that
scales to million-sample windows), double-precision validation oracles, a
DSSS-BPSK test-signal generator, an accelerator tile-count planner, and a
CLI for file-based workflows.
"""

from .errors import (
    CapacityError,
    ConfigurationError,
    DataError,
    DimensionError,
    DomainError,
    ScdError,
)
from .estimate import ALPHA_RANGE, F_RANGE, AlphaProfile, ScdEstimate, alpha_profile, scd_to_grid
from .fam import FamConfig, demodulate, fam_full, fam_scd, fam_to_grid, frame
from .fftcore import FftPlan, fft, fft_decomposed, fft_shift, get_plan
from .oracle import (
    ErrorStats,
    cdp_reference,
    demodulate_reference,
    detect_cycle_frequencies,
    dft_naive,
    error_stats,
    peak_relative_error,
    relative_error,
    scd_timesmoothed,
)
from .planner import DeviceModel, PlanReport, check_constraints, plan_fam, plan_ssca
from .signal import (
    DsssBpskConfig,
    WindowSpec,
    generate_dsss_bpsk,
    make_window,
    normalize,
    pn_sequence,
)
from .ssca import SscaConfig, cdp, ssca_2dfft, ssca_direct, ssca_full, ssca_to_grid

__version__ = "0.1.0"

__all__ = [
    "ALPHA_RANGE",
    "AlphaProfile",
    "CapacityError",
    "ConfigurationError",
    "DataError",
    "DeviceModel",
    "DimensionError",
    "DomainError",
    "DsssBpskConfig",
    "ErrorStats",
    "F_RANGE",
    "FamConfig",
    "FftPlan",
    "PlanReport",
    "ScdError",
    "ScdEstimate",
    "SscaConfig",
    "WindowSpec",
    "alpha_profile",
    "cdp",
    "cdp_reference",
    "check_constraints",
    "demodulate",
    "demodulate_reference",
    "detect_cycle_frequencies",
    "dft_naive",
    "error_stats",
    "fam_full",
    "fam_scd",
    "fam_to_grid",
    "fft",
    "fft_decomposed",
    "fft_shift",
    "frame",
    "generate_dsss_bpsk",
    "get_plan",
    "make_window",
    "normalize",
    "peak_relative_error",
    "plan_fam",
    "plan_ssca",
    "pn_sequence",
    "relative_error",
    "scd_timesmoothed",
    "scd_to_grid",
    "ssca_2dfft",
    "ssca_direct",
    "ssca_full",
    "ssca_to_grid",
    "__version__",
]
