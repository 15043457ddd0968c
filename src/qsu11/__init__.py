"""Numerical q-series kernels plus spherical-coefficient verification suites.

The package evaluates q-Pochhammer products and 2phi1 series with
certified tail bounds, the three-case spherical coefficients and
lattice coefficient families built from them, limit sweeps and gap
experiments over those families, and Gaussian contour smoothing of the
coefficients; :mod:`qsu11.harness` packages fixed check suites over
all of it with reproducible CSV/JSON reports.
"""

from __future__ import annotations

__version__ = "0.1.0"

from ._kernels import backend
from .errors import (
    DivergentSeriesError,
    InvalidArgumentError,
    PathOutsideDomainError,
    PoleGuardError,
    PoleInCError,
    QSU11Error,
    QuadratureUnderResolvedError,
)
from .qcalculus import (
    EPS_POLE,
    QBase,
    SeriesEval,
    ThetaPair,
    phi21_continued,
    phi21_direct,
    phi21_heine,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
    qpoch_signed,
    theta_pair,
)
from .su11core import (
    IqPoint,
    SpectralParam,
    StructuralMaps,
    averaged_coamen,
    coamen_coeff,
    spherical_az,
    spherical_window,
    structural_maps,
)
from .limitlab import (
    SWEEP_FAMILIES,
    ApproxIdentityGap,
    SweepReport,
    SweepRow,
    Symbol,
    approx_identity_gap,
    limit_sweep,
    pochhammer_ratio,
    pochhammer_ratio_naive,
    symbol_clip_abs,
    symbol_constant,
    uniform_sup_gap,
)
from .smoother import (
    ContourPath,
    QuadratureSpec,
    SmoothedValue,
    gaussian_smooth,
    path_independence,
)
from .harness import RunConfig, run_suite

__all__ = [
    "__version__",
    "backend",
    "QSU11Error",
    "InvalidArgumentError",
    "PoleInCError",
    "PoleGuardError",
    "DivergentSeriesError",
    "PathOutsideDomainError",
    "QuadratureUnderResolvedError",
    "EPS_POLE",
    "QBase",
    "SeriesEval",
    "ThetaPair",
    "qpoch_finite",
    "qpoch_signed",
    "qpoch_infinite",
    "qpoch_multi",
    "theta_pair",
    "phi21_direct",
    "phi21_continued",
    "phi21_heine",
    "IqPoint",
    "StructuralMaps",
    "SpectralParam",
    "structural_maps",
    "spherical_az",
    "spherical_window",
    "coamen_coeff",
    "averaged_coamen",
    "SweepRow",
    "SweepReport",
    "SWEEP_FAMILIES",
    "Symbol",
    "symbol_clip_abs",
    "symbol_constant",
    "limit_sweep",
    "uniform_sup_gap",
    "ApproxIdentityGap",
    "approx_identity_gap",
    "pochhammer_ratio",
    "pochhammer_ratio_naive",
    "ContourPath",
    "QuadratureSpec",
    "SmoothedValue",
    "gaussian_smooth",
    "path_independence",
    "RunConfig",
    "run_suite",
]
