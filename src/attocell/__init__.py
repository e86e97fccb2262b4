"""Coverage probability for Bernoulli-thinned square-grid LiFi attocells.

The library has three layers: an analytic pipeline (closed-form lattice
sums feeding a Gaussian conditional-coverage formula, spatially averaged
over the attocell), an independent Monte Carlo oracle that samples thinning
realizations outright, and a CLI that sweeps both over parameter grids and
writes CSV curves.
"""

from .coverage import (
    CoverageCurve,
    attocell_quadrature,
    conditional_coverage,
    coverage_curve,
    coverage_curves,
    coverage_spatial,
    db_to_linear,
    eta,
    threshold_at_level,
)
from .lattice_sums import SumResult, moment_sums, sm_brute, sm_series, sv_brute, sv_series
from .model import (
    NetworkGeometry,
    OpticalConfig,
    TABLE_DEFAULT_OPTICS,
    gain_constant,
    lambertian_order,
)
from .montecarlo import (
    CltDiagnostics,
    ThinningModel,
    clt_diagnostics,
    empirical_coverage_curves,
    interference_samples,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageCurve",
    "attocell_quadrature",
    "conditional_coverage",
    "coverage_curve",
    "coverage_curves",
    "coverage_spatial",
    "db_to_linear",
    "eta",
    "threshold_at_level",
    "SumResult",
    "moment_sums",
    "sm_brute",
    "sm_series",
    "sv_brute",
    "sv_series",
    "NetworkGeometry",
    "OpticalConfig",
    "TABLE_DEFAULT_OPTICS",
    "gain_constant",
    "lambertian_order",
    "CltDiagnostics",
    "ThinningModel",
    "clt_diagnostics",
    "empirical_coverage_curves",
    "interference_samples",
    "__version__",
]
