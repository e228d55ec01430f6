"""warplab: numerical laboratory for doubly warped product metrics.

Builds metrics dr^2 + f(r)^2 ds_k^2 + h(r)^2 ds_1^2 with decaying and
oscillating circle factors, certifies positive Ricci curvature, measures
covering-orbit growth through Clairaut geodesics on the halfplane
reduction, estimates capacity/box dimensions of orbit sets, and checks
rescaling convergence to Grushin halfplanes.
"""

__version__ = "0.1.0"

from .christoffel import StepTooLarge, ricci_numeric_oracle
from .config import ConfigError, RunConfig, parse_config
from .curvature import (
    DoublyWarpedMetric,
    NonPositiveWarping,
    RicciReport,
    log_grid,
    ricci_report,
)
from .dimension import (
    GeodesicOrbitMetric,
    LinearOrbitMetric,
    box_dimension_fit,
    build_capacity_profile,
    capacity,
    check_capacity_sandwich,
    fit_growth_constants,
    hausdorff_content,
)
from .gridpath import dijkstra_distance_oracle
from .grushin import (
    GrushinMetric,
    RescaledModel,
    convergence_report,
    grushin_distance,
    rescaled_distance,
)
from .halfplane import (
    GeodesicSolution,
    HalfplaneMetric,
    circle_length,
    clairaut_arc,
    invert_arc,
    orbit_distance,
    solve_turning_point,
)
from .harness import RunReport, run
from .jets import Jet2
from .ladder import (
    ExponentSchedule,
    LadderGrowthError,
    OscillationParams,
    ScaleLadder,
    build_scale_ladder,
)
from .orbits import GrowthWindow, OrbitTable, growth_slope
from .piecewise import PiecewiseH, build_piecewise_h
from .smoothing import (
    NotCertified,
    SmoothedH,
    build_oscillating_h,
    certify_positive_ricci,
    smooth,
    verify_observation,
)
from .warping import (
    WarpingFunction,
    constant_h,
    exp_decay_h,
    grushin_h,
    linear_f,
    power_decay_h,
    sine_f,
    standard_f,
)

__all__ = [
    "ConfigError",
    "DoublyWarpedMetric",
    "ExponentSchedule",
    "GeodesicOrbitMetric",
    "GeodesicSolution",
    "GrowthWindow",
    "GrushinMetric",
    "HalfplaneMetric",
    "Jet2",
    "LadderGrowthError",
    "LinearOrbitMetric",
    "NonPositiveWarping",
    "NotCertified",
    "OrbitTable",
    "OscillationParams",
    "PiecewiseH",
    "RescaledModel",
    "RicciReport",
    "RunConfig",
    "RunReport",
    "ScaleLadder",
    "SmoothedH",
    "StepTooLarge",
    "WarpingFunction",
    "box_dimension_fit",
    "build_capacity_profile",
    "build_oscillating_h",
    "build_piecewise_h",
    "build_scale_ladder",
    "capacity",
    "certify_positive_ricci",
    "check_capacity_sandwich",
    "circle_length",
    "clairaut_arc",
    "constant_h",
    "convergence_report",
    "dijkstra_distance_oracle",
    "exp_decay_h",
    "fit_growth_constants",
    "grushin_distance",
    "grushin_h",
    "growth_slope",
    "hausdorff_content",
    "invert_arc",
    "linear_f",
    "log_grid",
    "orbit_distance",
    "parse_config",
    "power_decay_h",
    "rescaled_distance",
    "ricci_numeric_oracle",
    "ricci_report",
    "run",
    "sine_f",
    "smooth",
    "solve_turning_point",
    "standard_f",
    "verify_observation",
]
