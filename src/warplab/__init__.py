"""warplab: numerical laboratory for doubly warped product metrics.

Builds metrics dr^2 + f(r)^2 ds_k^2 + h(r)^2 ds_1^2 with decaying and
oscillating circle factors, certifies positive Ricci curvature, measures
covering-orbit growth through Clairaut geodesics on the halfplane
reduction, estimates capacity/box dimensions of orbit sets, and checks
rescaling convergence to Grushin halfplanes.

The package is lazy: `import warplab` loads no submodule.  Each public
name below is imported from its module on first use and kept, so a run
loads only the modules it executes (a pure run never loads the
construction modules).  The package computes in doubles and never imports
mpmath, which only the tests' 40-digit references use.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "christoffel": ("StepTooLarge", "ricci_numeric_oracle"),
    "config": ("ConfigError", "LadderGrowthError", "RunConfig", "parse_config"),
    "curvature": ("DoublyWarpedMetric", "NonPositiveWarping", "RicciReport", "log_grid",
                  "ricci_report"),
    "dimension": ("LinearOrbitMetric", "box_dimension_fit", "build_capacity_profile",
                  "capacity", "check_capacity_sandwich", "fit_growth_constants",
                  "hausdorff_content"),
    "gridpath": ("dijkstra_distance_oracle",),
    "grushin": ("GrushinMetric", "RescaledModel", "convergence_report", "grushin_distance",
                "rescaled_distance"),
    "halfplane": ("GeodesicSolution", "HalfplaneMetric", "circle_length", "clairaut_arc",
                  "invert_arc", "orbit_distance", "solve_turning_point"),
    "harness": ("RunReport", "run"),
    "jets": ("Jet2",),
    "ladder": ("ExponentSchedule", "OscillationParams", "ScaleLadder", "build_scale_ladder"),
    "orbits": ("GrowthWindow", "OrbitTable", "growth_slope"),
    "piecewise": ("ladder_segments",),
    "smoothing": ("NotCertified", "SmoothedH", "build_oscillating_h", "certify_positive_ricci",
                  "smooth", "verify_observation"),
    "warping": ("WarpingFunction", "constant_h", "exp_decay_h", "grushin_h", "linear_f",
                "power_decay_h", "sine_f", "standard_f"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
