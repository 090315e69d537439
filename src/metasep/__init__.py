"""Numerical study of the sample-complexity gap between convex and
non-convex meta-learning on shared-direction linear regression tasks."""

__version__ = "0.1.0"

from .linalg import SpikedIdentity, sym_eigen
from .rng import SeedSpec
from .tasks import Dataset, MetaInstance, Task
from .convex import GdRegSpec, GdStepSpec, gd_reg, gd_step
from .twolayer import ScalarPair, TwoLayerParams, gd2_reg, gd_pop_fixed_point
from .meta_learners import (ReptileSpec, ScalarTrajectory, reptile_spike, run_replearn,
                            run_reptile)
from .risk import AlgSpec, RiskEstimate, convex_lower_bound_exact, mc_excess_risk

__all__ = [
    "__version__",
    "SpikedIdentity", "sym_eigen",
    "SeedSpec",
    "Dataset", "MetaInstance", "Task",
    "GdRegSpec", "GdStepSpec", "gd_reg", "gd_step",
    "ScalarPair", "TwoLayerParams", "gd2_reg", "gd_pop_fixed_point",
    "ReptileSpec", "ScalarTrajectory", "reptile_spike", "run_replearn", "run_reptile",
    "AlgSpec", "RiskEstimate", "convex_lower_bound_exact", "mc_excess_risk",
]
