"""Sensing-to-actuation pipeline for a fixed-wing vehicle in a wind tunnel.

Five-hole probe calibration, a control-affine wrench model with a soft
left/right mirror prior, convex control allocation, and a synthetic plant
that stands in for the physical rig.
"""
# Defined before the submodule imports, so that they can import it.
__version__ = "0.1.0"

from .allocator import (
    AllocationProblem,
    AllocationSolution,
    TrackingConfig,
    TrackingLog,
    build_normal_equations,
    objective,
    solve,
    track_sequence,
)
from .dynamics import (
    AffineModel,
    DynamicsTrainConfig,
    SymmetryConfig,
    UnstructuredModel,
    affine_at,
    eval_rmse,
    predict,
    symmetry_loss,
    train_dynamics,
    train_unstructured,
    training_loss,
)
from .harness import ExperimentConfig, MetricsReport, VARIANTS, rmssd, run_ablation_suite
from .plant import GustState, PlantParams, generate_dataset, true_wrench
from .probe import (
    CalibrationTrainConfig,
    FlowState,
    ProbePressures,
    dynamic_pressure_correction,
    estimate_flow,
    normalize,
    reconstruct_airspeed,
    train_calibration,
)
