"""Deterministic Lipschitz-bandit simulations with simulated quantum reward oracles."""

from .geometry import ActiveRegion, Metric, Point, maximal_packing
from .environment import (
    Estimator,
    NoiseModel,
    QuantumOracleSim,
    RewardModel,
    RoundLedger,
    classical_sample,
    qmc1_budget,
    qmc2_budget,
    qmc_estimate,
    sine_model,
    triangle_model,
    twodim_model,
    variates,
)
from .algorithms import (
    PolicyResult,
    run_classical_zooming,
    run_qlae,
    run_qlae_bv,
    run_qzooming,
    run_qzooming_bv,
)
from .harness import (
    ExperimentConfig,
    RegretTrace,
    Summary,
    emit_csv,
    emit_plot,
    run_experiment,
)

__version__ = "0.1.0"
