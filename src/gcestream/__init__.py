"""Entropy-based regression over finite support grids, batch and streaming.

The estimator expresses each coefficient and each error term as the
expectation of a probability distribution over a user-chosen support grid,
then minimizes the divergence of those distributions from a prior subject to
the data constraints. The streaming variant carries the fitted coefficient
distributions forward as the prior for each incoming block, which yields a
nonnegative entropy ledger per update. A simulation harness reproduces the
sampling protocol used in the accompanying experiments.
"""

from .core import (
    JointDistribution,
    SupportGrid,
    expectation,
    kl_divergence,
    shannon_entropy,
)
from .experiments import (
    REPORT_FILES,
    CellOutcome,
    ConfigError,
    ExperimentConfig,
    ExperimentOutcome,
    ScenarioConfig,
    SolveOutcome,
    parse_experiment_config,
    run_cell,
    run_experiment,
    solve_file,
)
from .metrics import (
    REPORT_COLUMNS,
    SUMMARY_COLUMNS,
    MethodResult,
    RunReport,
    relative_gap,
    report_rows,
    rmse,
    summary_rows,
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)
from .simulation import (
    DEFAULT_BETA_SUPPORT,
    Dataset,
    SimulationConfig,
    apply_multicollinearity,
    build_error_support,
    generate_dataset,
    load_dataset_csv,
    save_dataset_csv,
    standardize_columns,
)
from .solver import (
    GceProblem,
    GceSolution,
    InfeasibleObservationError,
    SolverDiagnostics,
    SolverSettings,
    dual_objective,
    gibbs_weights,
    solve_gce,
)
from .streaming import (
    StreamReport,
    StreamState,
    UpdateSettings,
    block_update,
    init_stream,
    run_stream,
    update_step,
)

__version__ = "0.1.0"

__all__ = [
    "JointDistribution",
    "SupportGrid",
    "expectation",
    "kl_divergence",
    "shannon_entropy",
    "GceProblem",
    "GceSolution",
    "InfeasibleObservationError",
    "SolverDiagnostics",
    "SolverSettings",
    "dual_objective",
    "gibbs_weights",
    "solve_gce",
    "StreamReport",
    "StreamState",
    "UpdateSettings",
    "block_update",
    "init_stream",
    "run_stream",
    "update_step",
    "DEFAULT_BETA_SUPPORT",
    "Dataset",
    "SimulationConfig",
    "apply_multicollinearity",
    "build_error_support",
    "generate_dataset",
    "load_dataset_csv",
    "save_dataset_csv",
    "standardize_columns",
    "MethodResult",
    "REPORT_COLUMNS",
    "RunReport",
    "SUMMARY_COLUMNS",
    "relative_gap",
    "report_rows",
    "rmse",
    "summary_rows",
    "write_report_csv",
    "write_report_json",
    "write_summary_csv",
    "write_summary_json",
    "CellOutcome",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentOutcome",
    "REPORT_FILES",
    "ScenarioConfig",
    "SolveOutcome",
    "parse_experiment_config",
    "run_cell",
    "run_experiment",
    "solve_file",
    "__version__",
]
