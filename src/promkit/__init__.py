"""promkit: shot-based simulation of dynamic quantum circuits with injectable
readout errors and probabilistic readout-error mitigation.

Mid-circuit measurement outcomes drive classical feedforward; readout errors
on those bits propagate through the control flow.  Mitigation works by
sampling a random flip mask per shot from quasiprobability weights solved in
the Walsh spectrum of the (symmetrized) error channel, then averaging the
signed, rescaled outcomes.  An exact trajectory-tensor oracle validates the
whole pipeline at small sizes.
"""

__version__ = "0.1.0"

from .bits import SizeCapError, fwht, size_cap
from .circuits import (DynamicCircuit, FeedforwardLayer, Gate, Observable,
                       PauliString, TerminalSetting, ZeroProjector, cx, h, rx,
                       ry, rz, s, sdg, x, xor_feedback_table, y, z)
from .config import ConfigError, run_config
from .experiments import (apply_rep_strategy, build_calibration_circuit,
                          build_ghz_circuit, build_reset_circuit,
                          build_teleport_circuit, build_unitary_ghz,
                          build_unitary_transport, ghz_fidelity,
                          ghz_stabilizer_settings, ghz_stabilizers,
                          run_calibration, run_ghz_fidelity)
from .mitigation import (EstimatorAccumulator, GeneralWeights, LayeredWeights,
                         MitigationWeights, SingularChannelError,
                         TensoredWeights, UniformWeights, overhead_bound,
                         project_nonnegative, raw_error_bound,
                         sensitivity_bound, shot_budget, solve_weights,
                         terminal_rem)
from .oracle import TrajectoryTensor, exact_setting_observables, exact_trajectory_tensor
from .readout import (ConfusionMatrix, GeneralModel, LayeredModel,
                      SyndromeModel, TensoredModel, UniformModel, calibrate,
                      eigenvalues, marginalize, symmetrize, total_error,
                      total_variation_distance)
from .simulator import (NoiseInjector, ObservableEstimate, RunResult,
                        aggregate_estimate, estimate_observables, run_settings,
                        run_shot, run_shots)

__all__ = [
    "__version__",
    # bits
    "SizeCapError", "fwht", "size_cap",
    # circuits
    "DynamicCircuit", "FeedforwardLayer", "Gate", "Observable", "PauliString",
    "TerminalSetting", "ZeroProjector", "cx", "h", "rx", "ry", "rz", "s",
    "sdg", "x", "xor_feedback_table", "y", "z",
    # config
    "ConfigError", "run_config",
    # experiments
    "apply_rep_strategy", "build_calibration_circuit", "build_ghz_circuit",
    "build_reset_circuit", "build_teleport_circuit", "build_unitary_ghz",
    "build_unitary_transport", "ghz_fidelity", "ghz_stabilizer_settings",
    "ghz_stabilizers", "run_calibration", "run_ghz_fidelity",
    # mitigation
    "EstimatorAccumulator", "GeneralWeights", "LayeredWeights",
    "MitigationWeights", "SingularChannelError", "TensoredWeights",
    "UniformWeights", "overhead_bound", "project_nonnegative",
    "raw_error_bound", "sensitivity_bound", "shot_budget", "solve_weights",
    "terminal_rem",
    # oracle
    "TrajectoryTensor", "exact_setting_observables", "exact_trajectory_tensor",
    # readout
    "ConfusionMatrix", "GeneralModel", "LayeredModel", "SyndromeModel",
    "TensoredModel", "UniformModel", "calibrate", "eigenvalues", "marginalize",
    "symmetrize", "total_error", "total_variation_distance",
    # simulator
    "NoiseInjector", "ObservableEstimate", "RunResult", "aggregate_estimate",
    "estimate_observables", "run_settings", "run_shot", "run_shots",
]
