"""Geometric synthesis of crosstalk-robust single-qubit gates.

Single-qubit drives in coupled qubit arrays see state-dependent detunings
(ZZ crosstalk) and leak onto neighbors (control crosstalk). This package
reverse-engineers control pulses from closed curves on the 2-sphere, adds
first-order Magnus robustness functionals, and validates every pulse by
direct time-domain simulation of the two- and three-qubit models.
"""

from .curves import (
    CHI_GRID_POINTS,
    CurveGrid,
    CurveParams,
    Waveform,
    area_functional,
    closed_form_b3,
    coefficient_for_angle,
    rotation_angle,
    shortest_b1,
    solve_b1_zero_area,
    solve_b3_zero_area,
    synthesize_waveform,
)
from .frames import (
    FrameData,
    SystemConfig,
    dressing,
    logical_from_lab,
    logical_target,
    three_qubit_dressing,
    two_qubit_dressing,
)
from .linalg import (
    gate_fidelity,
    pauli_string,
)
from .magnus import (
    ChannelWeights,
    channel_costs,
    cost_residuals,
    crosstalk_amplitudes,
    robust_cost,
    susceptibility_beta,
    susceptibility_beta0,
)
from .optimizer import (
    OptimizerConfig,
    OptimizeResult,
    optimize,
    preset_curve,
    preset_system,
    presets,
    total_cost,
)
from .simulate import (
    NoiseSetting,
    cosine_baseline,
    matched_cosine_baseline,
    noise_sweep,
    simulate_gate,
    slope_fit,
)

__version__ = "0.1.0"
