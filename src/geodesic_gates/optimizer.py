"""Ansatz-parameter optimization and the published parameter sets.

The published tables list (b1, b2, b3, c) for X(pi) (a = -1/(32 pi^2)) and
X(pi/2) (a = -1/(64 pi^2)) in two- and three-qubit settings. Those rows
follow the opposite sign convention for phi(chi) from the one used here
(the boundary condition phi(4 pi) - phi(0) = +Phi): evaluated verbatim they
enclose area 2*A*a instead of zero and their susceptibilities are large.
Negating (b1, b2, b3, c) lands on the intended curves; the negated values
reproduce zero area and the published robustness to within table rounding.
:func:`presets` returns the rows verbatim for auditing; :func:`preset_curve`
returns the sign-corrected, area-resolved parameters used everywhere a
curve is actually synthesized. The audit command reports both.

Optimization is a deterministic seeded multi-start trust-region least
squares over the free parameters: |C_robust|^2 is the squared norm of the
short residual vector `magnus.cost_residuals`, so each start runs
`scipy.optimize.least_squares` (method "trf") on that vector with a
finite-difference Jacobian; the first start is looked up in `presets()`.
Every evaluation, the finite-difference ones included, refills one search
`CurveGrid`, sized by `search_grid_points` from the crosstalk detuning:
2048 nodes at the default Delta = 20 J, where the default grid has 16384.
The search needs only the minimiser; from the preset rows, the coarse grid
moves it by at most 4.2e-10 relative. A start continues on the default grid
from its first curve that the search grid does not resolve: one whose theta
jumps too far between nodes (GridResolutionError), or one whose crosstalk
phase advances more than `SEARCH_PHASE_STEP` between nodes, on which the
search grid's residuals are off by up to 9e-2 of the largest. Most random
starts in the +-BOX_HALFWIDTH box are such curves, and search the default
grid from their first evaluation. Each start's reported cost and the gate time are
computed on the default grid, so they equal what `cost --params` reports.
The area constraint is eliminated exactly through the affine dependence
of C_target on the coefficients, read from the default grid's table.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import (
    CHI_GRID_POINTS,
    SEARCH_PHASE_STEP,
    CurveGrid,
    CurveParams,
    GridResolutionError,
    coefficient_for_angle,
    search_grid_points,
    solve_b1_zero_area,
    solve_b3_zero_area,
)
from .frames import SETTINGS, FrameData, SystemConfig, dressing
from .magnus import ChannelWeights, channel_costs, cost_residuals

# Published rows, verbatim. gate angle pi: a = -1/(32 pi^2); pi/2: -1/(64 pi^2).
_TABLE_ROWS = {
    "xpi-2q-nonrobust": (0.0, 0.0, 0.0, 0.0),
    "xpi-2q-robust": (-5.86744, 0.0, 0.0, 5.46421),
    "xpi-3q-nonrobust": (5.71915, 0.0, 0.0, 0.0),
    "xpi-3q-robust": (221.65146, -20.91401, 101.22649, -136.55137),
    "xhalfpi-2q-nonrobust": (0.0, 0.0, 0.0, 0.0),
    "xhalfpi-2q-robust": (-2.93379, 0.0, 0.0, 4.81114),
    "xhalfpi-3q-nonrobust": (2.85958, 0.0, 0.0, 0.0),
    "xhalfpi-3q-robust": (124.10776, -12.12601, 57.20512, -73.09143),
}
PRESET_KEYS = tuple(_TABLE_ROWS)

#: least squares' ftol, xtol and gtol, also the cost below which a search counts as converged
TOL = 1e-12
#: random starts are drawn uniformly from [-BOX_HALFWIDTH, BOX_HALFWIDTH] per parameter
BOX_HALFWIDTH = 300.0


@dataclass(frozen=True)
class PresetRow:
    setting: str       # "2q" | "3q"
    robust: bool
    phi_target: float
    a: float
    b1: float
    b2: float
    b3: float
    c: float


def presets() -> dict:
    """The eight published rows, bit-matching the tables."""
    table = {}
    for key in PRESET_KEYS:
        gate, setting, flavor = key.split("-")
        phi_t = np.pi if gate == "xpi" else np.pi / 2.0
        b1, b2, b3, c = _TABLE_ROWS[key]
        table[key] = PresetRow(setting=setting, robust=flavor == "robust", phi_target=phi_t,
                               a=coefficient_for_angle(phi_t), b1=b1, b2=b2, b3=b3, c=c)
    return table


def preset_curve(key: str) -> CurveParams:
    """Simulation-ready curve for a preset row.

    Signs are flipped onto the +Phi branch; for the chain rows, which
    require zero enclosed area, the constrained coefficient is re-solved by
    quadrature so |C_target| < 1e-8 holds exactly rather than to the five
    published decimals.
    """
    row = presets()[key]
    params = CurveParams(a=row.a, b1=-row.b1, b2=-row.b2, b3=-row.b3, c=-row.c,
                         phi_target=row.phi_target)
    if row.setting == "3q":
        if row.robust:
            params = replace(params, b3=solve_b3_zero_area(row.a, -row.b1, -row.b2))
        else:
            params = replace(params, b1=solve_b1_zero_area(row.a))
    return params


def preset_system(key: str) -> SystemConfig:
    """Default system configuration for a preset row (J = g1 = g2 = 1): the
    2q rows are midpoint-drive rows, the 3q rows chain rows."""
    setting = "2q-midpoint" if presets()[key].setting == "2q" else "3q-chain"
    return SystemConfig(**SETTINGS[setting])


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the multi-start search."""

    channel_weights: ChannelWeights = field(default_factory=ChannelWeights)
    starts: int = 16
    seed: int = 42
    #: residual evaluations per start; least_squares does not count its
    #: finite-difference Jacobian evaluations against it
    max_iters: int = 400

    def __post_init__(self):
        counts = (self.starts, self.seed, self.max_iters)
        if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in counts):
            raise TypeError(f"optimizer counts must be integers: {self}")
        if self.starts < 1 or self.max_iters < 1:
            raise ValueError(f"starts and max_iters must be at least 1, got "
                             f"{self.starts} and {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        """Inverse of `dataclasses.asdict`: rebuilds the nested weights."""
        data = dict(data)
        if "channel_weights" in data:
            data["channel_weights"] = ChannelWeights(**data["channel_weights"])
        return cls(**data)


def area_zero_required(system: SystemConfig) -> bool:
    """Zero enclosed area is needed whenever a resonant block exists."""
    return 0.0 in dressing(system).betas


def total_cost(grid: CurveGrid, system: SystemConfig, frame: FrameData,
               cfg: OptimizerConfig) -> np.ndarray:
    """The search objective: the residual vector of the curve on `grid` whose
    squared norm is `robust_cost` under the configured channel weights.

    The area condition needs no penalty term: `optimize` eliminates b3
    exactly where a resonant block requires zero area, and the midpoint
    two-qubit drive has no resonant block.
    """
    return cost_residuals(grid, system, frame, cfg.channel_weights)


@dataclass(frozen=True)
class OptimizeResult:
    params: CurveParams
    cost: float
    converged: bool
    gate_time: float
    start_costs: tuple
    n_evaluations: int


def optimize(gate_angle: float, system: SystemConfig, cfg: OptimizerConfig) -> OptimizeResult:
    """Minimize the robustness cost over the free ansatz parameters.

    a is pinned by the gate angle. Where a resonant block requires zero
    area, b3 is eliminated exactly via the affine area relation and
    (b1, b2, c) are free; for the midpoint two-qubit drive the area is moot,
    b2 = b3 = 0, and (b1, c) are free. Restart 0 starts from the robust row
    of `presets()` with this gate angle (to 1e-12) and qubit count when one
    exists, the rest from seeded uniform draws in the +-BOX_HALFWIDTH box;
    with a fixed seed the result is reproducible bit for bit, and ties break
    by restart index.
    """
    # here rather than at module level: no other command needs scipy, and a
    # module-level import made `import geodesic_gates.cli` take 0.84 s instead
    # of 0.23 s (2-vCPU x86-64 host), paid by every command
    from scipy import optimize as sp_optimize

    frame = dressing(system)
    a = coefficient_for_angle(gate_angle)
    eliminate = area_zero_required(system)
    names = ("b1", "b2", "c") if eliminate else ("b1", "c")

    def build(vec: np.ndarray) -> CurveParams:
        vals = dict(zip(names, vec))
        b1, b2, c = vals["b1"], vals.get("b2", 0.0), vals["c"]
        b3 = solve_b3_zero_area(a, b1, b2) if eliminate else 0.0
        return CurveParams(a=a, b1=b1, b2=b2, b3=b3, c=c, phi_target=gate_angle)

    # evaluations refill the search grid, reported numbers the default one
    # (see CurveGrid.refill). Both are built on the flat curve, which every
    # grid resolves, so building them never raises
    flat = CurveParams(a=0.0, phi_target=0.0)
    report = CurveGrid(flat)
    n_search = search_grid_points(frame.delta_tilde, frame.design_beta)
    search = report if n_search == CHI_GRID_POINTS else CurveGrid(flat, n_search)
    # the crosstalk phase advance between two search nodes, per unit t'
    phase_step = abs(frame.delta_tilde / frame.design_beta) * search.h

    def search_fill(params: CurveParams):
        """The search grid refilled with `params`, or None if it does not resolve the curve."""
        try:
            filled = search.refill(params)
        except GridResolutionError:
            return None
        return filled if phase_step * filled.tprime.max() <= SEARCH_PHASE_STEP else None

    eval_count = 0

    def residuals(vec: np.ndarray) -> np.ndarray:
        nonlocal eval_count, grid
        eval_count += 1
        params = build(vec)
        filled = None if grid is report else search_fill(params)
        if filled is None:
            # the search grid's residuals are poor on this curve and near it,
            # so the rest of this start searches the default grid, which
            # raises GridResolutionError if it cannot resolve the curve either
            grid = report
            filled = report.refill(params)
        return total_cost(filled, system, frame, cfg)

    rng = np.random.default_rng(cfg.seed)
    starts = [np.array([getattr(preset_curve(key), n) for n in names])
              for key, row in presets().items()
              if row.robust and abs(gate_angle - row.phi_target) < 1e-12
              and preset_system(key).n_qubits == system.n_qubits]
    while len(starts) < cfg.starts:
        starts.append(rng.uniform(-BOX_HALFWIDTH, BOX_HALFWIDTH, size=len(names)))
    starts = starts[: cfg.starts]

    best = None
    start_costs = []
    for x0 in starts:
        grid = search
        res = sp_optimize.least_squares(residuals, x0, method="trf", x_scale="jac",
                                        max_nfev=cfg.max_iters, ftol=TOL, xtol=TOL, gtol=TOL)
        # the cost that `cost --params` reports for the same point
        cost = cfg.channel_weights.cost(channel_costs(report.refill(build(res.x)), system, frame))
        start_costs.append(cost)
        if best is None or cost < best[0]:
            best = (cost, res.x, res.success)
    cost, x_best, success = best
    params = build(x_best)
    converged = success or cost <= TOL
    return OptimizeResult(params=params, cost=cost, converged=converged,
                          gate_time=report.refill(params).arc_length / frame.design_beta,
                          start_costs=tuple(start_costs),
                          n_evaluations=eval_count)

