"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test records a one-line verdict that pytest prints in the terminal
summary (see conftest.pytest_terminal_summary).
"""

import time

import numpy as np
import pytest

from conftest import random_curve, record_acceptance
from geodesic_gates.cli import audit_report
from geodesic_gates.curves import (
    CurveGrid,
    CurveParams,
    area_functional,
    coefficient_for_angle,
    rotation_angle,
    solve_b1_zero_area,
    synthesize_waveform,
)
from geodesic_gates.frames import SystemConfig, dressing, lab_static, three_qubit_dressing, two_qubit_dressing
from geodesic_gates.linalg import SIGMA_X, gate_fidelity
from geodesic_gates.magnus import (
    CHANNEL_COUPLING,
    CHANNEL_FREQ,
    channel_costs,
    susceptibility_beta,
    susceptibility_beta0,
)
from geodesic_gates.optimizer import (
    PRESET_KEYS,
    OptimizerConfig,
    optimize,
    preset_curve,
    preset_system,
)
from geodesic_gates.simulate import (
    NoiseSetting,
    matched_cosine_baseline,
    noise_sweep,
    propagate_blocks,
    simulate_gate,
    slope_fit,
)
from oracles import crosstalk_block, expm_hermitian, max_abs, susceptibility_oracles


def rx(angle):
    return expm_hermitian(SIGMA_X, angle / 2.0)


def test_criterion_1_round_trip_all_presets():
    """Reduced-block propagation of every preset row gives R_X(Phi) < 1e-7."""
    worst = 0.0
    try:
        for key in PRESET_KEYS:
            params = preset_curve(key)
            frame = dressing(preset_system(key))
            for sign in (1.0, -1.0):
                beta = sign * frame.design_beta
                wave = synthesize_waveform(params, beta, n_samples=16384)
                u = propagate_blocks(wave, beta)
                infid = 1.0 - gate_fidelity(u, rx(params.phi_target))
                worst = max(worst, infid)
                assert infid < 1e-7, (key, sign, infid)
    except AssertionError:
        record_acceptance(1, False, f"round-trip worst infidelity {worst:.2e} (tol 1e-7)")
        raise
    record_acceptance(1, True,
                      f"round-trip synthesis: 8 presets x (+-beta), worst infidelity "
                      f"{worst:.2e} < 1e-7")


def test_criterion_2_zero_area_theorem():
    """Resonant (beta = 0) blocks realize the same gate when the area vanishes."""
    cases = []
    for key in ("xpi-3q-nonrobust", "xpi-3q-robust", "xhalfpi-3q-nonrobust",
                "xhalfpi-3q-robust"):
        cases.append((key, preset_curve(key), dressing(preset_system(key)).design_beta))
    a = coefficient_for_angle(np.pi)
    resonant_curve = CurveParams(a=a, b1=solve_b1_zero_area(a), phi_target=np.pi)
    resonant_beta = dressing(SystemConfig(n_qubits=2, delta=20.0,
                                          drive_choice="resonant_lower")).design_beta
    cases.append(("2q-resonant-shortest", resonant_curve, resonant_beta))
    worst = 0.0
    try:
        for label, params, beta in cases:
            area = area_functional(CurveGrid(params))
            assert abs(area) < 1e-8, (label, area)
            wave = synthesize_waveform(params, beta, n_samples=16384)
            u0 = propagate_blocks(wave, 0.0)
            infid = 1.0 - gate_fidelity(u0, rx(params.phi_target))
            worst = max(worst, infid)
            assert infid < 1e-6, (label, infid)
    except AssertionError:
        record_acceptance(2, False, f"zero-area theorem violated (worst {worst:.2e})")
        raise
    record_acceptance(2, True,
                      f"zero-area theorem: beta=0 blocks match R_X(Phi), worst "
                      f"infidelity {worst:.2e} < 1e-6 at |C_target| < 1e-8")


@pytest.mark.slow
def test_criterion_3_magnus_oracle_equivalence():
    """Analytic susceptibilities match the brute-force Magnus oracle, 1e-5 rel."""
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    try:
        for trial in range(20):
            params = random_curve(rng, scale=8.0)
            beta = float(rng.uniform(0.4, 1.5))
            delta_tilde = -np.sqrt(20.0**2 + 1.0) if trial < 8 else None
            oracle, oracle0, block_oracle = susceptibility_oracles(params, beta, delta_tilde)
            analytic = np.array(susceptibility_beta(CurveGrid(params)))
            rel = np.max(np.abs(analytic - oracle)) / np.linalg.norm(oracle)
            worst = max(worst, rel)
            assert rel < 1e-5, ("beta block", trial, rel)

            analytic0 = np.array(susceptibility_beta0(CurveGrid(params)))
            rel0 = np.max(np.abs(analytic0 - oracle0)) / max(np.linalg.norm(oracle0), 1.0)
            worst = max(worst, rel0)
            assert rel0 < 1e-5, ("beta0 block", trial, rel0)

            if delta_tilde is not None:
                block = crosstalk_block(params, delta_tilde, beta)
                rel_ct = max_abs(block - block_oracle) / max_abs(block_oracle)
                worst = max(worst, rel_ct)
                assert rel_ct < 1e-5, ("crosstalk block", trial, rel_ct)
    except AssertionError:
        record_acceptance(3, False, f"oracle equivalence failed (worst rel {worst:.2e})")
        raise
    record_acceptance(3, True,
                      f"Magnus oracle equivalence on 20 random parameter sets, worst "
                      f"relative deviation {worst:.2e} < 1e-5 ({time.time()-start:.0f}s)")


def test_criterion_4_dressing_correctness():
    """Exact two-qubit diagonalization; O(lambda^3) three-qubit residual."""
    rng = np.random.default_rng(77)
    worst_offdiag = 0.0
    for _ in range(6):
        cfg = SystemConfig(n_qubits=2, delta=float(rng.uniform(3.0, 40.0)),
                           g1=float(rng.uniform(0.0, 2.0)), g2=float(rng.uniform(0.0, 2.0)))
        frame = two_qubit_dressing(cfg)
        dressed = frame.S @ lab_static(cfg) @ frame.S.conj().T
        off = max_abs(dressed - np.diag(np.diag(dressed)))
        worst_offdiag = max(worst_offdiag, off)
    lams = np.geomspace(1e-3, 1e-1, 9)
    residuals = []
    for lam in lams:
        g = 20.0 * lam
        cfg = SystemConfig(n_qubits=3, delta=20.0, g1=g, g2=g, drive_choice="center")
        frame = three_qubit_dressing(cfg)
        dressed = frame.S @ lab_static(cfg) @ frame.S.conj().T
        residuals.append(max_abs(dressed - np.diag(np.diag(dressed))))
    slope = float(np.polyfit(np.log(lams), np.log(residuals), 1)[0])
    passed = worst_offdiag < 1e-12 and abs(slope - 3.0) < 0.2
    record_acceptance(4, passed,
                      f"dressing: 2q off-diagonal {worst_offdiag:.1e} < 1e-12, 3q "
                      f"residual slope {slope:.3f} in 3.0 +- 0.2")
    assert worst_offdiag < 1e-12
    assert abs(slope - 3.0) < 0.2


def test_criterion_5_table_audit():
    """Zero-area oracle vs table b1: match or exactly half, audited not assumed."""
    outcomes = []
    for a, table in ((-1.0 / (32.0 * np.pi**2), 5.71915),
                     (-1.0 / (64.0 * np.pi**2), 2.85958)):
        oracle = abs(solve_b1_zero_area(a))
        full = abs(oracle - table) < 1e-3
        half = abs(oracle - table / 2.0) < 1e-3
        assert full or half
        outcomes.append("matches table" if full else "matches table/2")
    report = audit_report()
    entry = report["rows"]["xpi-3q-nonrobust"]
    # the audit must record the classification and the sign finding
    assert abs(entry["b1_table_over_oracle"] + 1.0) < 1e-3   # |oracle| = table, mirror sign
    assert abs(entry["b1_closed_form_over_oracle"] + 0.5) < 1e-3
    assert any("mirror" in line for line in report["findings"])
    assert any("factor" in line or "-1/2" in line for line in report["findings"])
    record_acceptance(5, True,
                      f"table audit: |zero-area oracle| {outcomes[0]} (pi) and "
                      f"{outcomes[1]} (pi/2); closed form = -oracle/2, recorded in audit")


@pytest.mark.slow
def test_criterion_6_robustness_separation():
    """Fitted log-log exponents separate by >= 1.0; robust max-infidelity lower."""
    start = time.time()
    axis = np.geomspace(1e-3, 1e-1, 41)
    details = []
    passed = True
    for setting in ("2q", "3q"):
        slopes = {}
        for flavor in ("robust", "nonrobust"):
            key = f"xpi-{setting}-{flavor}"
            system = preset_system(key)
            frame = dressing(system)
            wave = synthesize_waveform(preset_curve(key), frame.design_beta,
                                       n_samples=16384)
            _, floor = simulate_gate(system, frame, wave, NoiseSetting())
            sweep = noise_sweep(system, frame, wave, axis, [0.0], crosstalk_on=True)
            slopes[flavor] = slope_fit(axis, sweep[:, 0], floor=floor,
                                       subtract_floor=True)
        separation = slopes["robust"] - slopes["nonrobust"]
        details.append(f"{setting}: slope_r={slopes['robust']:.2f} "
                       f"slope_n={slopes['nonrobust']:.2f} sep={separation:.2f}")
        passed &= separation >= 1.0

        small = np.linspace(-0.02, 0.02, 5)
        maxes = {}
        for flavor in ("robust", "nonrobust"):
            key = f"xpi-{setting}-{flavor}"
            system = preset_system(key)
            frame = dressing(system)
            wave = synthesize_waveform(preset_curve(key), frame.design_beta,
                                       n_samples=16384)
            sweep = noise_sweep(system, frame, wave, small, small, crosstalk_on=True)
            maxes[flavor] = float(np.max(sweep))
        details.append(f"{setting}: max|d|<=0.02 robust {maxes['robust']:.2e} vs "
                       f"nonrobust {maxes['nonrobust']:.2e}")
        passed &= maxes["robust"] < maxes["nonrobust"]
    record_acceptance(6, passed,
                      "robustness separation: " + "; ".join(details)
                      + f" ({time.time()-start:.0f}s)")
    assert passed, details


def test_criterion_7_case1_noise_equivalence():
    """Midpoint drive: the dw and dJ channels share one susceptibility integral."""
    system = SystemConfig(n_qubits=2, delta=20.0)
    frame = dressing(system)
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(10):
        costs = channel_costs(CurveGrid(random_curve(rng)), system, frame)
        worst = max(worst, abs(costs[CHANNEL_FREQ] - costs[CHANNEL_COUPLING]))
    record_acceptance(7, worst < 1e-9,
                      f"Case-1 equivalence: |freq - coupling| <= {worst:.1e} < 1e-9 "
                      "on 10 random parameter sets")
    assert worst < 1e-9


def test_criterion_8_cosine_baseline_ordering():
    """The plain cosine pulse loses to the robust preset by >= 10x at zero noise."""
    key = "xpi-3q-robust"
    system = preset_system(key)
    frame = dressing(system)
    robust_wave = synthesize_waveform(preset_curve(key), frame.design_beta,
                                      n_samples=16384)
    cosine = matched_cosine_baseline(np.pi, robust_wave)
    _, infid_robust = simulate_gate(system, frame, robust_wave, NoiseSetting())
    _, infid_cosine = simulate_gate(system, frame, cosine, NoiseSetting())
    ratio = infid_cosine / infid_robust
    record_acceptance(8, ratio >= 10.0,
                      f"cosine baseline: infidelity {infid_cosine:.2e} vs robust "
                      f"{infid_robust:.2e} (ratio {ratio:.0f} >= 10) at Delta = 20 J")
    assert ratio >= 10.0


def test_criterion_9_determinism():
    """Seeded optimization is bit-reproducible."""
    import json
    from dataclasses import asdict

    system = SystemConfig(n_qubits=2, delta=20.0)
    cfg = OptimizerConfig(starts=2, max_iters=120, seed=42)
    first = optimize(np.pi, system, cfg)
    second = optimize(np.pi, system, cfg)
    identical = (first.params == second.params
                 and json.dumps(asdict(first), sort_keys=True)
                 == json.dumps(asdict(second), sort_keys=True))
    record_acceptance(9, identical,
                      "determinism: repeated seeded optimize runs serialize "
                      "byte-identically")
    assert identical
