"""Curve geometry: ansatz, Euler angle, synthesis, area and closed forms."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from conftest import curve_for_angle, random_curve
from geodesic_gates.curves import (
    CurveGrid,
    CurveParams,
    GridResolutionError,
    area_affine,
    area_functional,
    closed_form_b3,
    coefficient_for_angle,
    rotation_angle,
    shortest_b1,
    solve_b1_zero_area,
    solve_b3_zero_area,
    synthesize_waveform,
    waveform_from_grid,
)
from geodesic_gates.frames import dressing
from geodesic_gates.linalg import SIGMA_X, gate_fidelity
from geodesic_gates.magnus import robust_cost
from geodesic_gates.optimizer import BOX_HALFWIDTH, PRESET_KEYS, preset_curve, preset_system
from geodesic_gates.simulate import propagate_blocks
from oracles import arc_speed, expm_hermitian, phi, phi_prime, theta_of_chi

CHI_MAX = 4.0 * np.pi

TWO_QUBIT_ROBUST_PI = curve_for_angle(np.pi, b1=5.86744, c=-5.46421)


def rx(angle):
    return expm_hermitian(SIGMA_X, angle / 2.0)


def test_boundary_condition_pins_total_winding():
    p = curve_for_angle(np.pi)
    assert abs(p.a + 1.0 / (32.0 * np.pi**2)) < 1e-15
    assert abs(phi(p, CHI_MAX) - phi(p, 0.0) - np.pi) < 1e-12


def test_phi_starts_flat():
    rng = np.random.default_rng(21)
    for _ in range(5):
        p = random_curve(rng)
        assert abs(phi(p, 0.0)) < 1e-12
        assert abs(phi_prime(p, 0.0)) < 1e-10
        assert abs(phi_prime(p, CHI_MAX)) < 1e-10


def test_phi_prime_matches_finite_difference():
    # centered finite difference as the independent oracle
    p = TWO_QUBIT_ROBUST_PI
    h = 1e-6
    for chi in (0.7, 2.0 * np.pi, 3.3, 9.9):
        fd = (phi(p, chi + h) - phi(p, chi - h)) / (2.0 * h)
        assert abs(phi_prime(p, chi) - fd) < 1e-8


def test_grid_ddphi_matches_central_difference_of_phi_prime():
    for key in ("xpi-2q-robust", "xpi-3q-robust"):
        grid = CurveGrid(preset_curve(key))
        chi = grid.chi[1:-1:97]
        h = 1e-5
        p = grid.params
        fd = (phi_prime(p, chi + h) - phi_prime(p, chi - h)) / (2.0 * h)
        scale = np.max(np.abs(grid.ddphi))
        assert np.max(np.abs(grid.ddphi[1:-1:97] - fd)) < 1e-8 * scale


def test_phi_domain_checked():
    p = curve_for_angle(np.pi)
    with pytest.raises(ValueError):
        phi(p, -0.5)
    with pytest.raises(ValueError):
        phi_prime(p, CHI_MAX + 0.5)


def test_theta_at_flat_points_is_half_pi():
    p = CurveParams(a=0.0, phi_target=0.0)  # phi' = 0 everywhere
    chis = np.linspace(0.0, CHI_MAX, 50)
    assert np.allclose(theta_of_chi(p, chis), np.pi / 2.0, atol=1e-14)


def test_theta_saturates_toward_pi():
    # large positive sin(chi) phi' pushes theta toward pi
    p = curve_for_angle(np.pi, b1=500.0)
    chi = np.pi / 2.0
    s = np.sin(chi) * phi_prime(p, chi)
    assert s > 50.0
    assert np.pi - theta_of_chi(p, chi) < 0.02


def test_theta_matches_complex_argument_oracle():
    p = TWO_QUBIT_ROBUST_PI
    for chi in (0.3, np.pi, 2.0, 7.0, 11.0):
        s = np.sin(chi) * phi_prime(p, chi)
        oracle = np.angle(s - 1j) + np.pi
        assert abs(theta_of_chi(p, chi) - oracle) < 1e-12


def test_arc_speed_formula():
    p = CurveParams(a=0.0, phi_target=0.0)
    assert np.allclose(arc_speed(p, np.linspace(0, CHI_MAX, 20)), 1.0)
    # direct formula check at a point with sin(chi) = 1
    q = TWO_QUBIT_ROBUST_PI
    chi = np.pi / 2.0
    dp = phi_prime(q, chi)
    assert abs(arc_speed(q, chi) - np.sqrt(1.0 + dp * dp)) < 1e-14
    # at chi = pi the sine vanishes and the speed is exactly 1
    assert abs(arc_speed(q, np.pi) - 1.0) < 1e-14


def test_arc_speed_at_least_one():
    rng = np.random.default_rng(22)
    chis = np.linspace(0.0, CHI_MAX, 257)
    for _ in range(5):
        assert np.all(arc_speed(random_curve(rng), chis) >= 1.0)


def test_arc_length_matches_adaptive_quadrature():
    p = curve_for_angle(np.pi)  # pure cubic curve
    grid = CurveGrid(p)
    oracle, err = integrate.quad(lambda x: float(arc_speed(p, x)), 0.0, CHI_MAX,
                                 limit=200, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    assert abs(grid.arc_length - oracle) < 1e-10


def test_synthesized_waveform_vanishes_at_ends():
    rng = np.random.default_rng(23)
    for _ in range(3):
        wave = synthesize_waveform(random_curve(rng), beta=0.5)
        assert abs(wave.samples[0]) < 1e-8
        assert abs(wave.samples[-1]) < 1e-8


def test_waveform_duration_is_arclength_over_beta():
    p = TWO_QUBIT_ROBUST_PI
    grid = CurveGrid(p)
    for beta in (0.25, 0.5, 2.0):
        wave = synthesize_waveform(p, beta)
        assert abs(wave.T - grid.arc_length / beta) < 1e-12


def test_gate_time_decreases_with_detuning():
    p = TWO_QUBIT_ROBUST_PI
    times = [synthesize_waveform(p, b).T for b in (0.1, 0.5, 1.0, 2.0)]
    assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))


def test_synthesize_rejects_bad_input():
    p = curve_for_angle(np.pi)
    with pytest.raises(ValueError):
        synthesize_waveform(p, beta=0.0)
    with pytest.raises(ValueError):
        synthesize_waveform(p, beta=0.5, n_samples=128)


def test_round_trip_simple_curve():
    p = curve_for_angle(np.pi)
    beta = 0.5
    wave = synthesize_waveform(p, beta, n_samples=8192)
    u = propagate_blocks(wave, beta)
    assert 1.0 - gate_fidelity(u, rx(np.pi)) < 1e-8


def test_round_trip_beta_sign_symmetry():
    # U(-beta) = X U(+beta) X exactly, so the unitary difference is twice the
    # waveform discretization residual; dense sampling brings it under 1e-7
    p = TWO_QUBIT_ROBUST_PI
    grid = CurveGrid(p, 65536)
    wave_pos = waveform_from_grid(grid, 0.5, n_samples=65536)
    wave_neg = waveform_from_grid(grid, -0.5, n_samples=65536)
    assert np.allclose(wave_pos.samples, wave_neg.samples)
    u_pos = propagate_blocks(wave_pos, 0.5)
    u_neg = propagate_blocks(wave_neg, -0.5)
    assert np.max(np.abs(u_pos - u_neg)) < 1e-7
    assert 1.0 - gate_fidelity(u_neg, rx(np.pi)) < 1e-8


def test_round_trip_random_curves_and_betas():
    rng = np.random.default_rng(24)
    for _ in range(4):
        p = random_curve(rng)
        beta = float(rng.uniform(0.1, 2.0))
        wave = synthesize_waveform(p, beta, n_samples=4096)
        u = propagate_blocks(wave, beta)
        assert 1.0 - gate_fidelity(u, rx(rotation_angle(CurveGrid(p)))) < 1e-7


def test_area_matches_independent_quadrature():
    p = curve_for_angle(np.pi)
    oracle, err = integrate.quad(
        lambda x: (1.0 - np.cos(x)) * float(phi_prime(p, x)), 0.0, CHI_MAX,
        limit=300, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    value = area_functional(CurveGrid(p))
    assert abs(value - oracle) < 1e-10
    assert abs(value) > 1.0  # the pure cubic curve has substantial area


def test_area_affine_coefficients_exact():
    # analytically derived values of the affine area form
    zero = CurveParams(a=0.0, phi_target=0.0)
    assert abs(area_functional(CurveGrid(replace(zero, b1=1.0))) - 2048.0 / 3465.0) < 1e-12
    assert abs(area_functional(CurveGrid(replace(zero, b2=1.0))) + 2048.0 / 1365.0) < 1e-12
    assert abs(area_functional(CurveGrid(replace(zero, b3=1.0))) + np.pi / 2.0) < 1e-12
    assert abs(area_functional(CurveGrid(replace(zero, c=1.0)))) < 1e-12
    unit_a = CurveParams(a=1.0, phi_target=-32.0 * np.pi**3)
    assert abs(area_functional(CurveGrid(unit_a)) + 8.0 * np.pi * (4.0 * np.pi**2 + 3.0)) < 1e-9


def test_area_affine_matches_four_quadratures():
    for phi_target in (np.pi, np.pi / 2.0):
        base = curve_for_angle(phi_target)
        c0 = area_functional(CurveGrid(base))
        expected = (c0, *(area_functional(CurveGrid(replace(base, **{name: 1.0}))) - c0
                          for name in ("b1", "b2", "b3")))
        got = area_affine(base.a)
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-12


def test_area_affine_builds_no_grid(monkeypatch):
    builds = []
    build = CurveGrid.__init__

    def spy(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(CurveGrid, "__init__", spy)
    area_affine(coefficient_for_angle(np.pi / 4.0))
    assert builds == []
    # one cost evaluation reads every integral off one grid
    key = "xpi-3q-robust"
    system = preset_system(key)
    robust_cost(preset_curve(key), system, dressing(system))
    assert len(builds) == 1


GRID_FIELDS = ("phi", "dphi", "ddphi", "s", "theta", "dtheta", "tprime", "arc", "S",
               "omega_over_beta", "e_phi", "e_S")


def test_refill_matches_a_fresh_grid_bit_for_bit():
    # the optimizer refills one grid per evaluation; each refill, also one
    # that follows a different curve, must give a new grid's fields exactly
    rng = np.random.default_rng(31)
    curves = [preset_curve(key) for key in PRESET_KEYS]
    curves += [random_curve(rng, phi_target=phi, scale=BOX_HALFWIDTH)
               for phi in (np.pi, np.pi / 2.0, -1.3) for _ in range(4)]
    grid = CurveGrid(curves[-1])
    for params in curves:
        assert grid.refill(params) is grid
        fresh = CurveGrid(params)
        assert grid.params == params
        for name in GRID_FIELDS:
            assert getattr(grid, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert grid.arc_length == fresh.arc_length


def test_refill_raises_on_a_theta_jump():
    steep = CurveParams(a=coefficient_for_angle(np.pi), b1=300.0, phi_target=np.pi)
    with pytest.raises(GridResolutionError):
        CurveGrid(steep, 256)
    grid = CurveGrid(curve_for_angle(np.pi), 256)
    with pytest.raises(GridResolutionError):
        grid.refill(steep)


def test_area_is_affine_superposition():
    rng = np.random.default_rng(25)
    for _ in range(5):
        p = random_curve(rng)
        q = random_curve(rng)
        lam = float(rng.uniform(0.0, 1.0))
        mix = CurveParams(
            a=lam * p.a + (1 - lam) * q.a,
            b1=lam * p.b1 + (1 - lam) * q.b1,
            b2=lam * p.b2 + (1 - lam) * q.b2,
            b3=lam * p.b3 + (1 - lam) * q.b3,
            c=lam * p.c + (1 - lam) * q.c,
            phi_target=np.pi,
        )
        expected = lam * area_functional(CurveGrid(p)) + (1 - lam) * area_functional(CurveGrid(q))
        assert abs(area_functional(CurveGrid(mix)) - expected) < 1e-9


def test_solve_b1_zeroes_the_area():
    for a in (-1.0 / (32.0 * np.pi**2), -1.0 / (64.0 * np.pi**2)):
        b1 = solve_b1_zero_area(a)
        p = CurveParams(a=a, b1=b1, phi_target=-32.0 * np.pi**3 * a)
        assert abs(area_functional(CurveGrid(p))) < 1e-10


def test_zero_area_beta0_block_realizes_the_gate():
    a = coefficient_for_angle(np.pi)
    p = CurveParams(a=a, b1=solve_b1_zero_area(a), phi_target=np.pi)
    assert abs(area_functional(CurveGrid(p))) < 1e-8
    wave = synthesize_waveform(p, 1.0, n_samples=8192)
    u0 = propagate_blocks(wave, 0.0)
    assert 1.0 - gate_fidelity(u0, rx(np.pi)) < 1e-6


def test_rotation_angle_simple_and_presets():
    assert abs(rotation_angle(CurveGrid(curve_for_angle(np.pi))) - np.pi) < 1e-12
    from geodesic_gates.optimizer import preset_curve

    assert abs(rotation_angle(CurveGrid(preset_curve("xpi-3q-robust"))) - np.pi) < 1e-8
    assert abs(rotation_angle(CurveGrid(preset_curve("xhalfpi-3q-robust"))) - np.pi / 2.0) < 1e-8
    assert abs(rotation_angle(CurveGrid(preset_curve("xhalfpi-2q-robust"))) - np.pi / 2.0) < 1e-8


def test_closed_form_b3_against_quadrature():
    # the published b3 expression is exact for the +Phi branch
    rng = np.random.default_rng(26)
    for _ in range(5):
        a = float(rng.uniform(-0.01, 0.01))
        b1 = float(rng.uniform(-100, 100))
        b2 = float(rng.uniform(-100, 100))
        assert abs(closed_form_b3(a, b1, b2) - solve_b3_zero_area(a, b1, b2)) < 1e-8


def test_closed_form_b3_homogeneous_zero():
    assert closed_form_b3(0.0, 0.0, 0.0) == 0.0


def test_shortest_b1_factor_two_discrepancy():
    # the published closed form returns -1/2 of the quadrature solution;
    # kept verbatim, audited rather than silently corrected
    for a in (-1.0 / (32.0 * np.pi**2), -1.0 / (64.0 * np.pi**2), 0.003):
        assert abs(shortest_b1(a) + 0.5 * solve_b1_zero_area(a)) < 1e-9


def test_table_values_match_zero_area_magnitudes():
    oracle_pi = solve_b1_zero_area(-1.0 / (32.0 * np.pi**2))
    oracle_half = solve_b1_zero_area(-1.0 / (64.0 * np.pi**2))
    assert abs(abs(oracle_pi) - 5.71915) < 1e-3
    assert abs(abs(oracle_half) - 2.85958) < 1e-3


def test_chi_max_is_an_unknown_field():
    # chi always runs over [0, 4 pi], so the span is no curve parameter
    with pytest.raises(TypeError, match="chi_max"):
        CurveParams(a=0.0, chi_max=2.0 * np.pi, phi_target=0.0)


def test_curve_params_refuse_a_of_another_angle():
    # a is fixed by the gate angle, a = -Phi/(32 pi^3); the tables write it as -1/(32 pi^2)
    CurveParams(a=-1.0 / (32.0 * np.pi**2), phi_target=np.pi)
    with pytest.raises(ValueError, match="gate angle 1.5707963"):
        CurveParams(a=coefficient_for_angle(np.pi / 2.0), phi_target=np.pi)
