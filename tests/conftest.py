"""Shared test setup: quadrature self-check, curve builders, acceptance log."""

import numpy as np
import pytest

from geodesic_gates.curves import CurveGrid, CurveParams, area_functional, coefficient_for_angle
from geodesic_gates.magnus import susceptibility_beta
from geodesic_gates.optimizer import preset_curve

# formatted one-line verdicts for the acceptance criteria, printed at the end
ACCEPTANCE_LOG = []


def record_acceptance(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_LOG.append((number, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, passed, detail in sorted(ACCEPTANCE_LOG):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


@pytest.fixture(scope="session", autouse=True)
def quadrature_richardson_check():
    """Grid-density self-check for the shared chi-grid quadratures.

    Richardson comparison against a doubled grid on the stiffest preset
    (the chain robust row, |b1| ~ 222) confirms the fixed grid meets the
    stated absolute error targets before any test relies on them.
    """
    params = preset_curve("xpi-3q-robust")
    area_coarse = area_functional(CurveGrid(params, 16384))
    area_fine = area_functional(CurveGrid(params, 32768))
    assert abs(area_coarse - area_fine) < 1e-10
    sus_coarse = np.array(susceptibility_beta(CurveGrid(params, 16384)))
    sus_fine = np.array(susceptibility_beta(CurveGrid(params, 32768)))
    assert np.max(np.abs(sus_coarse - sus_fine)) < 1e-9


def curve_for_angle(phi_target, **coefficients) -> CurveParams:
    """The curve of gate angle `phi_target` with the given b1, b2, b3, c."""
    return CurveParams(a=coefficient_for_angle(phi_target), phi_target=phi_target,
                       **coefficients)


def random_curve(rng, phi_target=np.pi, scale=8.0) -> CurveParams:
    """Seeded random ansatz parameters at moderate amplitude."""
    return CurveParams(
        a=coefficient_for_angle(phi_target),
        b1=rng.uniform(-scale, scale),
        b2=rng.uniform(-scale, scale),
        b3=rng.uniform(-scale, scale),
        c=rng.uniform(-scale, scale),
        phi_target=phi_target,
    )
