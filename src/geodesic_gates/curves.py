"""Closed curves on the 2-sphere and the control waveforms they encode.

A curve (chi(t), phi(t)) with chi running over [0, 4*pi] represents an SU(2)
evolution through the Euler-like factorization R_X(theta) R_Y(chi) R_X(phi).
Driving with a single X quadrature forces the frame angle

    theta(chi) = Arg(sin(chi) phi'(chi) - i) + pi = pi/2 + arctan(sin(chi) phi'(chi)),

the dimensionless arc speed is t'(chi) = sqrt(1 + sin(chi)^2 phi'(chi)^2),
and the geodesic curvature of the curve is the drive envelope:

    Omega(chi) = (theta'(chi) + cos(chi) phi'(chi)) / t'(chi) * |beta|,

with physical time t(chi) = integral of t' / |beta|. A closed curve realizes
R_X(delta_theta + delta_phi) on every detuned +-beta block; it realizes the
same gate on a resonant (beta = 0) block iff the enclosed spherical area

    C_target = integral over [0, 4*pi] of (1 - cos(chi)) phi'(chi) dchi

vanishes.

The phi(chi) ansatz is a cubic boundary-condition part plus a trigonometric
correction:

    phi(chi) = a (chi - 6*pi) chi^2
               + sin^3(chi/2) (b1 sin(chi/4) + b2 sin(3*chi/4) + b3 cos(chi/2) + c)

with a = -Phi / (32*pi^3) pinning phi(4*pi) - phi(0) = Phi and phi'(0) =
phi'(4*pi) = 0 holding structurally.

phi is linear in (a, b1, b2, b3, c): it is written once, as a basis of five
terms with their first and second chi-derivatives. phi, phi' and phi'' on
the grid are the coefficient vector times that basis, and C_target is its
dot product with fixed per-term area weights (c's weight is zero).

Every curve functional takes a `CurveGrid`, the curve evaluated once on the
uniform chi grid. A caller that needs several functionals of one parameter
set builds the grid once and passes it to each; `synthesize_waveform` is the
per-parameter-set entry point that builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

CHI_MAX = 4.0 * np.pi

#: Number of uniform chi-grid points shared by synthesis and all quadratures.
CHI_GRID_POINTS = 16384


def coefficient_for_angle(phi_target: float) -> float:
    """Cubic coefficient a enforcing phi(4*pi) - phi(0) = phi_target."""
    return -phi_target / (32.0 * np.pi**3)


@dataclass(frozen=True)
class CurveParams:
    """Ansatz parameters of a closed 2-sphere curve.

    `a` is the cubic coefficient; `b1`, `b2`, `b3`, `c` weight the
    trigonometric correction. For chi_max = 4*pi the boundary condition
    ties `a` to the intended rotation angle via a = -phi_target/(32*pi^3).
    """

    a: float
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    c: float = 0.0
    chi_max: float = CHI_MAX
    phi_target: float = np.pi


def _basis(chi) -> np.ndarray:
    """Value, first and second chi-derivative of the five ansatz terms.

    Shape (3, 5) + chi.shape, terms in the order (a, b1, b2, b3, c), so that
    derivative k of phi is the coefficient vector contracted with row k.
    """
    chi = np.asarray(chi, dtype=float)
    s, co = np.sin(chi / 2.0), np.cos(chi / 2.0)
    # sin^3(chi/2) and its derivatives multiply each trigonometric factor f
    w, wp, wpp = s**3, 1.5 * s * s * co, 0.75 * s * (2.0 * co * co - s * s)
    f = np.stack([np.sin(chi / 4.0), np.sin(3.0 * chi / 4.0), co, np.ones_like(chi)])
    fp = np.stack([0.25 * np.cos(chi / 4.0), 0.75 * np.cos(3.0 * chi / 4.0),
                   -0.5 * s, np.zeros_like(chi)])
    # every factor is sin or cos of k chi, so f'' = -k^2 f
    k2 = np.array([1.0 / 16.0, 9.0 / 16.0, 0.25, 0.0]).reshape((4,) + (1,) * chi.ndim)
    out = np.empty((3, 5) + chi.shape)
    out[0, 0] = (chi - 6.0 * np.pi) * chi**2
    out[1, 0] = 3.0 * chi**2 - 12.0 * np.pi * chi
    out[2, 0] = 6.0 * chi - 12.0 * np.pi
    out[0, 1:] = w * f
    out[1, 1:] = wp * f + w * fp
    out[2, 1:] = wpp * f + 2.0 * wp * fp - w * k2 * f
    return out


def _coefficients(params: CurveParams) -> np.ndarray:
    return np.array([params.a, params.b1, params.b2, params.b3, params.c])


def _cumtrapz_corrected(values: np.ndarray, derivs: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid with the leading h^2/12 endpoint term removed.

    The running upper limit makes plain cumulative-trapezoid only O(h^2);
    subtracting (h^2/12)(f'(x_k) - f'(x_0)) restores O(h^4), which the
    oscillatory crosstalk phases need. Works along the last axis.
    """
    out = np.empty_like(values)
    out[..., 0] = 0.0
    np.cumsum(0.5 * h * (values[..., 1:] + values[..., :-1]), axis=-1, out=out[..., 1:])
    out -= (h * h / 12.0) * (derivs - derivs[..., :1])
    return out


class GridResolutionError(ArithmeticError):
    """The shared chi grid cannot resolve the curve (a numerical failure)."""


@lru_cache(maxsize=4)
def _grid_tables(n: int):
    """chi, sin(chi), cos(chi) and the ansatz basis on the n-point grid, read-only."""
    chi = np.linspace(0.0, CHI_MAX, n)
    tables = (chi, np.sin(chi), np.cos(chi), _basis(chi))
    for table in tables:
        table.flags.writeable = False
    return tables


class CurveGrid:
    """All curve quantities evaluated on the uniform n-point chi grid.

    Passing one grid to waveform synthesis, the susceptibility integrals and
    the area functional keeps them on an identical discretization, so oracle
    comparisons see no grid-mismatch noise.
    """

    def __init__(self, params: CurveParams, n: int = CHI_GRID_POINTS):
        if abs(params.chi_max - CHI_MAX) > 1e-12:
            raise ValueError("curve construction requires chi_max = 4*pi")
        self.params = params
        self.chi, self.sin_chi, self.cos_chi, basis = _grid_tables(n)
        self.h = self.chi[1] - self.chi[0]
        self.phi, self.dphi, self.ddphi = _coefficients(params) @ basis
        s = self.sin_chi * self.dphi
        sp = self.cos_chi * self.dphi + self.sin_chi * self.ddphi
        self.theta = np.pi / 2.0 + np.arctan(s)
        jumps = np.max(np.abs(np.diff(self.theta))) if n > 1 else 0.0
        if jumps > np.pi / 2.0:
            raise GridResolutionError("theta branch jump exceeds pi/2: chi grid too coarse")
        self.dtheta = sp / (1.0 + s * s)
        self.tprime = np.sqrt(1.0 + s * s)
        # d t'/d chi = s s'/t', analytic, used for the cumulative correction
        tpp = s * sp / self.tprime
        self.arc = _cumtrapz_corrected(self.tprime, tpp, self.h)
        area_integrand = (1.0 - self.cos_chi) * self.dphi
        area_deriv = self.sin_chi * self.dphi + (1.0 - self.cos_chi) * self.ddphi
        # S(chi) = half the running enclosed area
        self.S = 0.5 * _cumtrapz_corrected(area_integrand, area_deriv, self.h)
        #: drive envelope per unit |beta|
        self.omega_over_beta = (self.dtheta + self.cos_chi * self.dphi) / self.tprime

    @property
    def arc_length(self) -> float:
        return float(self.arc[-1])

    def trapz(self, integrand: np.ndarray):
        return np.trapezoid(integrand, dx=self.h, axis=-1)


@dataclass(frozen=True)
class Waveform:
    """Control envelope Omega(t) sampled on a uniform time grid.

    `beta_design` records the block detuning the time scaling used;
    T = (dimensionless arc length) / |beta_design|. A value of 0 marks
    waveforms that were not derived from a curve (e.g. cosine baselines).
    """

    T: float
    dt: float
    samples: np.ndarray = field(repr=False)
    beta_design: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt

    def envelope(self, t):
        """Linear interpolation between samples; zero outside [0, T]."""
        return np.interp(t, self.times, self.samples, left=0.0, right=0.0)

    @property
    def peak_amplitude(self) -> float:
        return float(np.max(np.abs(self.samples)))


def waveform_from_grid(grid: CurveGrid, beta: float, n_samples: int = 8192) -> Waveform:
    """Waveform realizing the curve on a block with detuning beta.

    Omega(chi) = (theta' + cos(chi) phi') / t' * |beta| is resampled from the
    chi grid onto a uniform time grid via the monotone map
    t(chi) = arc(chi)/|beta|. The sign of beta does not matter: flipping it
    reflects the curve about the polar axis and leaves both the envelope and
    the final gate unchanged.
    """
    if beta == 0.0:
        raise ValueError("beta = 0 blocks consume a waveform, they cannot set its scale")
    if n_samples < 256:
        raise ValueError("n_samples must be at least 256")
    scale = abs(beta)
    t_nodes = grid.arc / scale
    omega_nodes = grid.omega_over_beta * scale
    T = t_nodes[-1]
    t_uniform = np.linspace(0.0, T, n_samples)
    samples = np.interp(t_uniform, t_nodes, omega_nodes)
    return Waveform(T=T, dt=t_uniform[1] - t_uniform[0], samples=samples,
                    beta_design=beta)


def synthesize_waveform(params: CurveParams, beta: float, n_samples: int = 8192) -> Waveform:
    """`waveform_from_grid` on the curve's own default grid."""
    return waveform_from_grid(CurveGrid(params), beta, n_samples)


def area_functional(grid: CurveGrid) -> float:
    """Enclosed-area cost C_target = int (1 - cos chi) phi' dchi over [0, 4*pi]."""
    return 2.0 * float(grid.S[-1])


def rotation_angle(grid: CurveGrid) -> float:
    """Gate rotation angle delta_theta + delta_phi of the closed curve."""
    dtheta = float(grid.theta[-1] - grid.theta[0])
    dphi = float(grid.phi[-1] - grid.phi[0])
    return dtheta + dphi


# --- closed-form parameter relations -------------------------------------

def closed_form_b3(a: float, b1: float, b2: float) -> float:
    """Published closed form for the b3 that zeroes the enclosed area."""
    return -16.0 * a * (3.0 + 4.0 * np.pi**2) + 4096.0 * (13.0 * b1 - 33.0 * b2) / (45045.0 * np.pi)


def shortest_b1(a: float) -> float:
    """Published closed form for the zero-area b1 with b2 = b3 = c = 0.

    Kept verbatim for the audit; the quadrature solver
    :func:`solve_b1_zero_area` is the ground truth and the two are known to
    disagree (see the audit report).
    """
    return (1.0 / 512.0) * (-3465.0) * np.pi * (3.0 + 4.0 * np.pi**2) * a


@lru_cache(maxsize=4)
def _area_weights(n: int) -> np.ndarray:
    """Per-term C_target of the five basis functions, same quadrature as CurveGrid.S."""
    chi, sin_chi, cos_chi, basis = _grid_tables(n)
    integrand = (1.0 - cos_chi) * basis[1]
    deriv = sin_chi * basis[1] + (1.0 - cos_chi) * basis[2]
    return _cumtrapz_corrected(integrand, deriv, chi[1] - chi[0])[:, -1]


def area_affine(a: float):
    """Coefficients of C_target = c0 + k1 b1 + k2 b2 + k3 b3 at fixed a.

    C_target is linear in the ansatz coefficients, so it is their dot
    product with fixed per-term weights; c encloses no area and drops out.
    Every zero-area solve uses these; none of them builds a `CurveGrid`.
    """
    w_a, k1, k2, k3, _ = map(float, _area_weights(CHI_GRID_POINTS))
    return a * w_a, k1, k2, k3


def solve_b1_zero_area(a: float) -> float:
    """Quadrature oracle: the b1 zeroing C_target with b2 = b3 = c = 0."""
    c0, k1, _, _ = area_affine(a)
    return -c0 / k1


def solve_b3_zero_area(a: float, b1: float, b2: float) -> float:
    """Quadrature oracle for the area-zeroing b3 at given (a, b1, b2)."""
    c0, k1, k2, k3 = area_affine(a)
    return -(c0 + k1 * b1 + k2 * b2) / k3
