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
the grid are the coefficient vector times that basis. So is the running
half-area S(chi), from a per-term running-area table, and C_target = 2 S(4 pi)
is the coefficient vector's dot product with that table's last column (c's
entry is zero to rounding: c's row is its closed form).

Every curve functional takes a `CurveGrid`, the curve evaluated once on the
uniform chi grid. A caller that needs several functionals of one parameter
set builds the grid once and passes it to each; `synthesize_waveform` is the
per-parameter-set entry point that builds its own. The grid also carries
s = sin(chi) phi', e^{i phi} and e^{i S}, which the `magnus` integrals read.
A caller that evaluates many parameter sets in turn, as the optimizer does,
builds one grid and `refill`s it for each: the fields are overwritten in
place, bit for bit what a new grid would hold, and the grid's scratch rows
hold the temporaries of the refill and of the `magnus` integrals, so no
evaluation allocates an n-point array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import _cos_sin

CHI_MAX = 4.0 * np.pi

#: Number of uniform chi-grid points shared by synthesis and all quadratures.
CHI_GRID_POINTS = 16384

#: Default number of uniform time samples of a synthesized waveform.
WAVEFORM_SAMPLES = 8192


def search_grid_points(delta_tilde: float, beta: float) -> int:
    """chi-grid points of the optimizer's search at crosstalk detuning delta_tilde, time scale beta.

    The smallest power of two n >= 2048 with |delta_tilde / beta| 4 pi/(n - 1)
    <= 0.3 rad, capped at CHI_GRID_POINTS. The crosstalk phase
    delta_tilde t(chi) advances by that bound times t' per node, so the
    search resolves each crosstalk oscillation at least as finely as the
    default grid does where the cap starts to bind, at |delta_tilde / beta|
    = 196 (Delta = 98 J on the 2q midpoint drive, 196 J on the resonant
    drive and the chain). Every setting gets 2048 nodes at Delta = 20 J.
    Measured against 262145 nodes, the robust presets' crosstalk amplitudes
    at Delta in {20, 80, 200} J are within 1.6e-3 relative on this grid
    (1.4e-3 on the default grid at 200 J), where a fixed 2048-node grid is
    off by 0.17-0.83 at 200 J; the susceptibility residuals of the eight
    presets are within 1.1e-8 at 2048 nodes. A steeper curve, whose t'
    peaks higher, is left to the default grid by SEARCH_PHASE_STEP.
    """
    n = 2048
    while n < CHI_GRID_POINTS and abs(delta_tilde) * CHI_MAX / (n - 1) > 0.3 * abs(beta):
        n *= 2
    return n


#: The largest crosstalk phase advance between two nodes, |delta_tilde / beta|
#: h max t', of a curve that the optimizer evaluates on its search grid; it
#: evaluates a steeper one on the default grid. A quarter turn: the robust
#: presets step at most 0.56 rad on 2048 nodes at Delta = 20 J, and the
#: phase aliases from about 5.5 rad. Against 65537 nodes, random curves
#: that step at most this far have residuals off by at most 1.4e-9 of the
#: largest residual (49 of 270 curves, amplitudes 30-300); the others are
#: off by a median 1.2e-4 and up to 8.9e-2.
SEARCH_PHASE_STEP = np.pi / 2.0


def real_fields(record, *names) -> None:
    """Store the named fields of a frozen record as floats; each must be a finite real.

    A record, and any hash of it, then does not depend on whether a number
    was spelled 20 or 20.0. A bool is refused, though Python counts it as real.
    """
    values = [getattr(record, name) for name in names]
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in values):
        raise TypeError(f"{', '.join(names)} must be real numbers: {record}")
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"{', '.join(names)} must be finite: {record}")
    for name, x in zip(names, values):
        object.__setattr__(record, name, float(x))


def coefficient_for_angle(phi_target: float) -> float:
    """Cubic coefficient a enforcing phi(4*pi) - phi(0) = phi_target."""
    return -phi_target / (32.0 * np.pi**3)


@dataclass(frozen=True)
class CurveParams:
    """Ansatz parameters of a closed 2-sphere curve.

    `a` is the cubic coefficient; `b1`, `b2`, `b3`, `c` weight the
    trigonometric correction. The boundary condition ties `a` to the gate
    angle, a = -phi_target/(32*pi^3); an `a` whose angle -32*pi^3*a differs
    from `phi_target` by more than 1e-12 max(1, |phi_target|) is refused.
    """

    a: float
    b1: float = 0.0
    b2: float = 0.0
    b3: float = 0.0
    c: float = 0.0
    phi_target: float = np.pi

    def __post_init__(self):
        real_fields(self, "a", "b1", "b2", "b3", "c", "phi_target")
        angle = -32.0 * np.pi**3 * self.a
        if abs(angle - self.phi_target) > 1e-12 * max(1.0, abs(self.phi_target)):
            raise ValueError(f"a = {self.a!r} is the coefficient of gate angle {angle!r}, "
                             f"not of phi_target = {self.phi_target!r}")


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


def _cumtrapz_corrected(values: np.ndarray, derivs: np.ndarray, h: float,
                        out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid with the leading h^2/12 endpoint term removed.

    The running upper limit makes plain cumulative-trapezoid only O(h^2);
    subtracting (h^2/12)(f'(x_k) - f'(x_0)) restores O(h^4), which the
    oscillatory crosstalk phases need. Works along the last axis, into `out`
    with `work` as scratch, both shaped like `values`, and returns `out`.
    """
    out[..., 0] = 0.0
    steps = np.add(values[..., 1:], values[..., :-1], out=work[..., 1:])
    steps *= 0.5 * h
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    correction = np.subtract(derivs, derivs[..., :1], out=work)
    correction *= h * h / 12.0
    out -= correction
    return out


class GridResolutionError(ArithmeticError):
    """The shared chi grid cannot resolve the curve or its crosstalk phase (a numerical failure)."""


@lru_cache(maxsize=4)
def _grid_tables(n: int):
    """chi, sin(chi), cos(chi), the ansatz basis, its running areas and weights on the n-point grid.

    Row k of the running-area table, shape (5, n), is S(chi) of basis term k
    alone: half the running integral of (1 - cos chi) phi_k', by the
    endpoint-corrected cumulative trapezoid. The c term's row is its closed
    form (3/5) sin^5(chi/2), which vanishes at 4 pi to rounding, so c moves
    no curve's C_target.

    The (5, n) quadrature weights of the `magnus` integrals fold in their
    fixed factors: the composite trapezoid times 1, sin(chi) and cos(chi)
    for the susceptibilities, a corrected trapezoid times cos(chi/2) and
    sin(chi/2) for the crosstalk amplitudes. Those cancel down to ~1e-4 of
    their integrand mass, where the trapezoid's endpoint error is visible, so
    their rule drops the h^2/12 Euler-Maclaurin endpoint term, with boundary
    derivatives from one-sided 3-point stencils: O(h^4). All are read-only.
    """
    chi = np.linspace(0.0, CHI_MAX, n)
    sin_chi, cos_chi, basis = np.sin(chi), np.cos(chi), _basis(chi)
    h = chi[1] - chi[0]
    integrand = (1.0 - cos_chi) * basis[1, :4]
    deriv = sin_chi * basis[1, :4] + (1.0 - cos_chi) * basis[2, :4]
    area = np.empty((5, n))
    # halved in place, exactly: 0.5 is a power of two
    _cumtrapz_corrected(integrand, deriv, h, area[:4], np.empty_like(integrand))
    area[:4] *= 0.5
    area[4] = 0.6 * np.sin(chi / 2.0) ** 5
    trap = np.full(n, h)
    trap[[0, -1]] = 0.5 * h
    corrected = trap.copy()
    stencil = h / 24.0 * np.array([-3.0, 4.0, -1.0])
    corrected[:3] += stencil
    corrected[-3:] += stencil[::-1]
    weights = np.stack([trap, trap * sin_chi, trap * cos_chi,
                        corrected * np.cos(chi / 2.0), corrected * np.sin(chi / 2.0)])
    tables = (chi, sin_chi, cos_chi, basis, area, weights)
    for table in tables:
        table.flags.writeable = False
    return tables


class CurveGrid:
    """All curve quantities evaluated on the uniform n-point chi grid.

    Passing one grid to waveform synthesis, the susceptibility integrals and
    the area functional keeps them on an identical discretization, so oracle
    comparisons see no grid-mismatch noise. `s`, `e_phi` and `e_S`, formed
    by the half-angle identities, are shared by every `magnus` integral, as
    are the quadrature weights `trap`, `trap_sin`, `trap_cos`, `ct1_weight`
    and `ct2_weight` (read-only, see `_grid_tables`).

    The field arrays are allocated once. `refill` recomputes them in place
    for another parameter set, so a caller that evaluates many curves (the
    optimizer) allocates no n-point array per curve. The grid also owns a
    scratch block, `work` (four real rows), `cwork` (two complex rows) and
    `amps` (an (n, 2) complex stack), which `refill` and the `magnus`
    integrals write their temporaries into. A refill overwrites every field,
    and an integral overwrites the scratch, so one grid serves one thread at
    a time, and a caller that keeps a field past the next refill copies it.
    """

    def __init__(self, params: CurveParams, n: int = CHI_GRID_POINTS):
        self.chi, self.sin_chi, self.cos_chi, self._basis, self._area, weights = _grid_tables(n)
        self.trap, self.trap_sin, self.trap_cos, self.ct1_weight, self.ct2_weight = weights
        self.h = self.chi[1] - self.chi[0]
        # one block of 14 real and 6 complex rows (3.4 MB at 16384 points):
        # above glibc's mmap threshold, so a dropped grid goes back to the OS
        # at once instead of leaving freed rows inside the heap
        block = np.empty((26, n))
        real, cplx = block[:14], block[14:].reshape(6, 2 * n).view(complex)
        self._derivs = real[:3]
        self.phi, self.dphi, self.ddphi = self._derivs
        (self.s, self.theta, self.dtheta, self.tprime, self.arc, self.S,
         self.omega_over_beta) = real[3:10]
        self.work = real[10:]
        self.e_phi, self.e_S = cplx[:2]
        self.cwork = cplx[2:4]
        self.amps = cplx[4:].reshape(n, 2)
        self.refill(params)

    def refill(self, params: CurveParams) -> CurveGrid:
        """Evaluate the curve of `params` into this grid's arrays, and return the grid.

        Every field is computed by the same operations in the same order as
        on a new grid, so it matches `CurveGrid(params)` bit for bit. A
        GridResolutionError leaves the fields part old, part new.
        """
        self.params = params
        t0, t1 = self.work[:2]
        coefficients = _coefficients(params)
        np.matmul(coefficients, self._basis, out=self._derivs)
        s = np.multiply(self.sin_chi, self.dphi, out=self.s)
        sp = np.multiply(self.cos_chi, self.dphi, out=t0)
        sp += np.multiply(self.sin_chi, self.ddphi, out=t1)
        np.arctan(s, out=self.theta)
        self.theta += np.pi / 2.0
        if len(s) > 1:
            jumps = np.subtract(self.theta[1:], self.theta[:-1], out=t1[1:])
            if np.max(np.abs(jumps, out=jumps)) > np.pi / 2.0:
                raise GridResolutionError("theta branch jump exceeds pi/2: chi grid too coarse")
        one_s2 = np.multiply(s, s, out=t1)
        one_s2 += 1.0
        np.divide(sp, one_s2, out=self.dtheta)
        np.sqrt(one_s2, out=self.tprime)
        # d t'/d chi = s s'/t', analytic, used for the cumulative correction
        tpp = np.multiply(s, sp, out=t1)
        tpp /= self.tprime
        _cumtrapz_corrected(self.tprime, tpp, self.h, out=self.arc, work=t0)
        # S(chi) = half the running enclosed area
        np.matmul(coefficients, self._area, out=self.S)
        #: drive envelope per unit |beta|
        np.add(self.dtheta, np.multiply(self.cos_chi, self.dphi, out=t0),
               out=self.omega_over_beta)
        self.omega_over_beta /= self.tprime
        # the phase factors every first-order integral reads (see magnus)
        _cos_sin(self.phi, self.e_phi.real, self.e_phi.imag, t0)
        _cos_sin(self.S, self.e_S.real, self.e_S.imag, t0)
        return self

    @property
    def arc_length(self) -> float:
        return float(self.arc[-1])


@dataclass(frozen=True)
class Waveform:
    """Control envelope Omega(t) sampled on a uniform time grid.

    `beta_design` records the block detuning the time scaling used;
    T = (dimensionless arc length) / |beta_design|. A value of 0 marks
    waveforms that were not derived from a curve (e.g. cosine baselines).
    """

    T: float
    samples: np.ndarray = field(repr=False)
    beta_design: float

    @property
    def dt(self) -> float:
        """Sample spacing: the step `np.linspace(0, T, len(samples))` forms."""
        return self.T / (len(self.samples) - 1)

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt

    def envelope(self, t):
        """Linear interpolation between samples; zero outside [0, T]."""
        return np.interp(t, self.times, self.samples, left=0.0, right=0.0)

    @property
    def peak_amplitude(self) -> float:
        return float(np.max(np.abs(self.samples)))


def waveform_from_grid(grid: CurveGrid, beta: float,
                       n_samples: int = WAVEFORM_SAMPLES) -> Waveform:
    """Waveform realizing the curve on a block with detuning beta.

    Omega(chi) = (theta' + cos(chi) phi') / t' * |beta| is resampled from the
    chi grid onto a uniform time grid via the monotone map
    t(chi) = arc(chi)/|beta|. The sign of beta does not matter: flipping it
    reflects the curve about the polar axis and leaves both the envelope and
    the final gate unchanged.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    if beta == 0.0:
        raise ValueError("beta = 0 blocks consume a waveform, they cannot set its scale")
    if n_samples < 256:
        raise ValueError("n_samples must be at least 256")
    if n_samples > 2**20:
        raise ValueError(f"n_samples must be at most 2**20 = {2**20}, got {n_samples}")
    scale = abs(beta)
    t_nodes = grid.arc / scale
    omega_nodes = grid.omega_over_beta * scale
    T = t_nodes[-1]
    t_uniform = np.linspace(0.0, T, n_samples)
    samples = np.interp(t_uniform, t_nodes, omega_nodes)
    return Waveform(T=T, samples=samples, beta_design=beta)


def synthesize_waveform(params: CurveParams, beta: float,
                        n_samples: int = WAVEFORM_SAMPLES) -> Waveform:
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


def area_affine(a: float):
    """Coefficients of C_target = c0 + k1 b1 + k2 b2 + k3 b3 at fixed a.

    C_target is linear in the ansatz coefficients, so it is their dot
    product with the last column of the grid's running-area table, the one
    `CurveGrid.S` reads; c encloses no area and drops out. Every zero-area
    solve uses these; none of them builds a `CurveGrid`.
    """
    area = _grid_tables(CHI_GRID_POINTS)[4]
    w_a, k1, k2, k3, _ = map(float, 2.0 * area[:, -1])
    return a * w_a, k1, k2, k3


def solve_b1_zero_area(a: float) -> float:
    """Quadrature oracle: the b1 zeroing C_target with b2 = b3 = c = 0."""
    c0, k1, _, _ = area_affine(a)
    return -c0 / k1


def solve_b3_zero_area(a: float, b1: float, b2: float) -> float:
    """Quadrature oracle for the area-zeroing b3 at given (a, b1, b2)."""
    c0, k1, k2, k3 = area_affine(a)
    return -(c0 + k1 * b1 + k2 * b2) / k3
