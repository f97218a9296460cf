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

CHI_MAX = 4.0 * np.pi

#: Number of uniform chi-grid points shared by synthesis and all quadratures.
CHI_GRID_POINTS = 16384


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
                        out: np.ndarray | None = None,
                        work: np.ndarray | None = None) -> np.ndarray:
    """Cumulative trapezoid with the leading h^2/12 endpoint term removed.

    The running upper limit makes plain cumulative-trapezoid only O(h^2);
    subtracting (h^2/12)(f'(x_k) - f'(x_0)) restores O(h^4), which the
    oscillatory crosstalk phases need. Works along the last axis, into `out`
    with `work` as scratch (both shaped like `values`; new arrays if None).
    """
    out = np.empty_like(values) if out is None else out
    work = np.empty_like(values) if work is None else work
    out[..., 0] = 0.0
    steps = np.add(values[..., 1:], values[..., :-1], out=work[..., 1:])
    steps *= 0.5 * h
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    correction = np.subtract(derivs, derivs[..., :1], out=work)
    correction *= h * h / 12.0
    out -= correction
    return out


def _cos_sin(angle: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray,
             work: np.ndarray) -> None:
    """cos and sin of `angle` from t = tan(angle/2), by the half-angle identities.

    With u = 2/(1 + t^2), cos = u - 1 and sin = t u. On an AVX-512 x86-64
    host with numpy 2.4, np.tan over 16384 points takes 0.045 ms and np.sin
    or np.cos 0.24 ms each, so the pair costs about a quarter of theirs. It
    agrees with np.cos and np.sin to 3.3e-16 for arguments up to 1e6. `t`
    goes to `work`, a contiguous array shaped like `angle`: np.tan's vector
    loop runs only on contiguous data, and its scalar loop rounds differently.
    """
    t = np.multiply(angle, 0.5, out=work)
    np.tan(t, out=t)
    u = np.multiply(t, t, out=cos_out)
    u += 1.0
    np.divide(2.0, u, out=u)
    np.multiply(t, u, out=sin_out)
    np.subtract(u, 1.0, out=cos_out)


class GridResolutionError(ArithmeticError):
    """The shared chi grid cannot resolve the curve (a numerical failure)."""


@lru_cache(maxsize=4)
def _grid_tables(n: int):
    """chi, sin(chi), cos(chi), the ansatz basis and its running areas on the n-point grid.

    Row k of the running-area table, shape (5, n), is S(chi) of basis term k
    alone: half the running integral of (1 - cos chi) phi_k', by the
    endpoint-corrected cumulative trapezoid. The c term's row is its closed
    form (3/5) sin^5(chi/2), which vanishes at 4 pi to rounding, so c moves
    no curve's C_target. All tables are read-only.
    """
    chi = np.linspace(0.0, CHI_MAX, n)
    sin_chi, cos_chi, basis = np.sin(chi), np.cos(chi), _basis(chi)
    integrand = (1.0 - cos_chi) * basis[1, :4]
    deriv = sin_chi * basis[1, :4] + (1.0 - cos_chi) * basis[2, :4]
    area = np.empty((5, n))
    area[:4] = 0.5 * _cumtrapz_corrected(integrand, deriv, chi[1] - chi[0])
    area[4] = 0.6 * np.sin(chi / 2.0) ** 5
    tables = (chi, sin_chi, cos_chi, basis, area)
    for table in tables:
        table.flags.writeable = False
    return tables


class CurveGrid:
    """All curve quantities evaluated on the uniform n-point chi grid.

    Passing one grid to waveform synthesis, the susceptibility integrals and
    the area functional keeps them on an identical discretization, so oracle
    comparisons see no grid-mismatch noise. `s`, `e_phi` and `e_S`, formed
    by the half-angle identities, are shared by every `magnus` integral.

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
        self.chi, self.sin_chi, self.cos_chi, self._basis, self._area = _grid_tables(n)
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
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
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
