"""Closed-form decoherence functions of the two built-in environment families.

Dephasing of a single qubit in a two-peak Gaussian frequency environment is
parameterized by the complex factor

    kappa(tau) = exp(-sigma^2 tau^2 / 2) * (cos^2(theta) e^{i omega1 tau}
                                            + sin^2(theta) e^{i omega2 tau})

where ``tau`` is the dimensionless reduced time inside the control window (the
refraction-index difference is absorbed into tau, so it never appears as a
parameter).  Amplitude damping in a resonant Lorentzian environment is
parameterized by the real factor

    chi(t) = exp(-Gamma t / 2) * (cos(eps t / 2) + (Gamma/eps) sin(eps t / 2))

with eps = sqrt(|Gamma^2 - 2 gamma0 Gamma|).  For Gamma > 2 gamma0 the
trigonometric functions are continued as cosh/sinh (the standard overdamped
solution); at Gamma = 2 gamma0 the analytic limit exp(-Gamma t/2)(1 + Gamma t/2)
is used.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DephasingSpec",
    "LorentzSpec",
    "NoTransitionError",
    "kappa_complex",
    "kappa_abs",
    "chi",
    "analytic_blp_dephasing",
    "transition_thetas",
]


class NoTransitionError(ValueError):
    """The transition-angle equation has no real root for these parameters."""


@dataclass(frozen=True)
class DephasingSpec:
    """Two-peak Gaussian environment: peak weights cos^2/sin^2 of ``theta``,
    peak centers ``omega1 < omega2``, common width ``sigma``."""

    theta: float
    omega1: float = 0.0
    omega2: float = 10.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta={self.theta} outside [0, pi/2]")
        # A non-finite peak, width or gap would make kappa NaN at every t > 0.
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma={self.sigma} must be a finite number")
        if not math.isfinite(self.omega2 - self.omega1):
            raise ValueError(
                f"omega1={self.omega1} and omega2={self.omega2} must be finite and a finite distance apart"
            )
        if not self.omega2 > self.omega1:
            raise ValueError("omega2 must exceed omega1")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")

    @property
    def delta_omega(self) -> float:
        return self.omega2 - self.omega1


@dataclass(frozen=True)
class LorentzSpec:
    """Resonant Lorentzian environment: spectral width ``width`` (Gamma) and
    coupling rate ``gamma0`` (inverse correlation time)."""

    gamma0: float
    width: float

    def __post_init__(self) -> None:
        if not self.gamma0 > 0.0:
            raise ValueError("gamma0 must be positive")
        if not self.width > 0.0:
            raise ValueError("width must be positive")
        # epsilon's width**2 raises OverflowError where this is not finite;
        # where both terms underflow, epsilon comes out 0 or with few bits.
        terms = self.width * self.width, 2.0 * self.gamma0 * self.width
        if not math.isfinite(terms[0] - terms[1]):
            raise ValueError(f"width={self.width} and gamma0={self.gamma0} overflow width**2 - 2*gamma0*width")
        if max(terms) < sys.float_info.min:
            raise ValueError(f"width={self.width} and gamma0={self.gamma0} underflow width**2 - 2*gamma0*width")

    @property
    def epsilon(self) -> float:
        return math.sqrt(abs(self.width**2 - 2.0 * self.gamma0 * self.width))


def kappa_complex(spec: DephasingSpec, tau):
    """Complex dephasing factor kappa(tau); |kappa| <= 1, kappa(0) = 1.

    Accepts a scalar or an array of reduced times.
    """
    t = np.asarray(tau, dtype=float)
    st = spec.sigma * t
    value = np.exp(-0.5 * (st * st)) * (math.cos(spec.theta) ** 2 * np.exp(1j * spec.omega1 * t)
                                       + math.sin(spec.theta) ** 2 * np.exp(1j * spec.omega2 * t))
    if np.ndim(tau) == 0:
        return complex(value)
    return value


def kappa_abs(spec: DephasingSpec, tau):
    """|kappa(tau)| via the closed form
    exp(-sigma^2 tau^2/2) sqrt(cos^2(2 theta) + sin^2(2 theta) cos^2(dw tau / 2)).

    That is 1 - sin^2(2 theta) sin^2(dw tau / 2) under the square root, as a
    sum of two non-negative terms: the difference would cancel near the
    zeros of kappa (theta near pi/4, tau near odd multiples of pi/dw).
    """
    factors = _kappa_abs_factors(spec, np.asarray(tau, dtype=float))
    value = _kappa_abs(*factors, *_double_angle_weights(spec.theta))
    if np.ndim(tau) == 0:
        return float(value)
    return value


def _double_angle_weights(theta: float) -> tuple[float, float]:
    """(cos^2(2 theta), sin^2(2 theta)), the weights of ``_kappa_abs``."""
    return math.cos(2.0 * theta) ** 2, math.sin(2.0 * theta) ** 2


def _kappa_abs_factors(spec: DephasingSpec, t: np.ndarray):
    """The angle-free factors of |kappa| on ``t``: the envelope
    exp(-sigma^2 t^2 / 2) and cos^2(dw t / 2) (``spec``'s theta is not read).

    Both squares are products: a numpy scalar's ** 2 is not x * x, so a
    scalar ``t`` would be one ulp off the array value now and then."""
    st, cos = spec.sigma * t, np.cos(0.5 * spec.delta_omega * t)
    return np.exp(-0.5 * (st * st)), cos * cos


def _rising_columns(envelope: np.ndarray, osc: np.ndarray) -> np.ndarray:
    """The grid columns where |kappa| can rise at some angle, from the
    angle-free factors ``_kappa_abs_factors`` on one grid: both ends of every
    step where ``envelope`` or ``osc`` rises, in grid order.

    ``_kappa_abs`` forms s osc, + c, sqrt and * envelope, each one rounded
    operation that is monotone in its varying operand (c, s >= 0).  So
    across a step where neither factor rises |kappa| does not rise either,
    at any angle and in floating point, and every rising step of |kappa|
    has both ends among these columns.
    """
    rises = (np.diff(envelope) > 0.0) | (np.diff(osc) > 0.0)
    ends = np.zeros(envelope.size, dtype=bool)
    ends[:-1] |= rises
    ends[1:] |= rises
    return np.flatnonzero(ends)


def _kappa_abs(envelope, osc, c, s) -> np.ndarray:
    """|kappa|'s closed form, envelope sqrt(c + s osc), from
    ``_kappa_abs_factors`` and the weights c = cos^2(2 theta) and
    s = sin^2(2 theta), all broadcasting.  It is formed in place in one array
    of the broadcast shape, so it makes no temporary of that size."""
    shape = np.broadcast_shapes(*map(np.shape, (envelope, osc, c, s)))
    value = np.multiply(s, osc, out=np.empty(shape))
    value += c
    np.sqrt(value, out=value)
    value *= envelope
    return value


def _weights_over_thetas(thetas) -> tuple[np.ndarray, np.ndarray]:
    """``_double_angle_weights`` of each angle in ``thetas``, as the arrays (c, s)."""
    return np.array([_double_angle_weights(theta) for theta in thetas]).reshape(-1, 2).T


def _kappa_abs_over_thetas(spec: DephasingSpec, thetas, t) -> np.ndarray:
    """|kappa| on the 1-D grid ``t`` for each angle in ``thetas``, one row per
    angle: row i equals kappa_abs(replace(spec, theta=thetas[i]), t) bit for
    bit.  The angle-free factors are computed once for all rows."""
    c, s = _weights_over_thetas(thetas)
    return _kappa_abs(*_kappa_abs_factors(spec, np.asarray(t, dtype=float)), c[:, None], s[:, None])


# Relative discriminant threshold below which the eps -> 0 limit is used.
_CRITICAL_DAMPING_TOL = 1e-12


def chi(spec: LorentzSpec, t):
    """Real amplitude-damping factor chi(t); chi(0) = 1.

    Oscillatory for width < 2*gamma0, hyperbolic for width > 2*gamma0, and the
    analytic critical limit in between.  Accepts a scalar or an array.
    """
    tt = np.asarray(t, dtype=float)
    g = spec.width
    disc = g * g - 2.0 * spec.gamma0 * g
    envelope = np.exp(-0.5 * g * tt)
    if abs(disc) < _CRITICAL_DAMPING_TOL * spec.gamma0**2:
        value = envelope * (1.0 + 0.5 * g * tt)
    else:
        eps = spec.epsilon
        half = 0.5 * eps * tt
        if disc < 0.0:
            value = envelope * (np.cos(half) + (g / eps) * np.sin(half))
        else:
            value = envelope * (np.cosh(half) + (g / eps) * np.sinh(half))
    if np.ndim(t) == 0:
        return float(value)
    return value


def _oscillates(spec: LorentzSpec) -> bool:
    """Whether ``chi`` takes its oscillating branch: width < 2 gamma0, outside
    the band where it takes the critical limit."""
    return spec.width * spec.width - 2.0 * spec.gamma0 * spec.width <= -_CRITICAL_DAMPING_TOL * spec.gamma0**2


def _delta_floor(spec: DephasingSpec, theta: float) -> float:
    return abs(math.cos(2.0 * theta)) * math.exp(-0.5 * (math.pi * spec.sigma / spec.delta_omega) ** 2)


def _check_window(delta_omega: float, tau_c: float, closed_left: bool) -> None:
    lo = math.pi / delta_omega
    hi = 2.0 * math.pi / delta_omega
    # Accept control times within 1e-5 (relative) of the edges so rounded
    # inputs such as 0.62832 for 2 pi / 10 pass.
    slack = 1e-5 * hi
    left_ok = tau_c >= lo - slack if closed_left else tau_c > lo + slack
    if not (left_ok and tau_c <= hi + slack):
        bracket = "[" if closed_left else "("
        raise ValueError(
            f"tau_c={tau_c:.6g} outside the validity window "
            f"{bracket}{lo:.6g}, {hi:.6g}] (use the numeric backflow path instead)"
        )


def analytic_blp_dephasing(spec: DephasingSpec, tau_c: float) -> float:
    """Closed-form backflow measure max(0, |kappa(tau_c)| - delta) with
    delta = |cos(2 theta)| exp(-(pi sigma / dw)^2 / 2).

    Only valid for tau_c in [pi/dw, 2 pi/dw]; other control times are
    rejected and must go through the numeric route.  The value is clamped at
    zero where the expression goes negative (no net revival at tau_c).

    This is the paper's anchored formula: delta = |kappa(pi/dw)|, so the
    trace-distance minimum is read at the phase-opposition time pi/dw and the
    final value at tau_c.  The Gaussian envelope moves the true minimum of
    |kappa| later and the revival maximum before 2 pi/dw, so where the value
    is not clamped the sampled trace-distance backflow exceeds it by
    [|kappa(min(tau_c, t_max))| - |kappa(tau_c)|] + [|kappa(pi/dw)| - |kappa(t_min)|].
    At sigma/dw = 0.1 and tau_c < t_max that gap is 1.388e-3 at theta = pi/8
    or 3 pi/8 and 0 at theta = pi/4 (where the minimum sits exactly at
    pi/dw); at tau_c = 2 pi/dw it is 1.353e-2 and 6.241e-3.  Acceptance
    criterion 3 checks the formula against the sampled backflow with this
    offset added.
    """
    tau_c = float(tau_c)
    _check_window(spec.delta_omega, tau_c, closed_left=True)
    return max(0.0, kappa_abs(spec, tau_c) - _delta_floor(spec, spec.theta))


def _delta_floors(spec: DephasingSpec, thetas) -> np.ndarray:
    """``_delta_floor`` of each angle in ``thetas`` (not ``spec``'s), bit for
    bit: the same math.cos/math.exp scalars."""
    return np.array([_delta_floor(spec, theta) for theta in thetas])


def _analytic_blp_over_thetas(spec: DephasingSpec, tau_c: float, kappa_at_tau_c, floors) -> np.ndarray:
    """``analytic_blp_dephasing`` at ``tau_c`` for each of several angles,
    bit for bit, from their |kappa(tau_c)| (a column of
    ``_kappa_abs_over_thetas`` at [tau_c]) and their ``_delta_floors``."""
    _check_window(spec.delta_omega, float(tau_c), closed_left=True)
    return np.maximum(0.0, kappa_at_tau_c - floors)


def transition_thetas(delta_omega: float, sigma: float, tau_c: float) -> tuple[float, float]:
    """Angles where the closed-form backflow measure crosses zero.

    Returns (theta1, theta2) with theta1 <= theta2; the measure is positive
    between them.  Requires tau_c in (pi/dw, 2 pi/dw].
    """
    delta_omega = float(delta_omega)
    sigma = float(sigma)
    tau_c = float(tau_c)
    if delta_omega <= 0.0 or sigma <= 0.0:
        raise ValueError("delta_omega and sigma must be positive")
    _check_window(delta_omega, tau_c, closed_left=False)
    c = math.cos(delta_omega * tau_c)
    try:
        u = math.exp((sigma * tau_c) ** 2)
        v = math.exp((math.pi * sigma / delta_omega) ** 2)
        radicand = 2.0 * u * v * (1.0 + c) - (v * math.sin(delta_omega * tau_c)) ** 2
    except OverflowError:
        radicand = math.inf
    # A finite radicand leaves u, v, u*v and so p and q finite.
    if not math.isfinite(radicand):
        raise ValueError(f"sigma={sigma} and tau_c={tau_c} overflow the transition-angle equation")
    if u <= v:
        raise NoTransitionError(f"u={u:.6g} <= v={v:.6g}: no real transition angle")
    p = (u + v * c) / (u - v)
    if radicand < 0.0:
        raise NoTransitionError("negative discriminant: no real transition angle")
    q = math.sqrt(radicand) / (u - v)
    if p - q < 0.0:
        raise NoTransitionError(f"p - q = {p - q:.6g} < 0: no real transition angle")
    theta1 = math.atan(math.sqrt(p - q))
    theta2 = math.atan(math.sqrt(p + q))
    return (theta1, theta2) if theta1 <= theta2 else (theta2, theta1)
