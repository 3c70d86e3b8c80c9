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
solution), evaluated as the sum of its two decaying modes so that it neither
overflows nor underflows before the value does; at Gamma = 2 gamma0 the
analytic limit exp(-Gamma t/2)(1 + Gamma t/2) is used.
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
    value = _kappa_abs(*factors, *_weights_over_thetas([spec.theta])[:, 0])
    if np.ndim(tau) == 0:
        return float(value)
    return value


def _kappa_abs_factors(spec: DephasingSpec, t: np.ndarray):
    """The angle-free factors of |kappa| on ``t``: the envelope
    exp(-sigma^2 t^2 / 2) and cos^2(dw t / 2) (``spec``'s theta is not read).

    Both squares are products: a numpy scalar's ** 2 is not x * x, so a
    scalar ``t`` would be one ulp off the array value now and then."""
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        st = spec.sigma * t
        square = st * st
    cos = np.cos(0.5 * spec.delta_omega * t)
    return np.exp(-0.5 * square), cos * cos


def _rising_columns(envelope: np.ndarray, osc: np.ndarray) -> np.ndarray:
    """The grid columns where |kappa| can rise at some angle, from the
    angle-free factors ``_kappa_abs_factors`` on one grid or on a stack of
    grids along the last axis: both ends of every step where ``envelope`` or
    ``osc`` rises, as indices into the flattened factors, grid by grid and
    in grid order (for one grid, the columns themselves).

    ``_kappa_abs`` forms s osc, + c, sqrt and * envelope, each one rounded
    operation that is monotone in its varying operand (c, s >= 0).  So
    across a step where neither factor rises |kappa| does not rise either,
    at any angle and in floating point, and every rising step of |kappa|
    has both ends among these columns.
    """
    rises = (envelope[..., 1:] > envelope[..., :-1]) | (osc[..., 1:] > osc[..., :-1])
    ends = np.zeros(envelope.shape, dtype=bool)
    ends[..., :-1] |= rises
    ends[..., 1:] |= rises
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


def _weights_over_thetas(thetas) -> np.ndarray:
    """The weights (c, s) = (cos^2(2 theta), sin^2(2 theta)) of ``_kappa_abs``
    for each angle in ``thetas``, as a (2, len(thetas)) array, each from
    math.cos and math.sin, so that an angle's weights do not depend on the
    others."""
    return np.array([(math.cos(2.0 * t) ** 2, math.sin(2.0 * t) ** 2) for t in thetas]).reshape(-1, 2).T


# Relative distance |width - 2 gamma0| / gamma0 below which the eps -> 0 limit
# is used.  Near there the discriminant width**2 - 2 gamma0 width is about
# 2 gamma0 (width - 2 gamma0), so the band is |discriminant| < 1e-12 gamma0**2.
_CRITICAL_DAMPING_TOL = 5e-13


def _critical(spec: LorentzSpec) -> bool:
    """Whether ``chi`` takes its critical limit: width within
    ``_CRITICAL_DAMPING_TOL`` gamma0 of 2 gamma0.  The band is set on the
    distance itself, not on the discriminant, which is as small at every
    width far below gamma0, and squares no rate, which could overflow."""
    return abs(spec.width - 2.0 * spec.gamma0) < _CRITICAL_DAMPING_TOL * spec.gamma0


def chi(spec: LorentzSpec, t):
    """Real amplitude-damping factor chi(t); chi(0) = 1.

    Oscillatory for width < 2*gamma0, hyperbolic for width > 2*gamma0, and the
    analytic critical limit in between.  Accepts a scalar or an array.
    """
    tt = np.asarray(t, dtype=float)
    g, eps = spec.width, spec.epsilon
    if _critical(spec):
        value = np.exp(-0.5 * g * tt) * (1.0 + 0.5 * g * tt)
    elif g < 2.0 * spec.gamma0:
        half = 0.5 * eps * tt
        value = np.exp(-0.5 * g * tt) * (np.cos(half) + (g / eps) * np.sin(half))
    else:
        # The modes 1/2 (1 + g/eps) e^{-(g - eps) t/2} + 1/2 (1 - g/eps)
        # e^{-(g + eps) t/2} with the slow one factored out.  Its rate
        # (g - eps)/2 = gamma0 g/(g + eps) cancels nothing, no factor
        # overflows, and the rest adds two terms >= 0 where the two weights
        # would cancel near critical damping.
        slow = spec.gamma0 * g / (g + eps)
        value = np.exp(-slow * tt) * (1.0 - slow / eps * np.expm1(-eps * tt))
    if np.ndim(t) == 0:
        return float(value)
    return value


def _oscillates(spec: LorentzSpec) -> bool:
    """Whether ``chi`` takes its oscillating branch: width < 2 gamma0, outside
    the band where it takes the critical limit."""
    return spec.width < 2.0 * spec.gamma0 and not _critical(spec)


def _delta_floors(spec: DephasingSpec, thetas) -> np.ndarray:
    """The closed form's floor delta = |cos(2 theta)| exp(-(pi sigma / dw)^2 / 2)
    of each angle in ``thetas`` (not ``spec``'s), from math.cos and math.exp."""
    try:
        square = (math.pi * spec.sigma / spec.delta_omega) ** 2
    except OverflowError:  # float ** raises where * gives inf; exp(-inf) = 0 is the limit
        return np.zeros(len(thetas))
    return np.array([abs(math.cos(2.0 * t)) * math.exp(-0.5 * square) for t in thetas])


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
    return float(_closed_forms(spec, [spec.theta], [tau_c])[1][0, 0])


def _closed_forms(spec: DephasingSpec, thetas, tau_cs):
    """|kappa(tau_c)| and the closed-form measure max(0, |kappa(tau_c)| - delta)
    of ``analytic_blp_dephasing`` for each angle in ``thetas`` (not
    ``spec``'s) and each control time in ``tau_cs``, one (thetas, tau_cs)
    array each.  Each value equals the one taken alone, bit for bit: the
    angle-free factors are formed once on ``tau_cs``, and the weights and
    floors of each angle come from its own scalars.  The control times are
    not checked here: ``analytic_blp_dephasing`` checks its own, and fig2
    and fig3 theirs through ``transition_thetas``, whose window is inside
    this one.
    """
    c, s = _weights_over_thetas(thetas)[..., None]
    kappa = _kappa_abs(*_kappa_abs_factors(spec, np.asarray(tau_cs, dtype=float)), c, s)
    return kappa, np.maximum(0.0, kappa - _delta_floors(spec, thetas)[:, None])


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
    # The roots tan^2(theta) = p -+ q need u > v (sigma tau_c > pi sigma/dw
    # after rounding), a real q and p - q >= 0.
    if u > v and radicand >= 0.0:
        p, q = (u + v * c) / (u - v), math.sqrt(radicand) / (u - v)
        if p - q >= 0.0:
            theta1, theta2 = math.atan(math.sqrt(p - q)), math.atan(math.sqrt(p + q))
            return (theta1, theta2) if theta1 <= theta2 else (theta2, theta1)
    raise NoTransitionError(f"delta_omega={delta_omega}, sigma={sigma} and tau_c={tau_c} give no real transition angle")
