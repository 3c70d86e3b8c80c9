import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backflow import (
    DephasingSpec,
    LorentzSpec,
    analytic_blp_dephasing,
    chi,
    kappa_abs,
    kappa_complex,
    transition_thetas,
)

from backflow.decoherence import _kappa_abs_factors, _kappa_abs_over_thetas, _rising_columns
from oracles import bisect_root, kappa_by_quadrature

DW, SIGMA = 10.0, 1.0


def spec(theta, omega1=0.0):
    return DephasingSpec(theta, omega1, omega1 + DW, SIGMA)


def unclamped_measure(theta, tau_c):
    delta = abs(math.cos(2 * theta)) * math.exp(-0.5 * (math.pi * SIGMA / DW) ** 2)
    return kappa_abs(spec(theta), tau_c) - delta


class TestKappa:
    def test_normalization_at_zero(self):
        for theta in (0.0, 0.3, math.pi / 4, 1.2):
            assert kappa_complex(spec(theta), 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
            assert kappa_abs(spec(theta), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_single_peak_reduces_to_one_gaussian(self):
        s = DephasingSpec(0.0, omega1=2.0, omega2=12.0, sigma=1.5)
        for tau in (0.05, 0.2, 0.55):
            expected = math.exp(-0.5 * (1.5 * tau) ** 2) * cmath.exp(2.0j * tau)
            assert kappa_complex(s, tau) == pytest.approx(expected, abs=1e-15)

    def test_phase_opposition_zero(self):
        # Equal peaks half an oscillation apart cancel exactly.
        assert abs(kappa_complex(spec(math.pi / 4), math.pi / 10)) <= 1e-12
        assert kappa_abs(spec(math.pi / 4), math.pi / 10) <= 1e-12

    def test_closed_form_magnitude(self):
        value = kappa_abs(spec(math.pi / 4), 2 * math.pi / 10)
        assert value == pytest.approx(math.exp(-0.5 * (2 * math.pi / 10) ** 2), abs=1e-15)
        assert value == pytest.approx(0.8208687174155399, abs=1e-13)

    @pytest.mark.parametrize("kwargs, message", [
        ({"sigma": math.inf}, "sigma=inf must be a finite number"),
        ({"sigma": math.nan}, "sigma=nan must be a finite number"),
        ({"omega2": math.inf}, "omega1=0.0 and omega2=inf must be finite and a finite distance apart"),
        ({"omega1": -math.inf}, "omega1=-inf and omega2=10.0 must be finite and a finite distance apart"),
        ({"omega1": math.nan}, "omega1=nan and omega2=10.0 must be finite and a finite distance apart"),
        # Both finite, but omega2 - omega1 overflows.
        ({"omega1": -1e308, "omega2": 1e308},
         "omega1=-1e+308 and omega2=1e+308 must be finite and a finite distance apart"),
    ])
    def test_non_finite_parameters_are_named(self, kwargs, message):
        # Accepted, each would make kappa NaN at every t > 0.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DephasingSpec(0.3, **kwargs)

    def test_magnitude_matches_complex_form_on_grid(self):
        thetas = np.linspace(0.0, math.pi / 2, 25)
        taus = np.linspace(0.0, 1.3, 40)
        for theta in thetas:
            s = spec(float(theta), omega1=0.7)
            diff = np.abs(np.abs(kappa_complex(s, taus)) - kappa_abs(s, taus))
            assert diff.max() <= 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 4 - 1e-6, math.pi / 4 + 1e-6])
    def test_magnitude_keeps_its_digits_near_the_zeros(self, theta):
        # Near tau = pi/dw (and 3 pi/dw) at theta ~ pi/4, |kappa| is small
        # and 1 - sin^2(2 theta) sin^2(dw tau / 2) under the root would
        # cancel; the complex form loses no digits there.
        offsets = np.outer([-1.0, 1.0], 10.0 ** -np.arange(2.0, 11.0)).ravel()
        for zero in (math.pi / DW, 3 * math.pi / DW):
            taus = zero + offsets
            want = np.abs(kappa_complex(spec(theta), taus))
            assert np.all(np.abs(kappa_abs(spec(theta), taus) - want) <= 1e-9 * want)

    def test_weight_symmetry_of_magnitude(self):
        taus = np.linspace(0.0, 1.0, 17)
        for theta in (0.1, 0.4, 0.7):
            a = kappa_abs(spec(theta), taus)
            b = kappa_abs(spec(math.pi / 2 - theta), taus)
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_frequency_shift_covariance(self):
        shift = 3.7
        taus = np.linspace(0.0, 0.9, 11)
        for theta in (0.2, math.pi / 4, 1.1):
            base = kappa_complex(spec(theta), taus)
            shifted = kappa_complex(spec(theta, omega1=shift), taus)
            assert np.max(np.abs(shifted - base * np.exp(1j * shift * taus))) <= 1e-12
            assert np.max(np.abs(np.abs(shifted) - np.abs(base))) <= 1e-12

    def test_magnitude_bounded_by_one(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = DephasingSpec(
                rng.uniform(0, math.pi / 2),
                omega1=rng.uniform(-3, 3),
                omega2=rng.uniform(5, 20),
                sigma=rng.uniform(0.3, 2.0),
            )
            assert abs(kappa_complex(s, rng.uniform(0, 2))) <= 1.0 + 1e-12

    def test_scalar_equals_array_bit_for_bit(self):
        # A numpy scalar's ** 2 is not x * x: the scalar path was one ulp off
        # for ~0.1% of times, which the envelope exp(-70) turns into 1e-14.
        taus = np.random.default_rng(12).uniform(0.0, 12.0, 4000)
        for s in (DephasingSpec(0.7, 0.0, 1.0, 1.9043326620887626), spec(0.3, omega1=-1.5)):
            assert [kappa_abs(s, float(t)) for t in taus] == kappa_abs(s, taus).tolist()
            assert [kappa_complex(s, float(t)) for t in taus] == kappa_complex(s, taus).tolist()

    def test_theta_columns_equal_kappa_abs_bit_for_bit(self):
        # Whole grids, scattered times, and one control time ([tau_c]) as fig3a/fig3b read it.
        rng = np.random.default_rng(11)
        thetas = [0.0, math.pi / 8, math.pi / 4, math.pi / 2, *rng.uniform(0.0, math.pi / 2, 40)]
        base = DephasingSpec(0.3, omega1=-1.5, omega2=8.5, sigma=0.7)
        for t in (np.linspace(0.0, 2 * math.pi / DW, 4001), rng.uniform(0.0, 3.0, 257), np.array([0.4]), [0.4]):
            columns = _kappa_abs_over_thetas(base, thetas, t)
            assert columns.shape == (len(thetas), np.size(t))
            for theta, row in zip(thetas, columns):
                expected = kappa_abs(DephasingSpec(theta, -1.5, 8.5, 0.7), np.asarray(t))
                assert row.tobytes() == expected.tobytes()


class TestRisingColumns:
    """fig2 forms |kappa| only at ``_rising_columns``: across any other step
    neither angle-free factor rises, so |kappa| must not rise at any angle,
    in floating point."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 3.0), st.floats(0.5, 40.0), st.floats(-5.0, 5.0), st.floats(0.0, math.pi / 2),
           st.floats(1e-3, 8.0), st.integers(2, 4001))
    @example(0.1, 10.0, 0.0, math.pi / 4, 2.0, 2)
    @example(0.1, 10.0, 0.0, math.pi / 8, 3.5, 2)
    @example(0.1, 10.0, 0.0, 0.0, 2.0, 4001)
    @example(0.1, 10.0, 0.0, math.pi / 4, 2.0, 4001)
    @example(0.1, 10.0, 0.0, math.pi / 2, 2.0, 4001)
    @example(0.3, 37.0, -2.0, math.pi / 4, 7.9, 1001)
    def test_every_rising_step_has_both_ends_among_the_columns(self, sigma_over_dw, dw, omega1, theta,
                                                                 tau_c_over_half_period, grid):
        s = DephasingSpec(theta, omega1, omega1 + dw, sigma_over_dw * dw)
        t = np.linspace(0.0, tau_c_over_half_period * math.pi / dw, grid)
        columns = _rising_columns(*_kappa_abs_factors(s, t))
        rising = np.flatnonzero(np.diff(kappa_abs(s, t)) > 0.0)
        assert columns.dtype.kind == "i" and np.all(np.diff(columns) > 0)
        assert np.isin(rising, columns).all() and np.isin(rising + 1, columns).all()

    def test_a_rise_of_either_factor_makes_a_step_a_candidate(self):
        ones = np.ones(5)
        rising = np.array([0.5, 0.4, 0.6, 0.6, 0.1])
        assert _rising_columns(rising, ones).tolist() == [1, 2]
        assert _rising_columns(ones, rising).tolist() == [1, 2]
        assert _rising_columns(ones, ones).tolist() == []

    def test_a_window_before_the_first_minimum_has_no_column(self):
        # Up to pi/dw both factors fall, so |kappa| never rises at any angle.
        t = np.linspace(0.0, 0.9 * math.pi / DW, 4001)
        assert _rising_columns(*_kappa_abs_factors(spec(0.3), t)).size == 0
        for theta in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            assert not np.any(np.diff(kappa_abs(spec(theta), t)) > 0.0)


class TestQuadrature:
    def test_normalization(self):
        assert abs(kappa_by_quadrature(spec(0.6), 0.0) - 1.0) <= 1e-10

    def test_agrees_with_closed_form(self):
        for theta, tau in ((math.pi / 4, 0.3), (math.pi / 3, 0.5), (0.2, 0.05)):
            s = spec(theta)
            assert abs(kappa_by_quadrature(s, tau) - kappa_complex(s, tau)) <= 1e-8


class TestChi:
    def test_identity_at_zero(self):
        for ratio in (0.1, 0.5, 1.0, 1.999, 2.0, 3.0):
            assert chi(LorentzSpec(1.0, ratio), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_revival_value(self):
        s = LorentzSpec(1.0, 0.1)
        t_rev = 2 * math.pi / s.epsilon
        assert chi(s, t_rev) == pytest.approx(-math.exp(-math.pi * 0.1 / s.epsilon), abs=1e-12)
        assert chi(s, t_rev) == pytest.approx(-0.4863966750707109, abs=1e-12)

    def test_derivative_identity(self):
        # d chi / dt = -e^{-G t/2} (G^2 + eps^2) / (2 eps) * sin(eps t / 2)
        h = 1e-5
        for ratio in (0.1, 0.5, 1.0, 1.8):
            s = LorentzSpec(1.0, ratio)
            for t in np.linspace(0.1, 1.8 * math.pi / s.epsilon, 9):
                numeric = (chi(s, t + h) - chi(s, t - h)) / (2 * h)
                exact = (
                    -math.exp(-0.5 * s.width * t)
                    * (s.width**2 + s.epsilon**2)
                    / (2 * s.epsilon)
                    * math.sin(0.5 * s.epsilon * t)
                )
                assert numeric == pytest.approx(exact, abs=1e-6)

    def test_critical_damping_limit(self):
        exact = LorentzSpec(1.0, 2.0)  # discriminant exactly zero
        for t in (0.3, 1.0, 4.0):
            limit = math.exp(-t) * (1.0 + t)
            assert chi(exact, t) == pytest.approx(limit, abs=1e-12)
            below = LorentzSpec(1.0, 2.0 - 1e-7)
            above = LorentzSpec(1.0, 2.0 + 1e-7)
            assert chi(below, t) == pytest.approx(limit, rel=1e-6)
            assert chi(above, t) == pytest.approx(limit, rel=1e-6)

    def test_underflowing_width_and_gamma0_are_rejected(self):
        # Both terms of width**2 - 2 gamma0 width underflow, so epsilon would
        # be 0 (a division by zero in chi) or keep only a few bits.
        for gamma0, width in ((1e-300, 1e-301), (1e-160, 1e-161), (1e-300, 2e-300)):
            with pytest.raises(ValueError, match=r"underflow width\*\*2 - 2\*gamma0\*width"):
                LorentzSpec(gamma0, width)
        # One term alone may underflow; the critical point stays valid.
        assert LorentzSpec(1.0, 1e-200).epsilon == math.sqrt(2e-200)
        assert chi(LorentzSpec(1.0, 1e-200), 1.0) == 1.0
        assert chi(LorentzSpec(1e-150, 2e-150), 1.0) == 1.0

    def test_overdamped_branch_decays_monotonically(self):
        s = LorentzSpec(1.0, 3.0)
        ts = np.linspace(0.0, 10.0, 400)
        vals = chi(s, ts)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals <= 1.0 + 1e-12)
        assert np.all(vals > 0.0)


class TestAnalyticMeasure:
    def test_balanced_peaks_value(self):
        tau_c = 2 * math.pi / 10
        value = analytic_blp_dephasing(spec(math.pi / 4), tau_c)
        assert value == pytest.approx(math.exp(-0.5 * tau_c**2), abs=1e-14)

    def test_single_peak_clamps_to_zero(self):
        for tau_c in (1.1 * math.pi / 10, 2 * math.pi / 10):
            assert analytic_blp_dephasing(spec(0.0), tau_c) == 0.0
            assert analytic_blp_dephasing(spec(math.pi / 2), tau_c) == 0.0

    def test_rejects_control_time_outside_window(self):
        for tau_c in (0.05, 0.9 * math.pi / 10, 2.2 * math.pi / 10):
            with pytest.raises(ValueError, match="validity window"):
                analytic_blp_dephasing(spec(math.pi / 4), tau_c)


class TestTransitionAngles:
    def test_closed_form_value_at_full_revival(self):
        tau_c = 2 * math.pi / 10
        theta1, theta2 = transition_thetas(DW, SIGMA, tau_c)
        u = math.exp((SIGMA * tau_c) ** 2)
        v = math.exp((math.pi * SIGMA / DW) ** 2)
        expected = math.atan(
            math.sqrt((math.sqrt(u) - math.sqrt(v)) / (math.sqrt(u) + math.sqrt(v)))
        )
        assert theta1 == pytest.approx(expected, abs=1e-12)
        assert theta1 == pytest.approx(0.26540914197793963, abs=1e-12)
        assert theta2 == pytest.approx(math.pi / 2 - theta1, abs=1e-9)

    def test_measure_vanishes_at_both_angles(self):
        for tau_c in (1.2 * math.pi / 10, 1.5 * math.pi / 10, 2 * math.pi / 10):
            theta1, theta2 = transition_thetas(DW, SIGMA, tau_c)
            for theta in (theta1, theta2):
                assert abs(unclamped_measure(theta, tau_c)) <= 1e-9
                assert analytic_blp_dephasing(spec(theta), tau_c) <= 1e-9

    def test_agrees_with_bisection(self):
        for tau_c in (1.2 * math.pi / 10, 1.5 * math.pi / 10, 2 * math.pi / 10):
            theta1, theta2 = transition_thetas(DW, SIGMA, tau_c)
            root = bisect_root(lambda th: unclamped_measure(th, tau_c), 1e-9, math.pi / 4)
            assert theta1 == pytest.approx(root, abs=1e-9)
            root2 = bisect_root(lambda th: unclamped_measure(th, tau_c), math.pi / 4, math.pi / 2 - 1e-9)
            assert theta2 == pytest.approx(root2, abs=1e-9)

    def test_brackets_balanced_weight(self):
        theta1, theta2 = transition_thetas(DW, SIGMA, 1.5 * math.pi / 10)
        assert theta1 < math.pi / 4 < theta2

    def test_rejects_window_edge_and_small_widths(self):
        with pytest.raises(ValueError, match="validity window"):
            transition_thetas(DW, SIGMA, math.pi / 10)
        with pytest.raises(ValueError, match="validity window"):
            transition_thetas(DW, SIGMA, 2.5 * math.pi / 10)
        with pytest.raises(ValueError):
            transition_thetas(-1.0, SIGMA, 0.4)

    def test_angles_are_complementary_for_all_control_times(self):
        # The quadratic for tan^2(theta) has unit root product, so the two
        # angles always sum to pi/2 (the measure is symmetric in the weights);
        # this is also why the no-real-root guard cannot fire inside the
        # validity window.
        for tau_c in np.linspace(1.05 * math.pi / 10, 2 * math.pi / 10, 12):
            theta1, theta2 = transition_thetas(DW, SIGMA, float(tau_c))
            assert theta1 + theta2 == pytest.approx(math.pi / 2, abs=1e-9)
            assert math.tan(theta1) * math.tan(theta2) == pytest.approx(1.0, rel=1e-9)


class TestMonotonicityWindows:
    """Sign-scan of the |kappa| increments on (pi/dw, 2 pi/dw).

    The revival band in theta is wider than the closed-form transition
    window: the scan finds increasing segments for theta above roughly 0.209
    (and mirrored below pi/2 - 0.209), while theta1(2 pi/dw) = 0.2654.
    """

    TAUS = np.linspace(math.pi / 10, 2 * math.pi / 10, 4001)

    def has_increase(self, theta):
        vals = kappa_abs(spec(theta), self.TAUS)
        return bool(np.any(np.diff(vals) > 1e-15))

    def test_increase_inside_transition_window(self):
        theta1, theta2 = transition_thetas(DW, SIGMA, 2 * math.pi / 10)
        for theta in np.linspace(theta1 + 1e-3, theta2 - 1e-3, 9):
            assert self.has_increase(float(theta))

    def test_no_increase_well_outside_revival_band(self):
        for theta in (0.0, 0.05, 0.12, 0.20):
            assert not self.has_increase(theta)
            assert not self.has_increase(math.pi / 2 - theta)

    def test_increase_in_band_below_transition_angle(self):
        # Strictly between the scan threshold and theta1 the series still
        # rises on a subinterval even though the closed-form measure is zero.
        theta1, _ = transition_thetas(DW, SIGMA, 2 * math.pi / 10)
        for theta in (0.22, 0.25, theta1 - 1e-3):
            assert self.has_increase(theta)
