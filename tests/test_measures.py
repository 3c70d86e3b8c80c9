import math

import numpy as np
import pytest

from backflow import (
    AmplitudeDampingChannel,
    DephasingChannel,
    DephasingSpec,
    LorentzSpec,
    Trajectory,
    blp_integral,
    blp_search,
    chi,
    divisibility_measure,
    entanglement_measure,
    kappa_abs,
    mutual_info_measure,
    optimal_pair,
    sample_random_pair,
    trace_distance,
    trace_distance_trajectory,
)

from backflow.measures import _pair_backflows
from oracles import binary_entropy, golden_max

DEPHASING = DephasingChannel(DephasingSpec(math.pi / 4))
LORENTZ = AmplitudeDampingChannel(LorentzSpec(1.0, 0.1))
REVIVAL = 2 * math.pi / 10


class TestOptimalPairs:
    def test_bell_limit(self):
        pair = optimal_pair(1.0, 0.0, "zeta")
        phi_plus = np.zeros(4, dtype=complex)
        phi_plus[[0, 3]] = 1 / math.sqrt(2)
        phi_minus = np.zeros(4, dtype=complex)
        phi_minus[0], phi_minus[3] = 1 / math.sqrt(2), -1 / math.sqrt(2)
        assert np.max(np.abs(pair.rho1 - np.outer(phi_plus, phi_plus.conj()))) <= 1e-15
        assert np.max(np.abs(pair.rho2 - np.outer(phi_minus, phi_minus.conj()))) <= 1e-15
        assert trace_distance(pair.rho1, pair.rho2) == pytest.approx(1.0, abs=1e-12)

    def test_cross_sector_limit(self):
        pair = optimal_pair(0.0, 0.0, "zeta")
        expect = np.zeros(4, dtype=complex)
        expect[[1, 2]] = 1 / math.sqrt(2)
        assert np.max(np.abs(pair.rho1 - np.outer(expect, expect.conj()))) <= 1e-15

    def test_evolved_distance_equals_decoherence_magnitude(self):
        pair = optimal_pair(0.3, 1.1, "eta")
        taus = np.linspace(0.0, REVIVAL, 60)
        traj = trace_distance_trajectory(DEPHASING, pair, taus)
        assert np.max(np.abs(traj.values - kappa_abs(DEPHASING.spec, taus))) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            optimal_pair(1.2, 0.0)
        with pytest.raises(ValueError):
            optimal_pair(0.5, 7.0)
        with pytest.raises(ValueError):
            optimal_pair(0.5, 0.5, "xi")


class TestRandomPairs:
    def test_states_are_pure_and_deterministic(self):
        a = sample_random_pair(42, 0)
        b = sample_random_pair(42, 0)
        assert np.array_equal(a.rho1, b.rho1)
        assert np.array_equal(a.rho2, b.rho2)
        for rho in (a.rho1, a.rho2):
            assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-12

    def test_streams_differ_across_indices_and_seeds(self):
        a = sample_random_pair(42, 0)
        b = sample_random_pair(42, 1)
        c = sample_random_pair(43, 0)
        assert np.max(np.abs(a.rho1 - b.rho1)) > 1e-3
        assert np.max(np.abs(a.rho1 - c.rho1)) > 1e-3

    def test_mean_distance_stable_across_seeds(self):
        means = []
        for seed in (1, 2):
            deltas = np.stack(
                [sample_random_pair(seed, i).difference() for i in range(10_000)]
            )
            w = np.linalg.eigvalsh(deltas)
            means.append(float(0.5 * np.abs(w).sum(axis=1).mean()))
        assert abs(means[0] - means[1]) <= 0.01


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0, np.nan]))

    def test_identical_pair_gives_zero_series(self):
        rho = sample_random_pair(3, 5).rho1
        from backflow import StatePair

        pair = StatePair(rho, rho.copy())
        traj = trace_distance_trajectory(DEPHASING, pair, np.linspace(0, 0.6, 40))
        assert np.max(traj.values) <= 1e-14

    def test_vectorized_path_matches_pointwise_channel(self):
        for family in (DEPHASING, LORENTZ):
            pair = sample_random_pair(11, 2)
            horizon = 0.6 if family is DEPHASING else 10.0
            times = np.linspace(0.0, horizon, 25)
            traj = trace_distance_trajectory(family, pair, times)
            for k in (0, 7, 19, 24):
                t = float(times[k])
                direct = trace_distance(
                    family.apply(pair.rho1, t), family.apply(pair.rho2, t)
                )
                assert traj.values[k] == pytest.approx(direct, abs=1e-12)

    def test_lorentz_optimal_matches_chi_magnitude(self):
        pair = optimal_pair(0.45, 2.0, "zeta")
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        times = np.linspace(0.0, t_rev, 80)
        traj = trace_distance_trajectory(LORENTZ, pair, times)
        assert np.max(np.abs(traj.values - np.abs(chi(LORENTZ.spec, times)))) <= 1e-9


class TestBlpIntegral:
    def test_monotone_series_has_no_backflow(self):
        times = np.linspace(0.0, 1.0, 50)
        traj = Trajectory(times, np.exp(-times))
        assert blp_integral(traj) == 0.0

    def test_dephasing_window_value(self):
        # Grid backflow equals the rise from the on-grid zero at pi/10 to the
        # sampled revival peak; the peak location/value come from a
        # golden-section search on the closed-form magnitude.
        pair = optimal_pair(1.0, 0.0, "zeta")
        times = np.linspace(0.0, REVIVAL, 4001)
        traj = trace_distance_trajectory(DEPHASING, pair, times)
        value = blp_integral(traj)

        k = kappa_abs(DEPHASING.spec, times)
        oracle = float(np.clip(np.diff(k), 0.0, None).sum())
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(0.8271098549716266, abs=1e-9)

        tau_peak = golden_max(lambda t: kappa_abs(DEPHASING.spec, t), 0.45, REVIVAL)
        true_backflow = kappa_abs(DEPHASING.spec, tau_peak)  # minimum is exactly 0
        assert tau_peak == pytest.approx(0.6042645976, abs=1e-6)
        assert value == pytest.approx(true_backflow, abs=1e-5)

    def test_lorentz_window_value_converges_with_grid(self):
        # The kink of |chi| at its zero is generally off-grid, so a uniform
        # grid converges at first order: a few 1e-4 at 4001 points, below
        # 1e-6 only on fine grids.
        pair = optimal_pair(0.0, 1.0, "eta")
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        closed_form = math.exp(-math.pi * LORENTZ.spec.width / LORENTZ.spec.epsilon)

        coarse = blp_integral(
            trace_distance_trajectory(LORENTZ, pair, np.linspace(0.0, t_rev, 4001))
        )
        assert coarse <= closed_form
        assert abs(coarse - closed_form) <= 5e-4

        fine = np.abs(chi(LORENTZ.spec, np.linspace(0.0, t_rev, 2_000_001)))
        fine_value = float(np.clip(np.diff(fine), 0.0, None).sum())
        assert abs(fine_value - closed_form) <= 1e-6


class TestBlpSearch:
    WINDOW = (0.0, REVIVAL)

    def test_optimal_only_matches_trajectory_integral(self):
        report = blp_search(DEPHASING, self.WINDOW, 0, 801, 42, alpha_count=3, phase_count=4)
        pair = optimal_pair(0.5, 0.0, "zeta")
        times = np.linspace(*self.WINDOW, 801)
        direct = blp_integral(trace_distance_trajectory(DEPHASING, pair, times))
        assert report.value == pytest.approx(direct, abs=1e-10)
        assert report.kind == "blp"
        assert report.grid_size == 801

    def test_random_pairs_never_beat_optimal(self):
        report = blp_search(DEPHASING, self.WINDOW, 200, 801, 42, alpha_count=3, phase_count=4)
        optimal_only = blp_search(DEPHASING, self.WINDOW, 0, 801, 42, alpha_count=3, phase_count=4)
        assert report.value == pytest.approx(optimal_only.value, abs=1e-12)

    def test_witness_reproduces_the_maximum(self):
        report = blp_search(DEPHASING, self.WINDOW, 50, 801, 7, alpha_count=2, phase_count=2)
        times = np.linspace(*self.WINDOW, 801)
        direct = blp_integral(trace_distance_trajectory(DEPHASING, report.witness, times))
        assert direct == pytest.approx(report.value, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = blp_search(DEPHASING, self.WINDOW, 60, 401, 5, alpha_count=2, phase_count=2)
        b = blp_search(DEPHASING, self.WINDOW, 60, 401, 5, alpha_count=2, phase_count=2)
        assert a.value == b.value
        assert np.array_equal(a.witness.rho1, b.witness.rho1)

    def test_monotone_window_yields_zero(self):
        report = blp_search(DEPHASING, (0.0, 0.9 * math.pi / 10), 40, 801, 3,
                            alpha_count=2, phase_count=2)
        assert report.value == 0.0


class TestPairBackflows:
    def test_prefix_cuts_match_trajectory_integrals(self):
        # 40001 points put 6 pairs in a chunk, so the 7 pairs span two chunks.
        pairs = [optimal_pair(0.3, 1.0, "eta")] + [sample_random_pair(5, i) for i in range(6)]
        deltas = np.stack([p.difference() for p in pairs])
        cuts = np.array([1, 2, 5000, 23457, 40000])
        for family, horizon in ((DEPHASING, 2.5 * REVIVAL), (LORENTZ, 30.0)):
            times = np.linspace(0.0, horizon, 40001)
            prefix = _pair_backflows(family, deltas, times, cuts)
            full = _pair_backflows(family, deltas, times)
            assert prefix.shape == (len(pairs), len(cuts))
            for i, pair in enumerate(pairs):
                for j, cut in enumerate(cuts):
                    direct = blp_integral(trace_distance_trajectory(family, pair, times[: cut + 1]))
                    assert abs(prefix[i, j] - direct) <= 1e-12
                assert abs(full[i] - direct) <= 1e-12
            assert np.all(prefix[:, -1] > 0.0)


class TestDivisibility:
    def test_monotone_window_is_divisible(self):
        report = divisibility_measure(DEPHASING, (0.0, 0.9 * math.pi / 10), 801)
        assert report.value == 0.0
        assert report.singularity is None

    def test_finite_value_matches_log_increment_oracle(self):
        family = DephasingChannel(DephasingSpec(math.pi / 8))
        window = (math.pi / 10, REVIVAL)
        report = divisibility_measure(family, window, 4001)
        times = np.linspace(*window, 4001)
        oracle = float(
            np.clip(np.diff(np.log(kappa_abs(family.spec, times))), 0.0, None).sum()
        )
        assert math.isfinite(report.value)
        assert report.value == pytest.approx(oracle, abs=1e-4)
        assert oracle == pytest.approx(0.21527884396730465, abs=1e-9)

    def test_interior_zero_reports_divergence(self):
        report = divisibility_measure(DEPHASING, (0.0, REVIVAL), 4001)
        assert math.isinf(report.value)
        assert report.singularity == pytest.approx(math.pi / 10, abs=1e-9)

    def test_lorentz_backflow_window_is_finite_and_positive(self):
        # The zero of chi lies near 0.57 * t_rev; this window sits past it,
        # so |chi| rises throughout and the rate integral stays finite.
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        report = divisibility_measure(LORENTZ, (0.75 * t_rev, t_rev), 801)
        assert math.isfinite(report.value)
        assert report.value > 0.0


class TestChoiBasedMeasures:
    def test_negativity_trajectory_tracks_kappa(self):
        times = np.linspace(0.0, REVIVAL, 40)
        from backflow import choi_state, negativity

        for t in times[::7]:
            e = negativity(choi_state(DEPHASING, float(t), 4), 1, (4, 4))
            assert e == pytest.approx(kappa_abs(DEPHASING.spec, float(t)) + 0.5, abs=1e-9)

    def test_entanglement_measure_equals_pair_backflow(self):
        grid = 1001
        report = entanglement_measure(DEPHASING, (0.0, REVIVAL), grid)
        times = np.linspace(0.0, REVIVAL, grid)
        pair_value = blp_integral(
            trace_distance_trajectory(DEPHASING, optimal_pair(0.8, 0.4, "zeta"), times)
        )
        assert report.value == pytest.approx(pair_value, abs=1e-8)

    def test_monotone_window_scores_zero(self):
        assert entanglement_measure(DEPHASING, (0.0, 0.9 * math.pi / 10), 201).value == 0.0
        assert mutual_info_measure(DEPHASING, (0.0, 0.9 * math.pi / 10), 201).value == 0.0

    def test_mutual_information_closed_form(self):
        from backflow.measures import _mutual_information
        from backflow import choi_state

        assert _mutual_information(choi_state(DEPHASING, 0.0, 4)) == pytest.approx(4.0, abs=1e-10)
        # At the coherence zero the joint state carries exactly one bit less.
        assert _mutual_information(
            choi_state(DEPHASING, math.pi / 10, 4)
        ) == pytest.approx(3.0, abs=1e-9)
        for t in (0.05, 0.21, 0.5):
            k = kappa_abs(DEPHASING.spec, t)
            expected = 4.0 - binary_entropy((1.0 - k) / 2.0)
            assert _mutual_information(choi_state(DEPHASING, t, 4)) == pytest.approx(
                expected, abs=1e-9
            )

    def test_mutual_info_measure_value(self):
        report = mutual_info_measure(DEPHASING, (0.0, REVIVAL), 1001)
        times = np.linspace(0.0, REVIVAL, 1001)
        k = kappa_abs(DEPHASING.spec, times)
        oracle_series = 4.0 - np.array([binary_entropy((1.0 - kk) / 2.0) for kk in k])
        oracle = float(np.clip(np.diff(oracle_series), 0.0, None).sum())
        assert report.value == pytest.approx(oracle, abs=1e-8)
        # Fine-grid value for the same window, frozen from the closed form.
        report_fine = mutual_info_measure(DEPHASING, (0.0, REVIVAL), 4001)
        assert report_fine.value == pytest.approx(0.5755087219461146, abs=1e-6)


class TestMeasureCoherence:
    """All four series rise and fall together for the dephasing family."""

    def test_increment_signs_agree_across_measures(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            dw = rng.uniform(6.0, 14.0)
            sigma = rng.uniform(0.5, 1.5)
            family = DephasingChannel(DephasingSpec(theta, 0.0, dw, sigma))
            times = np.linspace(0.0, 2.2 * math.pi / dw, 120)

            k = kappa_abs(family.spec, times)
            pair_traj = trace_distance_trajectory(
                family, optimal_pair(0.6, 0.9, "zeta"), times
            ).values
            from backflow import choi_state, negativity

            neg = np.array(
                [negativity(choi_state(family, float(t), 4), 1, (4, 4)) for t in times]
            )
            from backflow.measures import _mutual_information

            info = np.array(
                [_mutual_information(choi_state(family, float(t), 4)) for t in times]
            )

            def signs(series, tol=1e-9):
                d = np.diff(series)
                out = np.zeros(d.shape, dtype=int)
                out[d > tol] = 1
                out[d < -tol] = -1
                return out

            s_k = signs(k)
            for series in (pair_traj, neg, info):
                s = signs(series)
                mask = (s != 0) & (s_k != 0)  # ignore near-flat steps
                assert np.all(s[mask] == s_k[mask])

    def test_all_measures_vanish_for_single_peak_weights(self):
        # With all weight on one peak the magnitude decays monotonically, so
        # every measure is exactly zero over the full window.
        for theta in (0.0, math.pi / 2):
            family = DephasingChannel(DephasingSpec(theta))
            window = (0.0, REVIVAL)
            assert blp_search(family, window, 20, 401, 9,
                              alpha_count=2, phase_count=2).value == 0.0
            assert divisibility_measure(family, window, 401).value == 0.0
            assert entanglement_measure(family, window, 401).value == 0.0
            assert mutual_info_measure(family, window, 401).value == 0.0

    def test_grid_refinement_stability_where_extrema_are_on_grid(self):
        # The dephasing zero at pi/10 lies on both grids, so the integral is
        # grid-stable; the Lorentzian kink is off-grid and converges at first
        # order instead.
        pair = optimal_pair(1.0, 0.0, "zeta")
        vals = []
        for grid in (4001, 8001):
            times = np.linspace(0.0, REVIVAL, grid)
            vals.append(blp_integral(trace_distance_trajectory(DEPHASING, pair, times)))
        assert abs(vals[0] - vals[1]) <= 1e-8

        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        lv = []
        for grid in (4001, 8001):
            times = np.linspace(0.0, t_rev, grid)
            lv.append(blp_integral(trace_distance_trajectory(LORENTZ, pair, times)))
        assert abs(lv[0] - lv[1]) <= 5e-4
