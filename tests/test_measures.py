import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from backflow import (
    AmplitudeDampingChannel,
    DephasingChannel,
    DephasingSpec,
    LorentzSpec,
    StatePair,
    Trajectory,
    blp_integral,
    blp_search,
    chi,
    choi_state,
    divisibility_measure,
    entanglement_measure,
    intermediate_choi,
    kappa_abs,
    maximally_entangled,
    mutual_info_measure,
    optimal_pair,
    sample_random_pair,
    trace_distance_trajectory,
    trace_norm,
)

from backflow import channels, decoherence, experiments, measures
from backflow.measures import (
    _CHUNK_POINTS,
    _STEP_EXCESS,
    _eigen_trace_distances,
    _ket_norms,
    _positive_increments,
    _random_differences,
    _trace_distances,
)
from backflow.experiments import resolve_config, run_figure
from oracles import binary_entropy, bisect_root, golden_max, mutual_information, negativity, optimal_candidate_stack
from oracles import pair_backflows, random_density_matrix, stack_backflows, trace_distance, turning_points_by_sign_change

DEPHASING = DephasingChannel(DephasingSpec(math.pi / 4))
LORENTZ = AmplitudeDampingChannel(LorentzSpec(1.0, 0.1))
REVIVAL = 2 * math.pi / 10


# Optimal-pair parameters on blp_search's default 11 x 16 candidate grid, and
# off it.  A subnormal alpha leaves subnormal entries in the difference matrix,
# which eigvalsh resolves to no better than ~1e-12 (alpha = 2.2e-313).
_ALPHAS = st.sampled_from(np.linspace(0.0, 1.0, 11).tolist()) | st.floats(0.0, 1.0, allow_subnormal=False)
_PHASES = st.sampled_from(np.linspace(0.0, 2 * math.pi, 16, endpoint=False).tolist()) | st.floats(0.0, 2 * math.pi)
# A family and sample times.  Past t = 30 (sigma = 1), |kappa| nears the
# subnormal range, where no relative precision is left.
_FAMILY_TIMES = st.one_of(
    st.tuples(st.just("dephasing"), st.floats(0.0, math.pi / 2), st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40)),
    st.tuples(st.just("lorentz"), st.floats(0.01, 1.99), st.lists(st.floats(0.0, 60.0), min_size=1, max_size=40)),
)


class TestOptimalPairs:
    @settings(max_examples=150, deadline=None)
    @given(_ALPHAS, _PHASES, st.sampled_from(["zeta", "eta"]), _FAMILY_TIMES)
    # |kappa| = 0 at theta = pi/4, t = pi/dw (node 1 of 3); f = 1 at t = 0; chi
    # changes sign twice in (0, 30).
    @example(0.3, 1.0, "eta", ("dephasing", math.pi / 4, np.linspace(0.0, 2 * REVIVAL, 3).tolist()))
    @example(1.0, 0.0, "zeta", ("dephasing", 0.3, [0.0]))
    @example(0.0, 0.0, "eta", ("lorentz", 0.1, [0.0]))
    @example(0.5, 2.3, "zeta", ("lorentz", 0.1, np.linspace(0.0, 30.0, 4001).tolist()))
    def test_evolved_trace_distance_is_the_decoherence_magnitude(self, alpha, phase, variant, case):
        # fig1/fig4's optimal column is the increment sum of |f| itself, which
        # rests on this.  Within 8 ulps of 1 relative: 8 eps |f|.
        kind, param, times = case
        family = _window_family(kind, param)
        f = np.asarray(family.decoherence(np.array(times)))
        distance = _trace_distances(family, optimal_pair(alpha, phase, variant).difference(), f)
        assert np.all(np.abs(distance - np.abs(f)) <= 8 * np.finfo(float).eps * np.abs(f))

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

    def test_direct_differences_are_bit_identical(self):
        for seed in (42, 7):
            stack = _random_differences(seed, 0, 1000)
            assert stack.shape == (1000, 4, 4)
            for k in range(1000):
                assert np.array_equal(stack[k], sample_random_pair(seed, k).difference())
            # A chunk that starts inside a block, or spans a block edge
            # (every 256 pairs), draws the same pairs.
            for lo, hi in ((337, 351), (250, 260), (511, 513), (999, 1000)):
                assert np.array_equal(_random_differences(seed, lo, hi), stack[lo:hi])
        assert _random_differences(42, 5, 5).shape == (0, 4, 4)

    def test_negative_seed_is_rejected_by_name(self):
        # Every random pair, sampled one at a time or as a stack, names the
        # bad seed.
        for sample in (lambda: sample_random_pair(-1, 0), lambda: _random_differences(-1, 0, 2)):
            with pytest.raises(ValueError, match=r"^seed=-1 must be at least 0$"):
                sample()

    def test_negative_index_is_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^index=-1 must be at least 0$"):
            sample_random_pair(1, -1)
        with pytest.raises(ValueError, match=r"^index=-2 must be at least 0$"):
            _random_differences(1, -2, 1)

    # Seeds of 1, 2, 3, 4 and 5 entropy words.
    @pytest.mark.parametrize("seed", [0, 2**32, 2**70, 2**100 + 7, 2**130])
    def test_stack_seeding_equals_seed_sequence_for_every_seed_width(self, seed):
        # Pair k is row k % 256 of block k // 256, a block b being numpy's
        # default_rng(SeedSequence(seed, spawn_key=(b,))), built here straight
        # from numpy: at the first block edge, from chunks that start inside a
        # block, and across 2**64.  Each row holds the real then imaginary
        # parts of the first ket, then of the second.
        blocks = {}
        for lo, hi in ((0, 12), (255, 258), (250, 260), (337, 343), (2**64 - 2, 2**64 + 3)):
            stack = _random_differences(seed, lo, hi)
            assert stack.shape == (hi - lo, 4, 4)
            for k, delta in zip(range(lo, hi), stack):
                b = k // 256
                if b not in blocks:
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
                    blocks[b] = rng.standard_normal((256, 16))
                z = blocks[b][k % 256].reshape(2, 2, 4)
                k1, k2 = (ket / np.linalg.norm(ket) for ket in z[:, 0] + 1j * z[:, 1])
                expected = np.outer(k1, k1.conj()) - np.outer(k2, k2.conj())
                assert np.max(np.abs(delta - expected)) <= 1e-15
                assert np.array_equal(delta, sample_random_pair(seed, k).difference())

    def test_indices_past_two_spawn_key_words_are_drawn(self):
        # Block b = k // 256 takes a spawn key of one word up to k = 2**40 and
        # of two up to 2**72, so the stack draws past 2**64 (the pair-count
        # cap of _random_search checks the caller's count, not the streams).
        stack = _random_differences(1, 2**64 - 1, 2**64 + 2)
        for k, delta in zip(range(2**64 - 1, 2**64 + 2), stack):
            assert np.array_equal(delta, sample_random_pair(1, k).difference())
        assert np.max(np.abs(stack[1] - stack[2])) > 1e-3

    def test_mean_distance_stable_across_seeds(self):
        means = []
        for seed in (1, 2):
            w = np.linalg.eigvalsh(_random_differences(seed, 0, 10_000))
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

    def test_mixed_pair_is_eigen_solved(self, monkeypatch):
        # A pure state against a full-rank one: their difference has three
        # negative eigenvalues, where the pure-pair trace norm does not hold.
        pure = sample_random_pair(11, 2)
        pair = StatePair(pure.rho1, random_density_matrix(np.random.default_rng(5), 4))
        for family, horizon in ((DEPHASING, 0.6), (LORENTZ, 10.0)):
            times = np.linspace(0.0, horizon, 25)
            f = np.asarray(family.magnitude(times))
            traj = trace_distance_trajectory(family, pair, times)
            for k in (0, 7, 19, 24):
                t = float(times[k])
                direct = trace_distance(family.apply(pair.rho1, t), family.apply(pair.rho2, t))
                assert traj.values[k] == pytest.approx(direct, abs=1e-12)
            assert np.array_equal(traj.values, _eigen_trace_distances(family, pair.difference(), f))
            assert np.max(np.abs(_trace_distances(family, pair.difference(), f) - traj.values)) > 1e-3
            # A pure pair takes the eigensolve-free path, the mixed one not.
            with monkeypatch.context() as patch:
                patch.setattr(measures, "_eigen_trace_distances", None)
                trace_distance_trajectory(family, pure, times)
            with monkeypatch.context() as patch:
                patch.setattr(measures, "_trace_distances", None)
                trace_distance_trajectory(family, pair, times)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), _FAMILY_TIMES)
    def test_mixed_pair_trajectory_equals_the_state_route(self, seed, one_pure, case):
        # The eigen path acts with |f|; the phase of kappa and the sign of chi
        # are a local unitary, so the state route at the complex kappa or
        # the signed chi gives the same trace distances.
        rng = np.random.default_rng(seed)
        rho1 = sample_random_pair(seed, 0).rho1 if one_pure else random_density_matrix(rng, 4)
        pair = StatePair(rho1, random_density_matrix(rng, 4))
        kind, param, times = case
        family = _window_family(kind, param)
        times = np.union1d(times, [0.0, 1.0])  # a grid of at least two times
        traj = trace_distance_trajectory(family, pair, times)
        for t, value in zip(times, traj.values):
            direct = trace_distance(family.apply(pair.rho1, float(t)), family.apply(pair.rho2, float(t)))
            assert abs(value - direct) <= 1e-12

    def test_grid_longer_than_one_chunk_matches_one_stack(self):
        times = np.linspace(0.0, 30.0, 2 * _CHUNK_POINTS + 7)
        pair = sample_random_pair(13, 0)
        traj = trace_distance_trajectory(LORENTZ, pair, times)
        one_stack = _trace_distances(LORENTZ, pair.difference(), np.asarray(LORENTZ.decoherence(times)))
        assert np.array_equal(traj.values, one_stack)

    def test_lorentz_optimal_matches_chi_magnitude(self):
        pair = optimal_pair(0.45, 2.0, "zeta")
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        times = np.linspace(0.0, t_rev, 80)
        traj = trace_distance_trajectory(LORENTZ, pair, times)
        assert np.max(np.abs(traj.values - np.abs(chi(LORENTZ.spec, times)))) <= 1e-9


# Decoherence magnitudes: 0 and 1 exactly, any value in [0, 1], and values
# below 1e-154, whose squares underflow.
_MAGNITUDES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.floats(1e-300, 1e-154)


def _gate(got, want):
    return np.all(np.abs(got - want) <= 1e-13 * want + 1e-14)


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 1e-14)


class TestTraceNormWithoutEigensolve:
    """``_trace_distances`` takes the trace norm of evolved pure-pair
    differences from a cubic in Tr X^2, Tr X^3 and det X; it must match the
    eigen-solved trace norm."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["dephasing", "lorentz"]),
        st.integers(0, 2**32 - 1),
        _ALPHAS,
        _PHASES,
        st.sampled_from(["zeta", "eta"]),
        st.lists(st.tuples(_MAGNITUDES, st.floats(0.0, 2 * math.pi)), min_size=1, max_size=30),
    )
    @example("dephasing", 0, 1.0, 0.0, "zeta", [(0.0, 0.0), (1.0, 0.0), (1e-200, 1.0)])
    @example("lorentz", 1, 0.0, 0.0, "eta", [(0.0, 0.0), (1.0, 4.0), (1e-160, 0.0)])
    def test_matches_eigvalsh(self, kind, seed, alpha, phase, variant, samples):
        # Random pairs and a rank-2 (optimal) pair, kappa with any phase and
        # chi with either sign.
        r, angle = np.array(samples).T
        if kind == "dephasing":
            family, f = DEPHASING, r * np.exp(1j * angle)
        else:
            family, f = LORENTZ, np.where(angle < math.pi, r, -r)
        optimal = optimal_pair(alpha, phase, variant).difference()
        deltas = np.concatenate([_random_differences(seed, 0, 6), optimal[None]])
        got = _trace_distances(family, deltas[:, None], f)
        assert _gate(got, _eigen_trace_distances(family, deltas[:, None], f))

    @staticmethod
    def samples_around_the_zeros_of_f():
        """Each family's decoherence samples at the zeros of chi (bisected)
        and of kappa at theta = pi/4 (t = pi/dw), and at offsets of
        1e-16 .. 1e-2 on both sides."""
        t = np.linspace(0.0, 30.0, 4001)
        x = np.asarray(LORENTZ.decoherence(t))
        flips = np.flatnonzero(np.sign(x[1:]) != np.sign(x[:-1]))
        zeros = {LORENTZ: [bisect_root(lambda s: float(LORENTZ.decoherence(s)), t[i], t[i + 1]) for i in flips],
                 DEPHASING: [math.pi / 10]}
        offsets = np.concatenate([[0.0], np.outer([-1.0, 1.0], 10.0 ** -np.arange(2.0, 17.0)).ravel()])
        for family, roots in zeros.items():
            assert roots
            f = np.asarray(family.decoherence(np.add.outer(roots, offsets).ravel()))
            assert np.min(np.abs(f)) <= 1e-15
            yield family, f

    def test_matches_eigvalsh_through_the_zeros_of_f(self):
        # Around a zero of f the largest root of the cubic is (nearly)
        # double; 200 random pairs and the optimal candidates.
        deltas = np.concatenate([_random_differences(9, 0, 200), optimal_candidate_stack(5, 4)])
        for family, f in self.samples_around_the_zeros_of_f():
            got = _trace_distances(family, deltas[:, None], f)
            assert _gate(got, _eigen_trace_distances(family, deltas[:, None], f))

    def test_closed_form_invariants_match_the_evolved_matrix(self):
        # p2, Tr X^3 and det X from each pair's blocks against the einsum
        # traces and the LU det of the evolved matrix, both scaled by the
        # same 2**-e: at f = 0, |f| = 1, |f| < 1e-154, random |f| and
        # around the zeros of f.
        deltas = np.concatenate([_random_differences(9, 0, 50), optimal_candidate_stack(5, 4)])[:, None]
        r = np.concatenate([[0.0, 1.0, 1e-155, 3e-200, 1e-300], np.random.default_rng(4).random(20)])
        phases = np.exp(1j * np.linspace(0.0, 2 * math.pi, r.size, endpoint=False))
        cases = [(DEPHASING, r * phases), (LORENTZ, r), (LORENTZ, -r), *self.samples_around_the_zeros_of_f()]
        for family, f in cases:
            p2, e3, e4, e = measures._PAIR_INVARIANTS[type(family)](deltas, f)
            evolved = family.act(deltas, f)
            x = np.ldexp(evolved.real, -e[..., None, None]) + 1j * np.ldexp(evolved.imag, -e[..., None, None])
            assert np.max(np.abs(x)) < 2.0
            assert _close(p2, np.einsum("...ij,...ji->...", x, x).real)
            assert _close(3.0 * e3, np.einsum("...ij,...jk,...ki->...", x, x, x).real)
            assert _close(e4, np.linalg.det(x).real)
            assert np.all(e4 >= 0.0)

    def test_random_pair_kernel_solves_no_spectrum(self, monkeypatch):
        def eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for figure, overrides in (("fig1", {"pairs": 30}), ("fig4", {"pairs": 30}), ("fig2", {"pairs": 3})):
            run_figure(figure, resolve_config(figure, None, {"grid": 401, **overrides}))

    def test_pair_searches_build_no_evolved_stack(self, monkeypatch):
        def act(*args):
            raise AssertionError("act called")

        for family in (DephasingChannel, AmplitudeDampingChannel):
            monkeypatch.setattr(family, "act", staticmethod(act))
        for figure, overrides in (("fig1", {"pairs": 30}), ("fig4", {"pairs": 30}), ("fig2", {"pairs": 3})):
            run_figure(figure, resolve_config(figure, None, {"grid": 401, **overrides}))
        for family, window in ((DEPHASING, (0.0, REVIVAL)), (LORENTZ, (0.0, 30.0))):
            assert blp_search(family, window, 20, 401, 3).value > 0.0


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
        report = blp_search(DEPHASING, self.WINDOW, 0, 801, 42)
        pair = optimal_pair(0.5, 0.0, "zeta")
        times = np.linspace(*self.WINDOW, 801)
        direct = blp_integral(trace_distance_trajectory(DEPHASING, pair, times))
        assert report.value == pytest.approx(direct, abs=1e-10)
        assert report.kind == "blp"
        assert report.grid_size == 801

    def test_random_pairs_never_beat_optimal(self):
        report = blp_search(DEPHASING, self.WINDOW, 200, 801, 42)
        optimal_only = blp_search(DEPHASING, self.WINDOW, 0, 801, 42)
        assert report.value == pytest.approx(optimal_only.value, abs=1e-12)

    def test_witness_reproduces_the_maximum(self):
        report = blp_search(DEPHASING, self.WINDOW, 50, 801, 7)
        times = np.linspace(*self.WINDOW, 801)
        direct = blp_integral(trace_distance_trajectory(DEPHASING, report.witness, times))
        assert direct == pytest.approx(report.value, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = blp_search(DEPHASING, self.WINDOW, 60, 401, 5)
        b = blp_search(DEPHASING, self.WINDOW, 60, 401, 5)
        assert a.value == b.value
        assert np.array_equal(a.witness.rho1, b.witness.rho1)

    def test_monotone_window_yields_zero(self):
        report = blp_search(DEPHASING, (0.0, 0.9 * math.pi / 10), 40, 801, 3)
        assert report.value == 0.0

    def test_a_window_where_f_never_rises_draws_no_pair(self, monkeypatch):
        # |f| of an overdamped window only falls, so no sample is kept and
        # every pair's sums are 0: the search returns what the chunk loop
        # reaches (0 and pair 0 per column) without drawing or evolving a
        # pair, and without forking at any worker count.
        family = AmplitudeDampingChannel(LorentzSpec(1.0, 3.0))
        f, reduce = measures._kept_samples([family.magnitude(np.linspace(0.0, 5.0, 401))], [100, 200, 400])
        assert f.size == 0
        looped = measures._share_best(family, f, reduce, 5, 256, 0, 600)
        assert np.array_equal(looped[0], np.zeros(3)) and np.array_equal(looped[1], np.zeros(3, dtype=int))

        def refuse(*args):
            raise AssertionError("a random pair was drawn")

        monkeypatch.setattr(measures, "_random_backflows", refuse)
        monkeypatch.setattr(measures, "_fan_out", refuse)
        for n_pairs, workers in ((1, 1), (600, 1), (10**7, 2), (2**64, 8)):
            best, first_k = measures._random_search(family, f, reduce, 5, n_pairs, workers)
            assert np.array_equal(best, looped[0]) and np.array_equal(first_k, looped[1])
        best, first_k = measures._random_search(family, f, reduce, 5, 0)
        assert np.array_equal(best, np.full(3, -np.inf)) and np.array_equal(first_k, np.zeros(3, dtype=int))
        report = blp_search(family, (0.0, 5.0), 10**7, 401, 5)
        assert report.value == 0.0
        assert np.array_equal(report.witness.rho1, optimal_pair(1.0, 0.0, "zeta").rho1)

    def test_zero_pairs_evolve_nothing(self, monkeypatch):
        # The optimal value is the increment sum of |f|: without random pairs
        # no pair is evolved, and the only spectra are the two that validate
        # the witness's states; fig2 at its defaults builds no witness.
        evolved, spectra = [], []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(measures, "_trace_distances", lambda *args: evolved.append(args))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: spectra.append(np.shape(a)) or eigvalsh(a, *args))
        for family in (DEPHASING, LORENTZ):
            spectra.clear()
            assert blp_search(family, (0.0, 30.0), 0, 4001, 1).value > 0.0
            assert spectra == [(4, 4), (4, 4)]
        spectra.clear()
        run_figure("fig2", resolve_config("fig2"))
        assert evolved == [] and spectra == []

    def test_degenerate_sizes_are_rejected(self):
        with pytest.raises(ValueError, match="^n_pairs=-1 must be at least 0$"):
            blp_search(DEPHASING, self.WINDOW, -1, 101, 1)
        with pytest.raises(ValueError, match="grid_size=1"):
            blp_search(DEPHASING, self.WINDOW, 0, 1, 1)
        for measure in (divisibility_measure, entanglement_measure, mutual_info_measure):
            with pytest.raises(ValueError, match="grid_size=1"):
                measure(DEPHASING, self.WINDOW, 1)

    @pytest.mark.parametrize("measure, time", [
        (lambda family, window, grid: blp_search(family, window, 3, grid, 1), "4e+307"),
        (entanglement_measure, "4e+307"),
        (mutual_info_measure, "4e+307"),
        (divisibility_measure, "4e+307"),
    ])
    def test_a_window_where_f_overflows_names_its_first_time(self, measure, time):
        # cos of an overflowed phase is NaN, which the kept-point mask would
        # drop, so the measure would read 0.
        with pytest.raises(ValueError, match=f"^{re.escape(f'|f| is not finite at t={time}')}$"):
            measure(DEPHASING, (0.0, 1e308), 11)


class TestCandidateStacks:
    WINDOW = (0.0, REVIVAL)

    def test_witness_is_the_candidate_at_the_winning_index(self, monkeypatch):
        # Without random pairs the optimal column wins; its witness is the
        # Bell-sector zeta pair.
        zeta = optimal_pair(1.0, 0.0, "zeta")
        for family in (DEPHASING, LORENTZ):
            report = blp_search(family, self.WINDOW, 0, 401, 9)
            assert np.array_equal(report.witness.rho1, zeta.rho1)
            assert np.array_equal(report.witness.rho2, zeta.rho2)
        # Random pair k wins only when strictly larger: a one-hot random
        # column above the optimal value names its own pair, one equal to it
        # or below it leaves the optimal witness.  Pairs come in chunks of
        # 256: pair 260 of 300 wins from the second chunk, and of two equal
        # maxima at pairs 10 and 260 the earlier wins.
        optimal = blp_search(DEPHASING, self.WINDOW, 0, 101, 9).value
        assert optimal > 0.0
        cases = [(3, {index: value}, winner) for index in range(3)
                 for value, winner in ((1.0, sample_random_pair(9, index)), (optimal, zeta), (0.5 * optimal, zeta))]
        cases += [(300, {260: 1.0}, sample_random_pair(9, 260)),
                  (300, {10: 1.0, 260: 1.0}, sample_random_pair(9, 10))]
        for n_random, hot, winner in cases:
            def one_hot(family, f, reduce, seed, lo, hi, hot=hot):
                values = np.zeros((hi - lo, 1))
                for index, value in hot.items():
                    if lo <= index < hi:
                        values[index - lo] = value
                return values

            monkeypatch.setattr(measures, "_random_backflows", one_hot)
            report = blp_search(DEPHASING, self.WINDOW, n_random, 101, 9)
            assert report.value == max(*hot.values(), optimal)
            assert np.array_equal(report.witness.rho1, winner.rho1)
            assert np.array_equal(report.witness.rho2, winner.rho2)

    def test_ket_norms_within_one_ulp_of_linalg_norm(self):
        rng = np.random.default_rng(5)
        kets = rng.standard_normal((5000, 4)) + 1j * rng.standard_normal((5000, 4))
        kets = np.concatenate([kets, np.eye(4), [[1.0, 1e-9, 1e9, -2.0j]]])
        norms = _ket_norms(kets)
        expected = np.array([np.linalg.norm(k) for k in kets])
        assert norms.shape == expected.shape
        assert np.all(np.abs(norms - expected) <= np.spacing(expected))
        assert float(_ket_norms(kets[7])) == float(norms[7])

    def test_only_the_witness_is_validated(self, monkeypatch):
        calls = []
        validate = measures.assert_density_matrix

        def counting(m, *args, **kwargs):
            calls.append(1)
            return validate(m, *args, **kwargs)

        monkeypatch.setattr(measures, "assert_density_matrix", counting)
        for figure in ("fig1", "fig4"):
            run_figure(figure, resolve_config(figure, None, {"pairs": 3, "grid": 201, "rows": 3}))
        assert len(calls) == 0
        blp_search(LORENTZ, (0.0, 30.0), 20, 401, 4)
        assert len(calls) == 2


class TestPairBackflows:
    def test_prefix_cuts_match_trajectory_integrals(self):
        # Cuts at the first steps, inside the window and at its last point.
        pairs = [optimal_pair(0.3, 1.0, "eta")] + [sample_random_pair(5, i) for i in range(6)]
        deltas = np.stack([p.difference() for p in pairs])
        cuts = np.array([1, 2, 5000, 23457, 40000])
        for family, horizon in ((DEPHASING, 2.5 * REVIVAL), (LORENTZ, 30.0)):
            times = np.linspace(0.0, horizon, 40001)
            prefix = pair_backflows(family, deltas, times, cuts)
            full = pair_backflows(family, deltas, times)
            assert prefix.shape == (len(pairs), len(cuts))
            for i, pair in enumerate(pairs):
                for j, cut in enumerate(cuts):
                    direct = blp_integral(trace_distance_trajectory(family, pair, times[: cut + 1]))
                    assert abs(prefix[i, j] - direct) <= 1e-12
                assert abs(full[i] - direct) <= 1e-12
            assert np.all(prefix[:, -1] > 0.0)


class TestWindowBackflows:
    DELTAS = np.concatenate([optimal_candidate_stack(2, 3), _random_differences(8, 0, 5)])

    def test_one_window_equals_pair_backflows(self):
        for family, t1, grid in ((DEPHASING, 2.5 * REVIVAL, 4001), (LORENTZ, 30.0, 2001),
                                 (DEPHASING, 0.5 * REVIVAL, 2)):
            times = np.linspace(0.0, t1, grid)
            values = stack_backflows(family, self.DELTAS, [family.magnitude(times)])
            assert values.shape == (len(self.DELTAS), 1)
            assert values[:, 0].tobytes() == pair_backflows(family, self.DELTAS, times).tobytes()

    def test_each_column_equals_its_own_window(self, monkeypatch):
        # Windows of different lengths and angles; then the search over the
        # stack's random pairs with one pair per chunk, so the segments are
        # cut from many chunks.
        windows = [np.linspace(0.0, t1, grid) for t1, grid in
                   ((REVIVAL, 401), (1.5 * REVIVAL, 2), (3.0 * REVIVAL, 1201), (0.2 * REVIVAL, 57))]
        families = [DephasingChannel(DephasingSpec(theta)) for theta in (0.0, 0.4, math.pi / 4, 1.5)]
        expected = np.stack([pair_backflows(family, self.DELTAS, times)
                             for family, times in zip(families, windows)], axis=-1)
        samples = [family.magnitude(times) for family, times in zip(families, windows)]
        assert stack_backflows(DEPHASING, self.DELTAS, samples).tobytes() == expected.tobytes()
        f, reduce = measures._kept_samples(samples)
        random = expected[-5:]
        monkeypatch.setattr(measures, "_CHUNK_POINTS", 1)
        best, first_k = measures._random_search(DEPHASING, f, reduce, 8, 5)
        assert best.tobytes() == random.max(axis=0).tobytes()
        assert first_k.tolist() == random.argmax(axis=0).tolist()

    @settings(max_examples=300, deadline=None)
    @given(
        # Window sizes: empty, one sample (no step), a few steps, and 8 steps
        # or more, where numpy's sum switches to pairwise summation (in
        # blocks of 128 past 128 steps).
        st.lists(st.just(0) | st.just(1) | st.integers(2, 8) | st.integers(9, 300), min_size=1, max_size=8),
        st.sampled_from([(), (1,), (3,), (0,)]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example([0, 0, 20, 0, 0, 1, 0], (2,), False, 1)  # empty first, consecutive and last windows
    @example([0, 0, 0], (), False, 2)
    def test_segmented_sum_equals_the_per_window_sums(self, sizes, leading, plateaus, seed):
        # One window sum per segment, as the separate _positive_increments
        # of each segment gives it, bit for bit; on 1-D values and on
        # (pairs, samples) stacks, the empty stack included.
        rng = np.random.default_rng(seed)
        values = rng.random(leading + (sum(sizes),))
        if plateaus:  # exact zero steps
            values = np.round(values, 1)
        segments = np.split(values, np.cumsum(sizes)[:-1], axis=-1)
        expected = np.stack([_positive_increments(seg) for seg in segments], axis=-1)
        got = measures._window_increments(values, np.array(sizes))
        assert got.shape == leading + (len(sizes),)
        assert got.tobytes() == expected.tobytes()


# Window cases for the turning-point properties: a family and a uniform grid.
# kappa vanishes at pi/dw and 3 pi/dw, grid nodes 1000 and 3000 (100 and 300
# of 401 points); chi changes sign twice in (0, 30).
_PI4_ZERO = ("dephasing", math.pi / 4, 2 * REVIVAL, 4001)
_LORENTZ_SIGN = ("lorentz", 0.1, 30.0, 4001)


def _window_family(kind, param):
    if kind == "dephasing":
        return DephasingChannel(DephasingSpec(param))
    return AmplitudeDampingChannel(LorentzSpec(1.0, param))


def _monotone_stretch_ends(values):
    """First and last index and every index where the step of ``values``
    changes its sign (rising, falling or flat), so that ``values`` is
    monotone between consecutive ends."""
    steps = [(b > a) - (b < a) for a, b in zip(values[:-1], values[1:])]
    turns = [i for i in range(1, len(steps)) if steps[i] != steps[i - 1]]
    return [0, *turns, len(values) - 1]


_WINDOWS = st.one_of(
    st.tuples(st.just("dephasing"), st.floats(0.0, math.pi / 2),
              st.floats(0.05, 4.0).map(lambda x: x * REVIVAL), st.integers(3, 2001)),
    st.tuples(st.just("lorentz"), st.floats(0.01, 1.9), st.floats(1.0, 40.0),
              st.integers(3, 2001)),
)


@st.composite
def _series_and_cuts(draw):
    # Small integers give plateaus and exact zero steps; floats give the rest.
    series = draw(st.lists(st.integers(0, 3).map(float) | st.floats(0.0, 1.0), min_size=1, max_size=40))
    if len(series) < 2:
        return series, None
    return series, draw(st.none() | st.lists(st.integers(1, len(series) - 1), max_size=6))


class TestTurningPointReduction:
    """The increment measures take spectra only where |f| turns; they must
    agree with the same reduction over every grid point, which rests on the
    trace distance depending on |f| alone and monotonically."""

    @settings(max_examples=60, deadline=None)
    @given(_WINDOWS, st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 1.0), max_size=6))
    @example(_PI4_ZERO, 3, [0.25, 0.5, 0.75, 1.0])
    @example(_PI4_ZERO, 4, [])
    @example(_LORENTZ_SIGN, 5, [0.1, 0.3, 0.6, 1.0])
    @example(_LORENTZ_SIGN, 6, [])
    @example(("lorentz", 1.5, 24.0, 890), 0, [])
    def test_pair_backflows_match_full_grid(self, window, seed, fractions):
        # The reference takes every grid point's trace distance, then
        # collapses each monotone stretch of |f| (split at the cuts too) to
        # its endpoints, as in test_choi_measures_match_full_grid: a plain sum
        # over every grid step also picks up rounding noise inside the
        # stretches (1.0e-14 at the @example window above).
        kind, param, t1, grid = window
        family = _window_family(kind, param)
        times = np.linspace(0.0, t1, grid)
        cuts = [1 + round(x * (grid - 2)) for x in fractions] or None
        deltas = np.concatenate(
            [_random_differences(seed, 0, 4), optimal_pair(0.3, 1.0, "eta").difference()[None]]
        )
        f = np.asarray(family.decoherence(times))
        distances = _trace_distances(family, deltas[:, None], f)
        ends = _monotone_stretch_ends(np.abs(f).tolist())

        def collapsed(cut):
            kept = sorted({e for e in ends if e < cut} | {cut})
            return np.sum([np.clip(distances[:, b] - distances[:, a], 0.0, None)
                           for a, b in zip(kept, kept[1:])], axis=0)

        full = np.stack([collapsed(c) for c in cuts], axis=-1) if cuts else collapsed(grid - 1)
        fast = pair_backflows(family, deltas, times, cuts)
        assert fast.shape == full.shape
        assert np.all(np.abs(fast - full) <= 1e-12 * np.abs(full) + 1e-14)

    @settings(max_examples=12, deadline=None)
    @given(_WINDOWS.map(lambda w: w[:3] + (min(w[3], 401),)))
    @example(_PI4_ZERO[:3] + (401,))
    @example(_LORENTZ_SIGN[:3] + (401,))
    @example(("lorentz", 1.5, 25.0, 385))
    @example(("lorentz", 1.5, 27.122635140538375, 275))
    def test_choi_measures_match_full_grid(self, window):
        # The reference scores every grid point, then collapses each monotone
        # stretch of |f| to its endpoints: the score is monotone there too, so
        # the stretch's positive increments add up to the positive part of its
        # end-to-end increment.  A plain sum over every grid step would also
        # pick up the scores' rounding noise inside the stretches (scores reach
        # 4, so 1 ulp is 8.9e-16), which can exceed the 1e-14 floor.  The
        # joint entropy reads the Choi state's two largest eigenvalues, its
        # rank: eigvalsh's noise on the 14 zero ones put the full-spectrum
        # reference 1.25e-14 off at the last @example window, where a 50-digit
        # evaluation puts the measure within 1.6e-16.
        kind, param, t1, grid = window
        family = _window_family(kind, param)
        times = np.linspace(0.0, t1, grid)
        if (times[-1] - times[0]) / (grid - 1) >= measures._HALF_PERIODS[type(family)](family.spec):
            # A grid whose step is not below half the period of |f| is refused.
            for measure in (entanglement_measure, mutual_info_measure):
                with pytest.raises(ValueError, match=f"^grid={grid} is too coarse"):
                    measure(family, (0.0, t1), grid)
            return
        states = [choi_state(family, float(t), 4) for t in times]
        ends = _monotone_stretch_ends(np.abs(family.decoherence(times)).tolist())
        for measure, score in (
            (entanglement_measure, lambda rho: negativity(rho, 1, (4, 4))),
            (mutual_info_measure, lambda rho: mutual_information(rho, rank=2)),
        ):
            scores = [score(rho) for rho in states]
            full = sum(max(scores[b] - scores[a], 0.0) for a, b in zip(ends, ends[1:]))
            fast = measure(family, (0.0, t1), grid).value
            assert abs(fast - full) <= 1e-12 * abs(full) + 1e-14

    @settings(max_examples=60, deadline=None)
    @given(_WINDOWS, st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 1.0), max_size=6))
    @example(_PI4_ZERO, 3, [0.25, 0.5, 0.75, 1.0])
    @example(_LORENTZ_SIGN, 5, [0.0, 0.1, 0.3, 0.6, 1.0])
    @example(("dephasing", 0.0, 2 * REVIVAL, 401), 7, [0.5])
    def test_kept_points_bound_a_rising_step(self, window, seed, fractions):
        # The kept set is the old turning-point set (first and last index,
        # changes of the step's sign, cuts) less the points that bound no
        # rising step; dropping them can only shed rounding noise.
        kind, param, t1, grid = window
        family = _window_family(kind, param)
        times = np.linspace(0.0, t1, grid)
        cuts = [1 + round(x * (grid - 2)) for x in fractions] or None
        absf = np.abs(np.asarray(family.decoherence(times)))
        kept = np.flatnonzero(measures._turning_mask(absf, cuts))
        old = sorted(set(_monotone_stretch_ends(absf.tolist())) | set(cuts or ()))
        rises = np.diff(absf) > 0.0
        assert set(kept.tolist()) <= set(old)
        assert all((i > 0 and rises[i - 1]) or (i < grid - 1 and rises[i]) for i in kept)
        assert all(i in kept for i in old if (i > 0 and rises[i - 1]) or (i < grid - 1 and rises[i]))

        deltas = np.concatenate(
            [_random_differences(seed, 0, 4), optimal_pair(0.3, 1.0, "eta").difference()[None]]
        )
        distances = _trace_distances(family, deltas[:, None], np.asarray(family.decoherence(times))[old])
        positions = None if cuts is None else np.searchsorted(old, cuts)
        from_old = _positive_increments(distances, positions)
        fast = pair_backflows(family, deltas, times, cuts)
        assert fast.shape == from_old.shape
        assert np.all(fast <= from_old + 1e-14)
        assert np.all(np.abs(fast - from_old) <= 1e-12 * np.abs(from_old) + 1e-14)

    @settings(max_examples=200, deadline=None)
    @given(_series_and_cuts())
    @example(([3.0, 2.0, 2.0, 1.0, 0.0], [1, 2, 4]))  # never rises
    @example(([0.5, 0.5, 0.5], None))  # exact zero steps only
    @example(([0.2, 0.5], [1]))
    @example(([0.5, 0.2], [1]))
    @example(([0.3, 0.3], None))
    @example(([0.7], None))
    @example(([1.0, 2.0, 2.0, 3.0, 1.0, 1.0, 4.0, 4.0], [1, 2, 2, 5, 7]))
    def test_turning_points_match_the_sign_change_definition(self, series_and_cuts):
        series, cuts = series_and_cuts
        absf = np.array(series, dtype=float)
        kept = np.flatnonzero(measures._turning_mask(absf, cuts))
        assert kept.dtype.kind == "i"
        assert kept.tolist() == turning_points_by_sign_change(absf, cuts).tolist()

    @settings(max_examples=200, deadline=None)
    @given(_series_and_cuts(), st.lists(st.booleans(), max_size=40))
    @example(([3.0, 2.0, 2.0, 1.0, 0.0], None), [])  # never rises: no column
    @example(([0.2, 0.5, 0.5, 0.1, 0.4], None), [])  # two rises, one column apart
    @example(([0.2, 0.5, 0.1, 0.4], None), [True] * 4)
    @example(([0.7], None), [True])
    def test_columns_keep_what_the_full_series_keeps(self, series_and_cuts, extra):
        # fig2 passes |kappa| only at the columns that bound a rising step,
        # and maybe at more: the kept samples and sums are the full series'.
        absf = np.array(series_and_cuts[0], dtype=float)
        rising = np.flatnonzero(np.diff(absf) > 0.0)
        extra = np.flatnonzero(extra[: absf.size])
        columns = np.union1d(np.union1d(rising, rising + 1), extra).astype(int)
        full = measures._turning_mask(absf)
        assert not full[np.setdiff1d(np.arange(absf.size), columns)].any()
        assert measures._turning_mask(absf[columns]).tolist() == full[columns].tolist()
        f, reduce = measures._kept_samples([absf[columns]])
        want_f, want_reduce = measures._kept_samples([absf])
        assert f.tobytes() == want_f.tobytes()
        assert reduce(f).tobytes() == want_reduce(want_f).tobytes()

    def test_a_stack_without_columns_sums_to_zero(self):
        # A fig2 control time where no factor of |kappa| rises forms a
        # (thetas, 0) block; its rows keep nothing and read 0.
        absf = np.array([0.1, 0.4, 0.2, 0.9])
        f, reduce = measures._kept_samples([np.zeros((3, 0)), absf])
        assert f.tolist() == [0.1, 0.4, 0.2, 0.9]
        assert reduce(f).tolist() == [0.0, 0.0, 0.0, (0.4 - 0.1) + (0.9 - 0.2)]

    def test_never_rising_window_evolves_nothing(self, monkeypatch):
        # At theta = 0, |kappa| is a falling Gaussian.
        family = DephasingChannel(DephasingSpec(0.0))
        times = np.linspace(0.0, 2 * REVIVAL, 801)
        deltas = np.concatenate([optimal_candidate_stack(2, 3), _random_differences(3, 0, 4)])
        assert not measures._turning_mask(family.magnitude(times), [1, 400, 800]).any()
        calls = []
        monkeypatch.setattr(measures, "_trace_distances", lambda *args: calls.append(args))
        n = len(deltas)
        assert pair_backflows(family, deltas, times).tolist() == [0.0] * n
        assert pair_backflows(family, deltas, times, [1, 400, 800]).tolist() == [[0.0] * 3] * n
        windows = [family.magnitude(times), family.magnitude(times[:5])]
        assert stack_backflows(family, deltas, windows).tolist() == [[0.0, 0.0]] * n
        assert blp_search(family, (0.0, 2 * REVIVAL), 4, 801, 3).value == 0.0
        assert calls == []

    def test_a_cut_at_position_zero_gives_zero(self):
        values = np.array([[0.5, 0.2, 0.9], [0.1, 0.4, 0.3]])
        assert _positive_increments(values, [0]).tolist() == [[0.0], [0.0]]
        assert _positive_increments(values, [0, 2]).tolist() == [[0.0, 0.7], [0.0, 0.30000000000000004]]
        assert _positive_increments(np.zeros((2, 0)), [0, 0]).tolist() == [[0.0, 0.0]] * 2
        assert _positive_increments(np.zeros(0)) == 0.0

    def test_fig4_default_rows_before_the_first_rise_are_zero(self):
        cfg = resolve_config("fig4", None, {"pairs": 20})
        rows = np.array(run_figure("fig4", cfg)[1])
        assert rows[:5, 1:].tolist() == [[0.0, 0.0]] * 5
        assert np.all(rows[5:, 1] > 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 2 * math.pi))
    def test_trace_distance_depends_on_the_magnitude_only(self, seed, a, b, phase):
        delta = _random_differences(seed, 0, 1)[0]
        lo, hi = sorted((a, b))
        for family, turned in (
            (DEPHASING, lambda x: x * complex(math.cos(phase), math.sin(phase))),
            (LORENTZ, lambda x: -x),
        ):
            d_lo, d_hi, d_turned = _trace_distances(family, delta, np.array([lo, hi, turned(hi)]))
            assert abs(d_turned - d_hi) <= 1e-14
            assert d_lo <= d_hi + 1e-14


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

    def test_closed_form_step_excess_matches_intermediate_choi(self):
        # Each step's excess against trace_norm(intermediate_choi(...)) - 1,
        # and the measure against the loop over those steps: each 4x4
        # spectrum carries a few ulp, so the loop sum may drift by ~1e-15 per
        # step.
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        for family, window in (
            (DephasingChannel(DephasingSpec(math.pi / 8)), (0.0, REVIVAL)),
            (LORENTZ, (0.0, 1.2 * t_rev)),
        ):
            times = np.linspace(*window, 801)
            eps = float(times[1] - times[0])
            loop = 0.0
            for t in times[:-1]:
                direct = trace_norm(intermediate_choi(family, float(t), eps)) - 1.0
                before, after = abs(family.decoherence(t)), abs(family.decoherence(t + eps))
                closed = _STEP_EXCESS[type(family)](max(after - before, 0.0) / before)
                assert abs(closed - direct) <= 1e-13 * max(1.0, direct)
                loop += max(direct, 0.0)
            value = divisibility_measure(family, window, 801).value
            assert loop > 0.0
            assert abs(value - loop) <= 1e-12 * loop + 800 * 1e-15

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


# Each 16x16 score of the evolved maximally entangled state less its
# ``_SCORES`` entry: the constant term that the table drops.
_DROPPED_CONSTANTS = {
    (DephasingChannel, "entanglement"): 0.5,
    (AmplitudeDampingChannel, "entanglement"): 0.5,
    (DephasingChannel, "mutual-info"): 4.0,
    (AmplitudeDampingChannel, "mutual-info"): 3.0,
}


def _assert_scores_are_the_choi_scores_less_a_constant(family, f):
    # choi_state(family, t, 4) is this state at f = family.decoherence(t).
    states = family.act(maximally_entangled(4), f)
    for kind, score in (("entanglement", lambda rho: negativity(rho, 1, (4, 4))),
                        ("mutual-info", mutual_information)):
        table = measures._SCORES[type(family), kind](np.abs(f))
        choi = np.array([score(rho) for rho in states])
        assert np.all(np.abs(choi - table - _DROPPED_CONSTANTS[type(family), kind]) <= 1e-13)


class TestChoiBasedMeasures:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["dephasing", "lorentz"]),
           st.lists(st.tuples(_MAGNITUDES, st.floats(0.0, 2 * math.pi)), min_size=1, max_size=10))
    @example("dephasing", [(0.0, 0.0), (1.0, 1.0), (1e-300, 2.0), (1e-160, 3.0)])
    @example("lorentz", [(0.0, 0.0), (1.0, 4.0), (1e-300, 4.0), (1e-160, 1.0)])
    def test_scores_are_the_choi_scores_less_a_constant(self, kind, samples):
        # kappa with any phase and chi with either sign.
        r, angle = np.array(samples).T
        if kind == "dephasing":
            family, f = DEPHASING, r * np.exp(1j * angle)
        else:
            family, f = LORENTZ, np.where(angle < math.pi, r, -r)
        _assert_scores_are_the_choi_scores_less_a_constant(family, f)

    def test_scores_match_the_choi_scores_through_the_zeros_of_f(self):
        for family, f in TestTraceNormWithoutEigensolve.samples_around_the_zeros_of_f():
            _assert_scores_are_the_choi_scores_less_a_constant(family, f)

    def test_measures_build_no_choi_state(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Choi state or spectrum was built")

        for module in (channels, measures):
            monkeypatch.setattr(module, "choi_state", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for family in (DephasingChannel, AmplitudeDampingChannel):
            monkeypatch.setattr(family, "act", staticmethod(refuse))
        for family, window in ((DephasingChannel(DephasingSpec(math.pi / 8)), (0.0, REVIVAL)),
                               (LORENTZ, (0.0, 30.0))):
            assert entanglement_measure(family, window, 4001).value > 0.0
            assert mutual_info_measure(family, window, 4001).value > 0.0

    def test_magnitude_readers_form_no_complex_kappa(self, monkeypatch):
        # fig2, fig3a, fig3b, blp_search, the closed-form measures,
        # divisibility and trace_distance_trajectory read |kappa| alone, from
        # kappa_abs: no complex kappa, one angle or a stack of them.
        pure, mixed = sample_random_pair(11, 2), StatePair(
            sample_random_pair(11, 2).rho1, random_density_matrix(np.random.default_rng(5), 4))

        def refuse(*args, **kwargs):
            raise AssertionError("a complex kappa was formed")

        for module in (decoherence, channels, experiments):
            monkeypatch.setattr(module, "kappa_complex", refuse)
        rows = np.array(run_figure("fig2", resolve_config("fig2", None, {"grid": 401, "pairs": 3}))[1])
        assert np.all(rows[:, 3] >= 0.0) and np.any(rows[:, 3] > 0.0)
        for figure in ("fig3a", "fig3b"):
            assert len(run_figure(figure, resolve_config(figure))[1]) == 25
        family = DephasingChannel(DephasingSpec(math.pi / 8))
        assert blp_search(family, (0.0, REVIVAL), 5, 4001, 1).value > 0.0
        assert entanglement_measure(family, (0.0, REVIVAL), 4001).value > 0.0
        assert mutual_info_measure(family, (0.0, REVIVAL), 4001).value > 0.0
        assert divisibility_measure(family, (0.0, REVIVAL), 4001).value > 0.0
        for pair in (pure, mixed):
            assert np.max(trace_distance_trajectory(family, pair, np.linspace(0.0, REVIVAL, 101)).values) > 0.0

    @pytest.mark.parametrize("theta, t1, grid", [
        (math.pi / 8, REVIVAL, 4001),
        (math.pi / 4, REVIVAL, 4001),
        (math.pi / 5, 3 * REVIVAL, 1001),
        (1.2, 2.5 * REVIVAL, 333),
    ])
    def test_dephasing_entanglement_is_the_blp_optimal_value(self, theta, t1, grid):
        # The negativity less its 1/2 is |kappa|, the optimal pairs' trace
        # distance, so the two measures are one reduction of one series.
        family = DephasingChannel(DephasingSpec(theta))
        value = entanglement_measure(family, (0.0, t1), grid).value
        assert value > 0.0
        assert value == blp_search(family, (0.0, t1), 0, grid, 0).value

    def test_negativity_trajectory_tracks_kappa(self):
        times = np.linspace(0.0, REVIVAL, 40)
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
        assert mutual_information(choi_state(DEPHASING, 0.0, 4)) == pytest.approx(4.0, abs=1e-10)
        # At the coherence zero the joint state carries exactly one bit less.
        assert mutual_information(
            choi_state(DEPHASING, math.pi / 10, 4)
        ) == pytest.approx(3.0, abs=1e-9)
        for t in (0.05, 0.21, 0.5):
            k = kappa_abs(DEPHASING.spec, t)
            expected = 4.0 - binary_entropy((1.0 - k) / 2.0)
            assert mutual_information(choi_state(DEPHASING, t, 4)) == pytest.approx(
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
            neg = np.array(
                [negativity(choi_state(family, float(t), 4), 1, (4, 4)) for t in times]
            )
            info = np.array(
                [mutual_information(choi_state(family, float(t), 4)) for t in times]
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
            assert blp_search(family, window, 20, 401, 9).value == 0.0
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
