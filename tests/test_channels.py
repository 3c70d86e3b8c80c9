import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backflow import (
    AmplitudeDampingChannel,
    DephasingChannel,
    DephasingSpec,
    LorentzSpec,
    SingularIntermediateMapError,
    apply_amplitude_damping,
    apply_dephasing,
    assert_density_matrix,
    choi_state,
    hermitian_eigenvalues,
    intermediate_choi,
    kappa_abs,
    maximally_entangled,
    trace_norm,
)

from oracles import negativity, partial_trace, random_density_matrix, trace_distance

DEPHASING = DephasingChannel(DephasingSpec(math.pi / 4))
LORENTZ = AmplitudeDampingChannel(LorentzSpec(1.0, 0.1))


def random_state(seed):
    return random_density_matrix(np.random.default_rng(seed), 4)


class TestDephasingMap:
    def test_identity_at_unit_kappa(self):
        rho = random_state(1)
        assert np.array_equal(apply_dephasing(rho, 1.0), rho)

    def test_full_dephasing_zeroes_cross_blocks(self):
        rho = random_state(2)
        out = apply_dephasing(rho, 0.0)
        assert np.all(out[:2, 2:] == 0.0)
        assert np.all(out[2:, :2] == 0.0)
        assert np.array_equal(out[:2, :2], rho[:2, :2])
        assert np.array_equal(out[2:, 2:], rho[2:, 2:])

    def test_block_action_entrywise(self):
        rho = random_state(3)
        kappa = 0.3 - 0.4j
        out = apply_dephasing(rho, kappa)
        for i in range(4):
            for j in range(4):
                factor = 1.0
                if i < 2 <= j:
                    factor = kappa
                elif j < 2 <= i:
                    factor = np.conj(kappa)
                assert abs(out[i, j] - rho[i, j] * factor) <= 1e-15

    def test_composition_in_parameter(self):
        rho = random_state(4)
        k1, k2 = 0.8 * np.exp(0.5j), 0.7 * np.exp(-1.1j)
        once = apply_dephasing(rho, k1 * k2)
        twice = apply_dephasing(apply_dephasing(rho, k1), k2)
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_rejects_expanding_factor(self):
        with pytest.raises(ValueError, match="kappa"):
            apply_dephasing(random_state(5), 1.0 + 1e-6)

    def test_output_is_valid_state_and_unital_on_second_qubit(self):
        rho = random_state(6)
        for kappa in (0.9, 0.5 * np.exp(2.2j), 0.0):
            out = assert_density_matrix(apply_dephasing(rho, kappa))
            before = partial_trace(rho, 1, (2, 2))
            after = partial_trace(out, 1, (2, 2))
            assert np.max(np.abs(before - after)) <= 1e-12


class TestAmplitudeDampingMap:
    def test_identity_at_unit_amplitude(self):
        rho = random_state(7)
        assert np.max(np.abs(apply_amplitude_damping(rho, 1.0) - rho)) == 0.0

    def test_full_damping_collapses_first_qubit(self):
        rho = random_state(8)
        out = apply_amplitude_damping(rho, 0.0)
        reduced_a = partial_trace(out, 0, (2, 2))
        assert np.allclose(reduced_a, np.diag([1.0, 0.0]), atol=1e-12)
        before_b = partial_trace(rho, 1, (2, 2))
        after_b = partial_trace(out, 1, (2, 2))
        assert np.max(np.abs(before_b - after_b)) <= 1e-12

    def test_matches_explicit_kraus_pair(self):
        rho = random_state(9)
        for x in (0.85, 0.3, -0.6):
            k0 = np.kron(np.diag([1.0, x]), np.eye(2)).astype(complex)
            k1 = np.zeros((2, 2), dtype=complex)
            k1[0, 1] = math.sqrt(1.0 - x * x)
            k1 = np.kron(k1, np.eye(2))
            expected = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
            assert np.max(np.abs(apply_amplitude_damping(rho, x) - expected)) <= 1e-14

    def test_trace_preserved_and_valid(self):
        rho = random_state(10)
        for x in (0.99, 0.4, -0.2, 0.0):
            out = apply_amplitude_damping(rho, x)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert_density_matrix(out)
            # The noise-free qubit's reduced state never moves.
            assert np.max(np.abs(
                partial_trace(out, 1, (2, 2)) - partial_trace(rho, 1, (2, 2))
            )) <= 1e-12

    def test_rejects_expanding_amplitude(self):
        with pytest.raises(ValueError, match="chi"):
            apply_amplitude_damping(random_state(11), -1.0 - 1e-6)


def _random_stack(rng, shape, d):
    states = [random_density_matrix(rng, d) for _ in range(math.prod(shape))]
    return np.stack(states).reshape(shape + (d, d))


@st.composite
def _action_cases(draw, value):
    """Two (P, n, d, d) stacks of random states and n decoherence values."""
    p, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    d = draw(st.sampled_from([4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return _random_stack(rng, (p, n), d), _random_stack(rng, (p, n), d), values


_KAPPAS = st.builds(
    lambda r, phase: r * complex(math.cos(phase), math.sin(phase)),
    st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi),
)


def _dephasing_entrywise(rho, kappa):
    d = rho.shape[0]
    out = rho.copy()
    for i in range(d):
        for j in range(d):
            if i < d // 2 <= j:
                out[i, j] = rho[i, j] * kappa
            elif j < d // 2 <= i:
                out[i, j] = rho[i, j] * np.conj(kappa)
    return out


def _damping_kraus(rho, x):
    eye = np.eye(rho.shape[0] // 2)
    k0 = np.kron(np.diag([1.0, x]), eye).astype(complex)
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = math.sqrt(1.0 - x * x)
    k1 = np.kron(k1, eye)
    return k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T


class TestFamilyActionProperties:
    """The batched action broadcasts one decoherence value per grid column
    over a (P, n, d, d) stack, agrees matrix by matrix with a definition
    built here, and never increases the trace distance."""

    @staticmethod
    def check(family, reference, case):
        rho1, rho2, values = case
        out1, out2 = family.act(rho1, values), family.act(rho2, values)
        assert out1.shape == rho1.shape
        for p in range(rho1.shape[0]):
            for k, f in enumerate(values):
                expected = reference(rho1[p, k], f)
                assert np.max(np.abs(out1[p, k] - expected)) <= 1e-14
                before = trace_distance(rho1[p, k], rho2[p, k])
                assert trace_distance(out1[p, k], out2[p, k]) <= before + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_action_cases(_KAPPAS))
    def test_dephasing(self, case):
        self.check(DEPHASING, _dephasing_entrywise, case)

    @settings(max_examples=40, deadline=None)
    @given(_action_cases(st.floats(-1.0, 1.0)))
    def test_amplitude_damping(self, case):
        self.check(LORENTZ, _damping_kraus, case)


class TestChoiState:
    def test_initial_time_is_maximally_entangled(self):
        for family, d in ((DEPHASING, 2), (DEPHASING, 4), (LORENTZ, 2), (LORENTZ, 4)):
            assert np.max(np.abs(choi_state(family, 0.0, d) - maximally_entangled(d))) <= 1e-12

    def test_qubit_choi_spectrum(self):
        # Explicit 4x4 diagonalization: nonzero eigenvalues (1 +- |kappa|)/2.
        for tau in (0.05, 0.2, 0.4):
            rho = choi_state(DEPHASING, tau, 2)
            k = kappa_abs(DEPHASING.spec, tau)
            w = np.sort(hermitian_eigenvalues(rho))
            assert np.allclose(w, [0.0, 0.0, (1 - k) / 2, (1 + k) / 2], atol=1e-12)

    def test_two_qubit_choi_negativity_tracks_kappa(self):
        for tau in (0.0, 0.1, 0.33, 0.55):
            rho = choi_state(DEPHASING, tau, 4)
            k = kappa_abs(DEPHASING.spec, tau)
            assert negativity(rho, 1, (4, 4)) == pytest.approx(k + 0.5, abs=1e-9)

    def test_ancilla_trace_gives_channel_on_maximally_mixed(self):
        for family in (DEPHASING, LORENTZ):
            for t in (0.2, 1.1):
                rho = choi_state(family, t, 2)
                reduced = partial_trace(rho, 0, (2, 2))
                direct = partial_trace(family.apply(np.eye(4) / 4, t), 0, (2, 2))
                assert np.max(np.abs(reduced - direct)) <= 1e-12
                assert_density_matrix(rho)

    def test_rejects_bad_dimensions_and_times(self):
        with pytest.raises(ValueError, match="system_dim"):
            choi_state(DEPHASING, 0.1, 3)
        with pytest.raises(ValueError, match="non-negative"):
            choi_state(DEPHASING, -0.1, 2)


class TestIntermediateChoi:
    def test_identity_step(self):
        # Frozen dynamics: ratio 1 gives the identity Choi, PSD with unit
        # trace norm.  theta = 0 keeps |kappa| strictly positive.
        family = DephasingChannel(DephasingSpec(0.0, 0.0, 10.0, 1e-9))
        c = intermediate_choi(family, 0.3, 1e-9)
        w = hermitian_eigenvalues(c)
        assert w.min() >= -1e-12
        assert trace_norm(c) == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_backflow_step_spectrum(self):
        # On a revival step |ratio| > 1: min eigenvalue (1 - |r|)/2 < 0 and
        # trace norm |r|.
        t, eps = 0.35, 1e-3
        c = intermediate_choi(DEPHASING, t, eps)
        r = abs(DEPHASING.decoherence(t + eps) / DEPHASING.decoherence(t))
        assert r > 1.0
        w = hermitian_eigenvalues(c)
        assert w.min() == pytest.approx((1.0 - r) / 2.0, abs=1e-12)
        assert trace_norm(c) == pytest.approx(r, abs=1e-12)
        assert abs(np.trace(c) - 1.0) <= 1e-12

    def test_damping_decay_step_is_divisible(self):
        c = intermediate_choi(LORENTZ, 1.0, 1e-3)
        assert hermitian_eigenvalues(c).min() >= -1e-12

    def test_damping_backflow_step_is_not_divisible(self):
        t_rev = 2 * math.pi / LORENTZ.spec.epsilon
        c = intermediate_choi(LORENTZ, 0.8 * t_rev, 1e-3)
        assert hermitian_eigenvalues(c).min() < -1e-8

    def test_singular_at_decoherence_zero(self):
        with pytest.raises(SingularIntermediateMapError):
            intermediate_choi(DEPHASING, math.pi / 10, 1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="eps"):
            intermediate_choi(DEPHASING, 0.2, 0.0)


class TestCompletePositivitySanity:
    def test_dephasing_decay_vs_backflow_intervals(self):
        for t in np.linspace(0.02, 0.9 * math.pi / 10, 7):
            w = hermitian_eigenvalues(intermediate_choi(DEPHASING, float(t), 1e-4))
            assert w.min() >= -1e-10
        for t in np.linspace(1.05 * math.pi / 10, 0.55, 7):
            w = hermitian_eigenvalues(intermediate_choi(DEPHASING, float(t), 1e-4))
            assert w.min() < 0.0

    def test_choi_states_remain_states(self):
        for family in (DEPHASING, LORENTZ):
            for t in np.linspace(0.0, 2.0, 9):
                assert_density_matrix(choi_state(family, float(t), 4))
