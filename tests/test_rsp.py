import itertools
import math

import numpy as np
import pytest

from backflow import (
    DephasingSpec,
    apply_amplitude_damping,
    apply_dephasing,
    bell_diagonal,
    correlation_matrix,
    hermitian_eigenvalues,
    kappa_complex,
    rsp_fidelity,
)
from backflow.linalg import PAULIS

from oracles import random_bell_diagonal_triple


class TestBellDiagonal:
    def test_zero_triple_is_maximally_mixed(self):
        assert np.allclose(bell_diagonal((0, 0, 0)), np.eye(4) / 4, atol=0)

    def test_bell_state_triple_is_rank_one(self):
        rho = bell_diagonal((1.0, -1.0, 1.0))
        w = hermitian_eigenvalues(rho)
        assert np.allclose(np.sort(w), [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_invalid_triple_is_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match="1 - c1 - c2 - c3"):
            bell_diagonal((1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="outside"):
            bell_diagonal((1.5, 0.0, 0.0))

    def test_random_valid_triples_are_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            c = random_bell_diagonal_triple(rng)
            rho = bell_diagonal(c)
            assert hermitian_eigenvalues(rho).min() >= -1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12


class TestCorrelationMatrix:
    def test_round_trip_on_bell_diagonal_family(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            c = random_bell_diagonal_triple(rng)
            mat = correlation_matrix(bell_diagonal(c))
            assert np.allclose(mat, np.diag(c), atol=1e-12)

    def test_entries_match_trace_definition(self):
        rng = np.random.default_rng(31)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        mat = correlation_matrix(rho)
        for j, jp in itertools.product(range(3), range(3)):
            direct = np.trace(rho @ np.kron(PAULIS[j], PAULIS[jp])).real
            assert mat[j, jp] == pytest.approx(direct, abs=1e-13)

    def test_pauli_table_is_exact(self):
        # The products come from a table built once; they must give the same
        # bits as a Kronecker product per entry, which the figure CSVs rely on.
        rng = np.random.default_rng(43)
        for _ in range(20):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            direct = np.array([[np.trace(rho @ np.kron(sj, sjp)).real for sjp in PAULIS]
                               for sj in PAULIS])
            assert np.array_equal(correlation_matrix(rho), direct)
            c1, c2, c3 = random_bell_diagonal_triple(rng)
            summed = np.eye(4, dtype=complex)
            for coeff, sigma in zip((c1, c2, c3), PAULIS):
                summed += coeff * np.kron(sigma, sigma)
            assert np.array_equal(bell_diagonal((c1, c2, c3)), summed / 4.0)

    def test_dephased_entry_table(self):
        # Dephasing rotates the xy block by the phase of kappa and leaves zz:
        # rows (c1 x, c2 y, 0), (-c1 y, c2 x, 0), (0, 0, c3).
        rng = np.random.default_rng(37)
        for _ in range(8):
            c1, c2, c3 = random_bell_diagonal_triple(rng)
            kappa = rng.uniform(0.1, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            x, y = kappa.real, kappa.imag
            mat = correlation_matrix(apply_dephasing(bell_diagonal((c1, c2, c3)), kappa))
            expected = np.array(
                [[c1 * x, c2 * y, 0.0], [-c1 * y, c2 * x, 0.0], [0.0, 0.0, c3]]
            )
            assert np.max(np.abs(mat - expected)) <= 1e-12

    def test_damped_entry_table(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            c1, c2, c3 = random_bell_diagonal_triple(rng)
            x = rng.uniform(-1.0, 1.0)
            mat = correlation_matrix(
                apply_amplitude_damping(bell_diagonal((c1, c2, c3)), x)
            )
            assert np.allclose(mat, np.diag([c1 * x, c2 * x, c3 * x * x]), atol=1e-12)


class TestFidelity:
    def test_perfect_resource(self):
        mat = correlation_matrix(bell_diagonal((1.0, -1.0, 1.0)))
        assert rsp_fidelity(mat) == pytest.approx(1.0, abs=1e-13)

    def test_half_dephased_bell_state(self):
        rho = apply_dephasing(bell_diagonal((1.0, -1.0, 1.0)), 0.5)
        assert rsp_fidelity(correlation_matrix(rho)) == pytest.approx(0.25, abs=1e-12)
        # A complex factor of the same magnitude gives the same fidelity.
        rho = apply_dephasing(bell_diagonal((1.0, -1.0, 1.0)), 0.5 * np.exp(0.7j))
        assert rsp_fidelity(correlation_matrix(rho)) == pytest.approx(0.25, abs=1e-12)

    def test_mixed_resource_scaling_law(self):
        c = (-0.5, 0.4, 0.8)
        for r in (1.0, 0.8, 0.5, 0.3):
            kappa = r * np.exp(0.3j)
            f = rsp_fidelity(correlation_matrix(apply_dephasing(bell_diagonal(c), kappa)))
            assert f == pytest.approx(0.205 * r * r, abs=1e-12)

    def test_spectrum_invariance(self):
        rng = np.random.default_rng(43)
        c = correlation_matrix(apply_dephasing(bell_diagonal((0.9, -0.7, 0.8)), 0.6 + 0.2j))
        base = rsp_fidelity(c)
        for _ in range(10):
            perm = rng.permutation(3)
            signs = np.diag(rng.choice([-1.0, 1.0], size=3))
            transformed = signs @ c[perm][:, rng.permutation(3)]
            assert rsp_fidelity(transformed) == pytest.approx(base, abs=1e-12)

    def test_eigenvalue_law_under_dephasing(self):
        rng = np.random.default_rng(47)
        for _ in range(12):
            c1, c2, c3 = random_bell_diagonal_triple(rng)
            kappa = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            mat = correlation_matrix(apply_dephasing(bell_diagonal((c1, c2, c3)), kappa))
            eigs = np.sort(np.linalg.eigvalsh(mat.T @ mat))
            k2 = abs(kappa) ** 2
            expected = np.sort([c1 * c1 * k2, c2 * c2 * k2, c3 * c3])
            assert np.max(np.abs(eigs - expected)) <= 1e-10

    def test_theta_independence_at_full_revival(self):
        tau_c = 2 * math.pi / 10
        values = []
        for theta in np.linspace(0.0, math.pi / 2, 20):
            kappa = kappa_complex(DephasingSpec(float(theta)), tau_c)
            rho = apply_dephasing(bell_diagonal((1.0, -1.0, 1.0)), kappa)
            values.append(rsp_fidelity(correlation_matrix(rho)))
        assert max(values) - min(values) <= 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            rsp_fidelity(np.eye(4))
        with pytest.raises(ValueError):
            correlation_matrix(np.eye(2) / 2)
