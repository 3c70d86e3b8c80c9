import math

import numpy as np
import pytest

from backflow import (
    DephasingChannel,
    DephasingSpec,
    apply_dephasing,
    assert_density_matrix,
    hermitian_eigenvalues,
    kappa_abs,
    kappa_complex,
    maximally_entangled,
    optimal_pair,
    trace_norm,
    von_neumann_entropy,
)
from backflow.linalg import PAULI_X, PAULI_Z, hermitian_part

from oracles import (
    binary_entropy,
    jacobi_eigenvalues,
    negativity,
    partial_trace,
    partial_trace_brute,
    partial_transpose,
    partial_transpose_brute,
    random_density_matrix,
    trace_distance,
)

BELL = maximally_entangled(2)


def test_eigenvalues_diagonal_case():
    w = hermitian_eigenvalues(np.diag([4.0, 1.0, 3.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0, 4.0], atol=0)


def test_eigenvalues_pauli_x():
    assert np.allclose(hermitian_eigenvalues(PAULI_X), [-1.0, 1.0], atol=1e-15)


def test_eigenvalues_reject_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(m)


def test_eigenvalue_reconstruction_residual():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2
        w, v = np.linalg.eigh(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-9
        assert np.allclose(hermitian_eigenvalues(m), w, atol=1e-12)


def test_eigenvalues_of_dephasing_choi_against_jacobi():
    # Independent construction of the 16-dim evolved maximally correlated
    # state at kappa = 0.5, through the phase-flip Kraus mixture
    # (1+k)/2 rho + (1-k)/2 (Z x I) rho (Z x I) on the first qubit.
    kappa = 0.5
    psi = np.eye(4, dtype=complex).reshape(-1) / 2.0
    rho = np.outer(psi, psi.conj())
    z_full = np.kron(np.kron(PAULI_Z, np.eye(2)), np.eye(4))
    mixed = 0.5 * (1 + kappa) * rho + 0.5 * (1 - kappa) * (z_full @ rho @ z_full)
    w_jac = jacobi_eigenvalues(mixed)
    w_lib = hermitian_eigenvalues(mixed)
    assert np.max(np.abs(w_jac - w_lib)) <= 1e-10
    nonzero = np.sort(w_lib)[-2:]
    assert np.allclose(nonzero, [0.25, 0.75], atol=1e-10)
    assert np.max(np.abs(np.sort(w_lib)[:-2])) <= 1e-10


def test_jacobi_agrees_on_random_hermitian():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2
        assert np.max(np.abs(jacobi_eigenvalues(m) - hermitian_eigenvalues(m))) <= 1e-10


def test_trace_distance_of_evolved_optimal_pair():
    # At tau = 0.1 the pair distance must equal the dephasing magnitude
    # e^{-0.005} cos(0.5); checked through the full channel evolution.
    spec = DephasingSpec(math.pi / 4)
    pair = optimal_pair(0.6, 0.3, "zeta")
    kappa = kappa_complex(spec, 0.1)
    d = trace_distance(apply_dephasing(pair.rho1, kappa), apply_dephasing(pair.rho2, kappa))
    expected = math.exp(-0.005) * math.cos(0.5)
    assert d == pytest.approx(expected, abs=1e-12)
    assert d == pytest.approx(0.8732056006028054, abs=1e-12)
    assert d == pytest.approx(kappa_abs(spec, 0.1), abs=1e-12)


def test_subnormal_parts_of_a_normal_matrix_are_read_as_zero():
    # alpha = 1.093e-318 leaves subnormal entries in the dephased difference,
    # whose distance is |kappa| exactly; eigvalsh read 0.7894243245529555.
    kappa = -0.7294845319876527 + 0.3017357598070638j
    pair = optimal_pair(1.093e-318, 0.0, "zeta")
    diff = apply_dephasing(pair.rho1, kappa) - apply_dephasing(pair.rho2, kappa)
    zeroed = hermitian_part(diff)
    parts = zeroed.view(float)
    assert np.any((parts != 0.0) & (np.abs(parts) < np.finfo(float).tiny))
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    assert np.array_equal(hermitian_eigenvalues(diff), np.linalg.eigvalsh(zeroed))
    d = trace_distance(apply_dephasing(pair.rho1, kappa), apply_dephasing(pair.rho2, kappa))
    assert abs(d - abs(kappa)) <= 4 * np.finfo(float).eps * abs(kappa)
    # No subnormal part, or every part subnormal: decomposed as given.
    g = np.random.default_rng(8).standard_normal((4, 8)).view(complex)
    for m in ((g + g.conj().T) / 2, (g + g.conj().T) * 1e-310):
        assert np.array_equal(hermitian_eigenvalues(m), np.linalg.eigvalsh(hermitian_part(m)))


def test_partial_trace_bell_state():
    reduced = partial_trace(BELL, 0, (2, 2))
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    rng = np.random.default_rng(9)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    assert np.allclose(partial_trace(np.kron(rho_a, rho_b), 1, (2, 2)), rho_b, atol=1e-13)
    assert np.allclose(partial_trace(np.kron(rho_a, rho_b), 0, (2, 2)), rho_a, atol=1e-13)


def test_partial_trace_of_dephased_choi_is_maximally_mixed():
    family = DephasingChannel(DephasingSpec(math.pi / 4))
    from backflow import choi_state

    for t in (0.0, 0.1, math.pi / 10, 0.45):
        rho = choi_state(family, t, 4)
        assert np.allclose(partial_trace(rho, 0, (4, 4)), np.eye(4) / 4, atol=1e-12)
        assert abs(np.trace(rho) - 1.0) <= 1e-12


def test_partial_operations_match_brute_force():
    rng = np.random.default_rng(21)
    for dims in ((2, 2), (2, 4), (4, 4)):
        rho = random_density_matrix(rng, dims[0] * dims[1])
        for k in (0, 1):
            assert np.allclose(partial_trace(rho, k, dims), partial_trace_brute(rho, k, dims), atol=1e-13)
            assert np.array_equal(partial_transpose(rho, k, dims), partial_transpose_brute(rho, k, dims))


def test_partial_transpose_properties():
    rng = np.random.default_rng(2)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 2)
    prod = np.kron(rho_a, rho_b)
    w0 = hermitian_eigenvalues(prod)
    w1 = hermitian_eigenvalues(partial_transpose(prod, 1, (2, 2)))
    assert np.allclose(np.sort(w0), np.sort(w1), atol=1e-13)

    w_bell = hermitian_eigenvalues(partial_transpose(BELL, 1, (2, 2)))
    assert w_bell[0] == pytest.approx(-0.5, abs=1e-14)

    big = maximally_entangled(4)
    assert trace_norm(partial_transpose(big, 1, (4, 4))) == pytest.approx(4.0, abs=1e-12)
    assert negativity(big, 1, (4, 4)) == pytest.approx(1.5, abs=1e-12)


def test_negativity_trivial_cases():
    rng = np.random.default_rng(4)
    # Mixtures of product states are PPT, so their negativity vanishes.
    sep = np.zeros((4, 4), dtype=complex)
    for _ in range(6):
        sep += np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    sep /= np.trace(sep).real
    assert negativity(sep, 1, (2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert negativity(BELL, 1, (2, 2)) == pytest.approx(0.5, abs=1e-13)


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 16):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = (g + g.conj().T) / 2
        assert trace_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False).sum(), abs=1e-10)


def test_entropy_cases():
    pure = np.outer([1, 0, 0, 0], [1, 0, 0, 0]).astype(complex)
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    rho = np.diag([0.8, 0.2]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(binary_entropy(0.2), abs=1e-12)
    assert binary_entropy(0.2) == pytest.approx(0.7219280948873623, abs=1e-13)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="trace"):
        assert_density_matrix(np.eye(4))
    with pytest.raises(ValueError, match="positive semidefinite"):
        assert_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        assert_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
