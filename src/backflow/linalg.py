"""Dense complex linear algebra for small quantum states.

Everything here operates on plain ``numpy`` arrays interpreted as operators on
Hilbert spaces of dimension 2, 4 or 16 (general dimensions work too).  Tensor
factors are ordered with the *first* factor as the slow (outer) Kronecker
index throughout the package.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "hermitian_part",
    "hermitian_eigenvalues",
    "trace_norm",
    "von_neumann_entropy",
    "assert_density_matrix",
]

# Tolerance for accepting a matrix as Hermitian before eigendecomposition.
HERMITICITY_TOL = 1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2."""
    m = np.asarray(m)
    return (m + m.conj().T) / 2.0


def hermitian_eigenvalues(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    The input is symmetrized as (M + M†)/2 before decomposition to absorb
    roundoff; inputs whose max entrywise deviation from Hermiticity exceeds
    ``tol`` are rejected.  When the largest real or imaginary part is
    normal, subnormal parts are read as 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {deviation:.3e} > {tol:.1e}"
        )
    h = hermitian_part(m)
    # Subnormal parts of a matrix whose largest part is normal lie far below
    # the eigensolver's backward error, yet LAPACK's scaling can misread them
    # (a 4x4 with one subnormal entry lost 8.8e-7 of its trace norm).
    parts = h.view(float)
    size = np.abs(parts)
    if size.size and size.max() >= np.finfo(float).tiny:
        parts[(size > 0.0) & (size < np.finfo(float).tiny)] = 0.0
    return np.linalg.eigvalsh(h)


def trace_norm(m: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(hermitian_eigenvalues(m, tol=tol))))


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) over the spectrum, in bits; 0*log 0 := 0."""
    w = hermitian_eigenvalues(m)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def assert_density_matrix(
    m: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    Raises ``ValueError`` naming the violated property.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = float(np.max(np.abs(m - m.conj().T)))
    if dev > herm_tol:
        raise ValueError(f"not Hermitian: max |M - M^dag| = {dev:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    w_min = float(np.min(np.linalg.eigvalsh(hermitian_part(m))))
    if w_min < eig_floor:
        raise ValueError(f"not positive semidefinite: min eigenvalue {w_min:.3e}")
    return m
