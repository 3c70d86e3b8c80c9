"""Dense complex linear algebra for small quantum states.

Everything here operates on plain ``numpy`` arrays interpreted as operators on
Hilbert spaces of dimension 2, 4 or 16 (general dimensions work too).  Tensor
factors are ordered with the *first* factor as the slow (outer) Kronecker
index throughout the package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "hermitian_part",
    "hermitian_eigenvalues",
    "trace_norm",
    "trace_distance",
    "tensor_product",
    "partial_trace",
    "partial_transpose",
    "negativity",
    "von_neumann_entropy",
    "assert_density_matrix",
    "is_density_matrix",
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
    ``tol`` are rejected.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if deviation > tol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {deviation:.3e} > {tol:.1e}"
        )
    return np.linalg.eigvalsh(hermitian_part(m))


def trace_norm(m: np.ndarray, tol: float = HERMITICITY_TOL) -> float:
    """Trace norm of a Hermitian matrix: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(hermitian_eigenvalues(m, tol=tol))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 for two density matrices of equal dimension."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    # Canonical sign so swapping the arguments decomposes the identical
    # matrix, making symmetry exact rather than exact-up-to-roundoff.
    flat = diff.ravel()
    nonzero = np.flatnonzero(flat)
    if nonzero.size:
        lead = flat[nonzero[0]]
        if lead.real < 0.0 or (lead.real == 0.0 and lead.imag < 0.0):
            diff = -diff
    return 0.5 * trace_norm(diff)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with ``a`` as the slow (outer) index."""
    return np.kron(np.asarray(a), np.asarray(b))


def _as_factor_tuple(keep: int | Iterable[int]) -> tuple[int, ...]:
    if isinstance(keep, (int, np.integer)):
        return (int(keep),)
    return tuple(sorted({int(k) for k in keep}))


def partial_trace(m: np.ndarray, keep: int | Iterable[int], dims: Sequence[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions in slow-to-fast order; their product
    must equal the matrix dimension.  Kept factors preserve their relative
    order.
    """
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} inconsistent with dims {dims}")
    keep = _as_factor_tuple(keep)
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep={keep} out of range for {len(dims)} factors")
    t = m.reshape(dims + dims)
    for i in reversed(range(len(dims))):
        if i not in keep:
            half = t.ndim // 2
            t = np.trace(t, axis1=i, axis2=i + half)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(m: np.ndarray, subsystem: int, dims: Sequence[int]) -> np.ndarray:
    """Transpose the indices of one tensor factor only."""
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} inconsistent with dims {dims}")
    if not 0 <= subsystem < len(dims):
        raise ValueError(f"subsystem {subsystem} out of range for {len(dims)} factors")
    n = len(dims)
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, subsystem, subsystem + n)
    return t.reshape(total, total)


def negativity(m: np.ndarray, subsystem: int, dims: Sequence[int]) -> float:
    """Entanglement negativity (||m^Gamma||_1 - 1) / 2 across the given split."""
    return 0.5 * (trace_norm(partial_transpose(m, subsystem, dims)) - 1.0)


def von_neumann_entropy(m: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) over the spectrum, in bits; 0*log 0 := 0."""
    w = hermitian_eigenvalues(m)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def is_density_matrix(
    m: np.ndarray,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    eig_floor: float = -1e-10,
) -> bool:
    """True if ``m`` is Hermitian, unit-trace and PSD within the tolerances."""
    try:
        assert_density_matrix(m, herm_tol, trace_tol, eig_floor)
    except ValueError:
        return False
    return True


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
