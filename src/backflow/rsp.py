"""Bell-diagonal resource states, Pauli correlation matrices and the
remote-state-preparation fidelity functional."""

from __future__ import annotations

import numpy as np

from .linalg import PAULIS

__all__ = ["bell_diagonal", "correlation_matrix", "rsp_fidelity"]

_PSD_SLACK = 4e-12

# sigma_j x sigma_j' for j, j' over (x, y, z), built once.  Every entry is 0,
# +-1 or +-i, so products with them are exact.
_PAULI_PRODUCTS = np.array([[np.kron(sj, sjp) for sjp in PAULIS] for sj in PAULIS])


def bell_diagonal(c) -> np.ndarray:
    """Two-qubit state (1/4)(I x I + sum_j c_j sigma_j x sigma_j).

    ``c`` is the triple (c1, c2, c3) of real correlations in the Pauli basis
    (sigma_x, sigma_y, sigma_z), checked by ``_bell_triple``.
    """
    rho = np.eye(4, dtype=complex)
    for j, coeff in enumerate(_bell_triple(c)):
        rho += coeff * _PAULI_PRODUCTS[j, j]
    return rho / 4.0


def _bell_triple(c) -> tuple[float, float, float]:
    """The triple ``c`` as floats, once it is a Bell-diagonal state's.

    The state is positive semidefinite exactly when 1 - c1 - c2 - c3,
    1 - c1 + c2 + c3, 1 + c1 - c2 + c3 and 1 + c1 + c2 - c3 are all
    non-negative; violating triples are rejected with the offending
    combination.
    """
    c1, c2, c3 = (float(x) for x in c)
    for x, name in ((c1, "c1"), (c2, "c2"), (c3, "c3")):
        if not -1.0 <= x <= 1.0:
            raise ValueError(f"c=({c1}, {c2}, {c3}) has {name}={x} outside [-1, 1]")
    # The four eigenvalues of the state are these combinations divided by 4.
    combos = {
        "1 - c1 - c2 - c3": 1.0 - c1 - c2 - c3,
        "1 - c1 + c2 + c3": 1.0 - c1 + c2 + c3,
        "1 + c1 - c2 + c3": 1.0 + c1 - c2 + c3,
        "1 + c1 + c2 - c3": 1.0 + c1 + c2 - c3,
    }
    for name, value in combos.items():
        if value < -_PSD_SLACK:
            raise ValueError(
                f"c=({c1}, {c2}, {c3}) gives a negative eigenvalue: {name} = {value:.6g} < 0"
            )
    return c1, c2, c3


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 real matrix of Pauli-Pauli expectations tr[rho sigma_j x sigma_j'],
    for each 4x4 state of a stack (..., 4, 4)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 state, got shape {rho.shape}")
    return np.trace(rho[..., None, None, :, :] @ _PAULI_PRODUCTS, axis1=-2, axis2=-1).real


def rsp_fidelity(c: np.ndarray) -> float | np.ndarray:
    """Mean of the two smallest eigenvalues of C^T C, for each 3x3 matrix of a
    stack (..., 3, 3); a float for a single matrix.

    The fidelity depends only on the spectrum of C^T C, so it is invariant
    under sign flips and row/column permutations of the correlation matrix.
    """
    c = np.asarray(c, dtype=float)
    if c.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 correlation matrix, got shape {c.shape}")
    eigs = np.linalg.eigvalsh(np.swapaxes(c, -1, -2) @ c)
    value = 0.5 * (eigs[..., 0] + eigs[..., 1])
    return float(value) if c.ndim == 2 else value
