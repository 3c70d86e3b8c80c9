"""Time-parameterized noise channels on a two-qubit register.

Both channel families act on the first qubit (the noisy one); the second
qubit is noise-free.  Channel action is specified pointwise in the scalar
decoherence parameter (kappa or chi), with thin time wrappers on the family
objects, so parameter-level identities stay testable without time grids.
Each family's ``magnitude`` gives |f| alone, which is all that a trace
distance or an increment measure reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoherence import DephasingSpec, LorentzSpec, chi, kappa_abs, kappa_complex

__all__ = [
    "DephasingChannel",
    "AmplitudeDampingChannel",
    "ChannelFamily",
    "SingularIntermediateMapError",
    "apply_dephasing",
    "apply_amplitude_damping",
    "maximally_entangled",
    "choi_state",
    "intermediate_choi",
]

_CONTRACTION_SLACK = 1e-12

# Decoherence magnitudes below this are treated as exact zeros when building
# intermediate maps (the ratio of decoherence values is undefined there).
SINGULARITY_TOL = 1e-14


class SingularIntermediateMapError(ArithmeticError):
    """The decoherence function vanishes, so the intermediate map is undefined."""

    def __init__(self, t: float):
        super().__init__(f"decoherence function vanishes at t={t!r}; intermediate map undefined")
        self.t = float(t)


def _blocks(m: np.ndarray) -> np.ndarray:
    """View (..., d, d) as the first qubit's 2x2 grid of (d/2)x(d/2) blocks."""
    r = m.shape[-1] // 2
    return m.reshape(m.shape[:-2] + (2, r, 2, r))


def _operands(rho: np.ndarray, f, dtype):
    """Blocks of ``rho`` (..., d, d), ``f`` shaped to broadcast against one
    block, and an empty (..., d, d) output over both leading shapes."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty(np.broadcast_shapes(rho.shape[:-2], np.shape(f)) + rho.shape[-2:], dtype=complex)
    return _blocks(rho), np.asarray(f, dtype=dtype)[..., None, None], out


@dataclass(frozen=True)
class DephasingChannel:
    """Dephasing family Lambda_tau on qubit A, driven by kappa(tau)."""

    spec: DephasingSpec

    def decoherence(self, t):
        return kappa_complex(self.spec, t)

    def magnitude(self, t):
        """|kappa(t)| from its closed form (``kappa_abs``), with no complex
        factor formed."""
        return kappa_abs(self.spec, t)

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        return apply_dephasing(rho, self.decoherence(t))

    @staticmethod
    def act(rho: np.ndarray, kappa) -> np.ndarray:
        """Multiply the 0-1 coherence blocks of the first qubit by kappa, kappa*.

        ``rho`` has shape (..., d, d) with the qubit as the slow factor, and
        ``kappa`` broadcasts against its leading axes.  kappa stays the left
        operand: numpy's vectorized complex product is not bit-symmetric, so
        swapping the operands can move results by an ulp.
        """
        b, k, out = _operands(rho, kappa, complex)
        o = _blocks(out)
        o[..., 0, :, 0, :] = b[..., 0, :, 0, :]
        o[..., 1, :, 1, :] = b[..., 1, :, 1, :]
        o[..., 0, :, 1, :] = k * b[..., 0, :, 1, :]
        o[..., 1, :, 0, :] = np.conj(k) * b[..., 1, :, 0, :]
        return out


@dataclass(frozen=True)
class AmplitudeDampingChannel:
    """Amplitude-damping family Lambda_t on qubit A, driven by chi(t)."""

    spec: LorentzSpec

    def decoherence(self, t):
        return chi(self.spec, t)

    def magnitude(self, t):
        """|chi(t)|."""
        return abs(chi(self.spec, t))

    def apply(self, rho: np.ndarray, t: float) -> np.ndarray:
        return apply_amplitude_damping(rho, self.decoherence(t))

    @staticmethod
    def act(rho: np.ndarray, x) -> np.ndarray:
        """Amplitude-damping action with amplitude x on the first qubit.

        Shapes as in ``DephasingChannel.act``.  Linear in rho and well-defined
        for any real x; it is a physical (CPTP) map only for |x| <= 1.  Basis
        order of the damped qubit: (ground, excited).
        """
        b, x, out = _operands(rho, x, float)
        o = _blocks(out)
        o[..., 0, :, 0, :] = b[..., 0, :, 0, :] + (1.0 - x * x) * b[..., 1, :, 1, :]
        o[..., 0, :, 1, :] = x * b[..., 0, :, 1, :]
        o[..., 1, :, 0, :] = x * b[..., 1, :, 0, :]
        o[..., 1, :, 1, :] = (x * x) * b[..., 1, :, 1, :]
        return out


def _two_qubit_state(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho


def _require_contraction(family: type, f) -> None:
    """Reject any factor of ``f`` (a scalar or an array) with |f| > 1, where
    ``family.act`` is no contraction; the message names the first one."""
    magnitude = np.abs(f)
    over = magnitude > 1.0 + _CONTRACTION_SLACK
    if np.any(over):
        name, what = ("kappa", "dephasing factor") if family is DephasingChannel else ("chi", "damping amplitude")
        raise ValueError(f"|{name}| = {magnitude[over].flat[0]:.12g} > 1: not a valid {what}")


def apply_dephasing(rho: np.ndarray, kappa: complex) -> np.ndarray:
    """Dephase the first qubit of a two-qubit state by the complex factor kappa.

    The four coherence entries between the qubit's 0 and 1 sectors are
    multiplied by kappa (conjugate block by kappa*); diagonal blocks are
    untouched.  Rejects |kappa| > 1 (not a contraction).
    """
    kappa = complex(kappa)
    _require_contraction(DephasingChannel, kappa)
    return DephasingChannel.act(_two_qubit_state(rho), kappa)


def apply_amplitude_damping(rho: np.ndarray, chi_value: float) -> np.ndarray:
    """Amplitude-damp the first qubit of a two-qubit state.

    Kraus pair K0 = diag(1, chi) in (ground, excited) order and
    K1 = sqrt(1 - chi^2) |ground><excited|, tensored with the identity on the
    second qubit.  Rejects |chi| > 1.
    """
    x = float(chi_value)
    _require_contraction(AmplitudeDampingChannel, x)
    return AmplitudeDampingChannel.act(_two_qubit_state(rho), x)


ChannelFamily = DephasingChannel | AmplitudeDampingChannel


def maximally_entangled(d: int) -> np.ndarray:
    """|Psi><Psi| with |Psi> = sum_j |j>|j> / sqrt(d), system factor first."""
    psi = np.eye(d, dtype=complex).reshape(-1) / np.sqrt(d)
    return np.outer(psi, psi.conj())


def choi_state(family: ChannelFamily, t: float, system_dim: int) -> np.ndarray:
    """(Lambda_t x I) applied to the maximally entangled system-ancilla state.

    ``system_dim`` is 2 (the noisy qubit alone, via the reduced single-qubit
    channel) or 4 (both qubits, noise on the first).  The result is a valid
    density matrix of dimension system_dim**2.
    """
    if system_dim not in (2, 4):
        raise ValueError(f"system_dim must be 2 or 4, got {system_dim}")
    if t < 0.0:
        raise ValueError(f"t={t} must be non-negative")
    return family.act(maximally_entangled(system_dim), family.decoherence(t))


def intermediate_choi(family: ChannelFamily, t: float, eps: float) -> np.ndarray:
    """Choi matrix of the step map taking the state at ``t`` to ``t + eps``.

    Built from the decoherence ratio r = f(t+eps)/f(t) on the reduced
    single-qubit channel (4x4 Choi).  The result has unit trace and is
    Hermitian but may fail positivity; a negative eigenvalue signals a
    non-divisible step.  Raises ``SingularIntermediateMapError`` where the
    decoherence function vanishes.
    """
    if eps <= 0.0:
        raise ValueError(f"eps={eps} must be positive")
    f_t = family.decoherence(t)
    if abs(f_t) <= SINGULARITY_TOL:
        raise SingularIntermediateMapError(t)
    return family.act(maximally_entangled(2), family.decoherence(t + eps) / f_t)
