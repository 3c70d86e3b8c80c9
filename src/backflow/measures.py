"""Information-backflow measures over channel trajectories.

Four measures are implemented: the information-flow measure (sum of positive
trace-distance increments, maximized over initial state pairs), a
divisibility measure built from intermediate Choi matrices, an
entanglement-based measure (negativity of the evolved maximally entangled
state) and a mutual-information-based measure.

All backflow integrals are sums of positive increments on a uniform grid,
which is exact for piecewise-monotone series once every monotone segment is
resolved; no derivative quadrature is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelFamily, SINGULARITY_TOL, choi_state, intermediate_choi
from .linalg import assert_density_matrix, negativity, partial_trace, trace_norm, von_neumann_entropy

__all__ = [
    "Trajectory",
    "StatePair",
    "MeasureReport",
    "optimal_pair",
    "sample_random_pair",
    "trace_distance_trajectory",
    "blp_integral",
    "blp_search",
    "divisibility_measure",
    "entanglement_measure",
    "mutual_info_measure",
]

# Basis order of the two-qubit register: |00>, |01>, |10>, |11> with the noisy
# qubit as the first (slow) factor.
_HH, _HV, _VH, _VV = 0, 1, 2, 3


@dataclass(frozen=True)
class Trajectory:
    """A sampled scalar series over a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two grid points")
        if values.shape != times.shape:
            raise ValueError("times and values must have equal length")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("times and values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class StatePair:
    """Two 4x4 density matrices used as an initial pair."""

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho1", assert_density_matrix(self.rho1))
        object.__setattr__(self, "rho2", assert_density_matrix(self.rho2))
        if self.rho1.shape != (4, 4) or self.rho2.shape != (4, 4):
            raise ValueError("state pairs are 4x4 density matrices")

    def difference(self) -> np.ndarray:
        return self.rho1 - self.rho2


@dataclass(frozen=True)
class MeasureReport:
    """Result of a backflow-measure computation.

    ``value`` is non-negative and may be ``math.inf`` for the divisibility
    measure; ``singularity`` then records the time of the offending zero.
    ``witness`` carries the best pair for searched information-flow measures.
    """

    value: float
    kind: str
    grid_size: int
    witness: StatePair | None = None
    singularity: float | None = None

    def __post_init__(self) -> None:
        if not (self.value >= 0.0 or math.isinf(self.value)):
            raise ValueError(f"measure value {self.value} must be non-negative")


def _ket(amplitudes) -> np.ndarray:
    v = np.asarray(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def optimal_pair(alpha: float, phase: float, variant: str = "zeta") -> StatePair:
    """Build one of the two-parameter families of optimal initial pairs.

    The pairs are superpositions of |phi+-> = (|00> +- e^{i phase} |11>)/sqrt(2)
    and |phi'+-> = (|01> +- e^{i phase} |10>)/sqrt(2):

        zeta+- = sqrt(alpha) phi+-  +  sqrt(1-alpha) phi'+-
        eta+-  = sqrt(alpha) phi+-  +  sqrt(1-alpha) phi'-+

    Every member evolves with trace distance equal to the decoherence
    magnitude of the channel for all alpha and phase.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    if not 0.0 <= phase <= 2.0 * math.pi:
        raise ValueError(f"phase={phase} outside [0, 2 pi]")
    if variant not in ("zeta", "eta"):
        raise ValueError(f"variant must be 'zeta' or 'eta', got {variant!r}")
    c = np.exp(1j * phase)
    a, b = math.sqrt(alpha), math.sqrt(1.0 - alpha)
    kets = {}
    for sign, label in ((1.0, "+"), (-1.0, "-")):
        phi = np.zeros(4, dtype=complex)
        phi[_HH] = 1.0
        phi[_VV] = sign * c
        phi_prime = np.zeros(4, dtype=complex)
        phi_prime[_HV] = 1.0
        phi_prime[_VH] = sign * c
        kets[label] = (phi / math.sqrt(2.0), phi_prime / math.sqrt(2.0))
    if variant == "zeta":
        k1 = _ket(a * kets["+"][0] + b * kets["+"][1])
        k2 = _ket(a * kets["-"][0] + b * kets["-"][1])
    else:
        k1 = _ket(a * kets["+"][0] + b * kets["-"][1])
        k2 = _ket(a * kets["-"][0] + b * kets["+"][1])
    return StatePair(np.outer(k1, k1.conj()), np.outer(k2, k2.conj()))


def _pair_stream(seed: int, index: int) -> np.random.Generator:
    # Fixed derivation rule: pair k uses PCG64 seeded by
    # SeedSequence(entropy=seed, spawn_key=(k,)).
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _haar_ket(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return v / np.linalg.norm(v)


def sample_random_pair(seed: int, index: int = 0) -> StatePair:
    """Two independent Haar-random pure two-qubit states.

    Deterministic per (seed, index): the stream is PCG64 seeded with
    numpy SeedSequence(seed, spawn_key=(index,)); each state draws its real
    then imaginary standard-normal components, first state then second.
    """
    rng = _pair_stream(int(seed), int(index))
    k1 = _haar_ket(rng)
    k2 = _haar_ket(rng)
    return StatePair(np.outer(k1, k1.conj()), np.outer(k2, k2.conj()))


def _trace_distances(family: ChannelFamily, deltas: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Half the trace norm of each evolved difference matrix.

    ``deltas`` (..., 4, 4) and the decoherence samples ``f`` broadcast as in
    the family's ``act``; channels are linear, so evolving the difference
    equals the difference of the evolved states.
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(family.act(deltas, f))).sum(axis=-1)


def _positive_increments(values: np.ndarray, cut_indices=None) -> np.ndarray:
    """Sum of positive increments along the last axis.

    Over the whole series, or, when ``cut_indices`` is given (each >= 1), the
    prefix sums over values[..., :cut + 1] stacked along the last axis.
    """
    pos = np.clip(np.diff(values, axis=-1), 0.0, None)
    if cut_indices is None:
        return pos.sum(axis=-1)
    return np.cumsum(pos, axis=-1)[..., np.asarray(cut_indices, dtype=int) - 1]


def trace_distance_trajectory(family: ChannelFamily, pair: StatePair, times) -> Trajectory:
    """Trace distance of the evolved pair at each grid time."""
    times = np.asarray(times, dtype=float)
    f = np.asarray(family.decoherence(times))
    return Trajectory(times, _trace_distances(family, pair.difference(), f))


def blp_integral(traj: Trajectory) -> float:
    """Sum of positive increments of the trajectory values."""
    return float(_positive_increments(traj.values))


def _pair_backflows(
    family: ChannelFamily,
    deltas: np.ndarray,
    times: np.ndarray,
    cut_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Backflow integrals for a stack of difference matrices.

    Returns shape (P,) for the full window, or (P, len(cut_indices)) of
    prefix integrals over [times[0], times[cut]] when ``cut_indices`` is
    given (each cut index must be >= 1).  Pairs go through in chunks of about
    4e6 evolved entries; each chunk's evolved stack is dropped as soon as its
    spectrum is taken, before the next one is built.
    """
    deltas = np.asarray(deltas, dtype=complex)
    f = np.asarray(family.decoherence(times))
    pair_chunk = max(1, 4_000_000 // (16 * times.size))
    return np.concatenate([
        _positive_increments(
            _trace_distances(family, deltas[lo : lo + pair_chunk, None], f), cut_indices
        )
        for lo in range(0, deltas.shape[0], pair_chunk)
    ])


def _window_times(window: tuple[float, float], grid_size: int) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0 >= 0.0:
        raise ValueError(f"invalid window {window}")
    return np.linspace(t0, t1, int(grid_size))


def _optimal_candidates(alpha_count: int, phase_count: int) -> list[StatePair]:
    pairs = []
    alphas = np.linspace(0.0, 1.0, alpha_count) if alpha_count > 1 else np.array([1.0])
    phases = np.linspace(0.0, 2.0 * math.pi, phase_count, endpoint=False)
    for a in alphas:
        for ph in phases:
            for variant in ("zeta", "eta"):
                pairs.append(optimal_pair(float(a), float(ph), variant))
    return pairs


def blp_search(
    family: ChannelFamily,
    window: tuple[float, float],
    n_pairs: int,
    grid_size: int,
    seed: int,
    alpha_count: int = 11,
    phase_count: int = 16,
) -> MeasureReport:
    """Maximum backflow integral over candidate initial pairs.

    Candidates are the built-in optimal pairs on a uniform (alpha, phase)
    grid (both variants), followed by ``n_pairs`` seeded Haar-random pure
    pairs.  Ties resolve to the earliest candidate, so the result is
    deterministic for a given seed regardless of evaluation order.
    """
    if n_pairs < 0:
        raise ValueError("n_pairs must be >= 0")
    times = _window_times(window, grid_size)
    pairs = _optimal_candidates(alpha_count, phase_count)
    pairs.extend(sample_random_pair(seed, i) for i in range(n_pairs))
    deltas = np.stack([p.difference() for p in pairs])
    values = _pair_backflows(family, deltas, times)
    best = int(np.argmax(values))
    return MeasureReport(
        value=float(values[best]),
        kind="blp",
        grid_size=int(grid_size),
        witness=pairs[best],
    )


def divisibility_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Grid integral of the divisibility rate h(t).

    h(t) is the one-sided limit of (||intermediate Choi||_1 - 1)/eps; on the
    grid, eps equals the step and each step contributes its trace-norm excess
    directly.  If the decoherence magnitude vanishes at a grid point followed
    by an increase, h diverges there and the measure is reported infinite
    with the location of the zero.
    """
    times = _window_times(window, grid_size)
    absf = np.abs(np.asarray(family.decoherence(times)))
    increments = np.diff(absf)
    increasing = increments > 0.0
    zero = absf[:-1] <= SINGULARITY_TOL
    singular = zero & increasing
    if np.any(singular):
        where = float(times[np.argmax(singular)])
        return MeasureReport(
            value=math.inf, kind="divisibility", grid_size=int(grid_size), singularity=where
        )
    total = 0.0
    for k in range(times.size - 1):
        if zero[k]:
            # Non-increasing step from an exact zero (the pre-scan already
            # flagged increasing ones): frozen dynamics, contributes nothing.
            continue
        eps = times[k + 1] - times[k]
        excess = trace_norm(intermediate_choi(family, float(times[k]), float(eps))) - 1.0
        if excess > 0.0:
            total += excess
    return MeasureReport(value=total, kind="divisibility", grid_size=int(grid_size))


def entanglement_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Sum of positive negativity increments of the evolved maximally
    entangled state (system = both qubits, dimension 4)."""
    times = _window_times(window, grid_size)
    values = np.array(
        [negativity(choi_state(family, float(t), 4), subsystem=1, dims=(4, 4)) for t in times]
    )
    total = float(_positive_increments(values))
    return MeasureReport(value=total, kind="entanglement", grid_size=int(grid_size))


def _mutual_information(rho16: np.ndarray) -> float:
    s_joint = von_neumann_entropy(rho16)
    s_sys = von_neumann_entropy(partial_trace(rho16, 0, (4, 4)))
    s_anc = von_neumann_entropy(partial_trace(rho16, 1, (4, 4)))
    return s_sys + s_anc - s_joint


def mutual_info_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Sum of positive increments of the quantum mutual information of the
    evolved maximally entangled state (system = both qubits)."""
    times = _window_times(window, grid_size)
    values = np.array([_mutual_information(choi_state(family, float(t), 4)) for t in times])
    total = float(_positive_increments(values))
    return MeasureReport(value=total, kind="mutual-info", grid_size=int(grid_size))
