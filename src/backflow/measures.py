"""Information-backflow measures over channel trajectories.

Four measures are implemented: the information-flow measure (sum of positive
trace-distance increments, maximized over initial state pairs), a
divisibility measure built from intermediate Choi matrices, an
entanglement-based measure (negativity of the evolved maximally entangled
state) and a mutual-information-based measure.

All backflow integrals are sums of positive increments on a uniform grid,
which is exact for piecewise-monotone series once every monotone segment is
resolved; no derivative quadrature is used.

Turning-point reduction: both channel families compose multiplicatively in
their decoherence factor f (D(a)D(b) = D(ab), AD(x)AD(y) = AD(xy)), and the
phase of kappa or the sign of chi is a local unitary.  So the trace distance
of any evolved pair, and the negativity and mutual information of the evolved
maximally entangled state, are non-decreasing functions of |f| alone, and
each is monotone wherever |f| is.  The grid sum of their positive increments
therefore equals the same sum over the grid points where |f| turns (plus the
first and last point and any prefix cut), and only those points are
evolved and eigen-solved.  The divisibility measure uses the closed-form
trace norm of each step map's Choi matrix and solves no spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

# intermediate_choi and trace_norm are not called here: perfbench/tracer.py
# wraps them at these names, so they stay importable from this module.
from .channels import (  # noqa: F401
    AmplitudeDampingChannel,
    ChannelFamily,
    DephasingChannel,
    SINGULARITY_TOL,
    choi_state,
    intermediate_choi,
)
from .linalg import assert_density_matrix, negativity, partial_trace, trace_norm, von_neumann_entropy  # noqa: F401

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


def _ket_norms(kets: np.ndarray) -> np.ndarray:
    """Euclidean norm of each complex 4-ket along the last axis.

    The squares are added in the order in which the x86-64 OpenBLAS dot
    kernel adds four entries, the call np.linalg.norm makes on one ket (real
    parts, then imaginary parts, each as (0 + 2) + (1 + 3)).  With that BLAS
    the two norms agree to the bit; with any BLAS, scalar kets and stacked
    kets round alike, because both are normalized here.
    """
    re, im = kets.real * kets.real, kets.imag * kets.imag
    return np.sqrt(((re[..., 0] + re[..., 2]) + (re[..., 1] + re[..., 3]))
                   + ((im[..., 0] + im[..., 2]) + (im[..., 1] + im[..., 3])))


def _normalized(kets: np.ndarray) -> np.ndarray:
    return kets / _ket_norms(kets)[..., None]


def _ket(amplitudes) -> np.ndarray:
    return _normalized(np.asarray(amplitudes, dtype=complex))


_VARIANTS = ("zeta", "eta")


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
    if variant not in _VARIANTS:
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
    if seed < 0:
        raise ValueError(f"seed={seed} must be at least 0")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _haar_ket(rng: np.random.Generator) -> np.ndarray:
    return _normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))


def sample_random_pair(seed: int, index: int = 0) -> StatePair:
    """Two independent Haar-random pure two-qubit states.

    Deterministic per (seed, index): the stream is PCG64 seeded with
    numpy SeedSequence(seed, spawn_key=(index,)); each state draws its real
    then imaginary standard-normal components, first state then second.
    """
    rng = _pair_stream(int(seed), int(index))
    k1, k2 = _haar_ket(rng), _haar_ket(rng)
    return StatePair(np.outer(k1, k1.conj()), np.outer(k2, k2.conj()))


# The stacks below equal the difference() of the validated pairs above bit for
# bit: every step is the same elementwise ufunc, and every ket is normalized
# by _ket_norms.


def _differences(kets: np.ndarray) -> np.ndarray:
    """(N, 2, 4) ket pairs -> (N, 4, 4) differences of their projectors."""
    rho = kets[..., :, None] * kets.conj()[..., None, :]
    return rho[:, 0] - rho[:, 1]


def _random_differences(seed: int, lo: int, hi: int) -> np.ndarray:
    """``sample_random_pair(seed, k).difference()`` for k in [lo, hi), stacked.

    One draw of 16 normals per pair is the same stream as the four draws of 4
    that ``sample_random_pair`` makes.
    """
    z = np.array([_pair_stream(int(seed), k).standard_normal(16) for k in range(lo, hi)])
    z = z.reshape(-1, 2, 2, 4)
    return _differences(_normalized(z[:, :, 0] + 1j * z[:, :, 1]))


def _trace_distances(family: ChannelFamily, deltas: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Half the trace norm of each evolved difference matrix.

    ``deltas`` (..., 4, 4) and the decoherence samples ``f`` broadcast as in
    the family's ``act``; channels are linear, so evolving the difference
    equals the difference of the evolved states.
    """
    return 0.5 * np.abs(np.linalg.eigvalsh(family.act(deltas, f))).sum(axis=-1)


# Evolved 4x4 stacks are built in chunks of about this many entries, each
# dropped as soon as its spectrum is taken, before the next one is built.
_CHUNK_ENTRIES = 4_000_000


def _positive_increments(values: np.ndarray, cut_indices=None) -> np.ndarray:
    """Sum of positive increments along the last axis.

    Over the whole series, or, when ``cut_indices`` is given (each >= 1), the
    prefix sums over values[..., :cut + 1] stacked along the last axis.
    """
    pos = np.clip(np.diff(values, axis=-1), 0.0, None)
    if cut_indices is None:
        return pos.sum(axis=-1)
    return np.cumsum(pos, axis=-1)[..., np.asarray(cut_indices, dtype=int) - 1]


def _turning_points(absf: np.ndarray, cut_indices=None) -> np.ndarray:
    """Sorted grid indices that a sum of positive increments needs when the
    series is a non-decreasing function of ``absf``: the first and last
    index, every index where the sign of the step of ``absf`` changes (a zero
    step counts as a sign of its own, so plateaus and kinks are kept), and
    the cut indices.

    Between two consecutive kept indices ``absf`` is monotone, so such a
    series is too, and its positive increments there add up to the positive
    part of its increment between the two kept indices.
    """
    signs = np.sign(np.diff(absf))
    turns = np.flatnonzero(signs[1:] != signs[:-1]) + 1
    cuts = () if cut_indices is None else cut_indices
    return np.unique(np.concatenate(([0, absf.size - 1], turns, cuts)).astype(int))


def trace_distance_trajectory(family: ChannelFamily, pair: StatePair, times) -> Trajectory:
    """Trace distance of the evolved pair at each grid time, in chunks of
    grid points (the spectra are per matrix, so chunking changes no bit)."""
    times = np.asarray(times, dtype=float)
    f = np.asarray(family.decoherence(times))
    delta, step = pair.difference(), _CHUNK_ENTRIES // 16
    # An empty grid still makes one (empty) chunk, for Trajectory to reject.
    values = [_trace_distances(family, delta, f[lo : lo + step]) for lo in range(0, max(f.size, 1), step)]
    return Trajectory(times, np.concatenate(values))


def blp_integral(traj: Trajectory) -> float:
    """Sum of positive increments of the trajectory values."""
    return float(_positive_increments(traj.values))


def _chunked_backflows(family: ChannelFamily, deltas: np.ndarray, f: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of the trace distances of each pair at the samples ``f``,
    evolved in chunks of pairs of about ``_CHUNK_ENTRIES`` entries and
    concatenated along the pair axis."""
    deltas = np.asarray(deltas, dtype=complex)
    pair_chunk = max(1, _CHUNK_ENTRIES // (16 * f.size))
    return np.concatenate([
        reduce(_trace_distances(family, deltas[lo : lo + pair_chunk, None], f))
        for lo in range(0, deltas.shape[0], pair_chunk)
    ])


def _pair_backflows(
    family: ChannelFamily,
    deltas: np.ndarray,
    times: np.ndarray,
    cut_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Backflow integrals for a stack of difference matrices.

    Returns shape (P,) for the full window, or (P, len(cut_indices)) of
    prefix integrals over [times[0], times[cut]] when ``cut_indices`` is
    given (each cut index must be >= 1).  The pairs are evolved only at the
    turning points of |f| and the cuts (see the module docstring).
    """
    return _chunked_backflows(family, deltas, *_kept_samples(family, times, cut_indices))


def _kept_samples(family: ChannelFamily, times: np.ndarray, cut_indices=None):
    """The decoherence samples at the turning points of |f| and the cuts, and
    the reduction that turns any series on those points that is a
    non-decreasing function of |f| (a pair's trace distance, or |f| itself)
    into ``_pair_backflows``' integrals."""
    f = np.asarray(family.decoherence(times))
    kept = _turning_points(np.abs(f), cut_indices)
    cuts = None if cut_indices is None else np.searchsorted(kept, cut_indices)
    return f[kept], partial(_positive_increments, cut_indices=cuts)


def _window_backflows(family: ChannelFamily, deltas: np.ndarray, windows) -> np.ndarray:
    """Backflow integral of each pair over each of several windows: (P, W).

    ``windows`` holds W 1-D arrays of decoherence samples, each on its own
    window's grid.  The turning points of every window are concatenated and
    evolved together, one spectrum call per chunk of pairs; each window's
    segment of the trace distances is then reduced on its own, so column w
    equals ``_pair_backflows`` over window w alone.
    """
    kept = [f[_turning_points(np.abs(f))] for f in windows]
    starts = np.cumsum([k.size for k in kept])[:-1]

    def segments(d: np.ndarray) -> np.ndarray:
        return np.stack([_positive_increments(seg) for seg in np.split(d, starts, axis=-1)], axis=-1)

    return _chunked_backflows(family, deltas, np.concatenate(kept), segments)


def _window_times(window: tuple[float, float], grid_size: int) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0 >= 0.0:
        raise ValueError(f"invalid window {window}")
    if grid_size < 2:
        raise ValueError(f"grid_size={grid_size} must be at least 2")
    return np.linspace(t0, t1, int(grid_size))


def _optimal_grid(alpha_count: int, phase_count: int) -> tuple[np.ndarray, np.ndarray]:
    for name, count in (("alpha_count", alpha_count), ("phase_count", phase_count)):
        if count < 1:
            raise ValueError(f"{name}={count} must be at least 1")
    alphas = np.linspace(0.0, 1.0, alpha_count) if alpha_count > 1 else np.array([1.0])
    return alphas, np.linspace(0.0, 2.0 * math.pi, phase_count, endpoint=False)


def _optimal_differences(alpha_count: int, phase_count: int) -> np.ndarray:
    """``optimal_pair(alpha, phase, variant).difference()`` over the candidate
    grid, stacked alpha-major, then phase, then zeta/eta: (2 A P, 4, 4)."""
    alphas, phases = _optimal_grid(alpha_count, phase_count)
    a = np.sqrt(alphas)[:, None, None, None]
    b = np.sqrt(1.0 - alphas)[:, None, None, None]
    # sign * c for the + and - kets, shape (P, 2, 1); then phi+- and phi'+-.
    sc = np.array([1.0, -1.0])[:, None] * np.exp(1j * phases)[:, None, None]
    zero, one = np.zeros_like(sc), np.ones_like(sc)
    phi = np.concatenate([one, zero, zero, sc], axis=-1) / math.sqrt(2.0)
    phi_prime = np.concatenate([zero, one, sc, zero], axis=-1) / math.sqrt(2.0)
    zeta = a * phi + b * phi_prime
    eta = a * phi + b * phi_prime[:, ::-1]
    kets = np.stack([zeta, eta], axis=2)  # (A, P, variant, state, 4)
    return _differences(_normalized(kets).reshape(-1, 2, 4))


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
    optimal = _optimal_differences(alpha_count, phase_count)
    deltas = np.concatenate([optimal, _random_differences(seed, 0, n_pairs)])
    values = _window_backflows(family, deltas, [family.decoherence(times)])[:, 0]
    best = int(np.argmax(values))
    if best < len(optimal):
        alphas, phases = _optimal_grid(alpha_count, phase_count)
        i, rest = divmod(best, 2 * len(phases))
        witness = optimal_pair(float(alphas[i]), float(phases[rest // 2]), _VARIANTS[rest % 2])
    else:
        witness = sample_random_pair(seed, best - len(optimal))
    return MeasureReport(value=float(values[best]), kind="blp", grid_size=int(grid_size), witness=witness)


# Trace-norm excess of a step map, trace_norm(intermediate_choi(...)) - 1, in
# closed form in e = max(|r|, 1) - 1 with r = f(t + eps) / f(t).  The dephasing
# Choi spectrum is {(1 +- |r|)/2, 0, 0}, so the excess is e; the damping one is
# {(1 + r^2)/2, (1 - r^2)/2, 0, 0}, so it is max(r^2, 1) - 1 = e (e + 2).
_STEP_EXCESS = {
    DephasingChannel: lambda e: e,
    AmplitudeDampingChannel: lambda e: e * (e + 2.0),
}


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
    rise = np.clip(np.diff(absf), 0.0, None)
    zero = absf[:-1] <= SINGULARITY_TOL
    singular = zero & (rise > 0.0)
    if np.any(singular):
        where = float(times[np.argmax(singular)])
        return MeasureReport(
            value=math.inf, kind="divisibility", grid_size=int(grid_size), singularity=where
        )
    # (|f(t + eps)| - |f(t)|) / |f(t)| rather than |r| - 1, which cancels.  A
    # non-increasing step adds nothing, including one from an exact zero
    # (frozen dynamics; the increasing ones are flagged above).
    e = rise / np.where(zero, 1.0, absf[:-1])
    value = float(_STEP_EXCESS[type(family)](e).sum())
    return MeasureReport(value=value, kind="divisibility", grid_size=int(grid_size))


def _choi_measure(family: ChannelFamily, window, grid_size: int, score, kind: str) -> MeasureReport:
    """Sum of positive increments of ``score`` of the evolved maximally
    entangled state (system = both qubits, dimension 4), evaluated at the
    turning points of |f| only (see the module docstring)."""
    times = _window_times(window, grid_size)
    kept = times[_turning_points(np.abs(family.decoherence(times)))]
    values = np.array([score(choi_state(family, float(t), 4)) for t in kept])
    return MeasureReport(value=float(_positive_increments(values)), kind=kind, grid_size=int(grid_size))


def entanglement_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Sum of positive negativity increments of the evolved maximally
    entangled state (system = both qubits, dimension 4)."""
    score = partial(negativity, subsystem=1, dims=(4, 4))
    return _choi_measure(family, window, grid_size, score, "entanglement")


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
    return _choi_measure(family, window, grid_size, _mutual_information, "mutual-info")
