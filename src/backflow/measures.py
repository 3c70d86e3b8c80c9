"""Information-backflow measures over channel trajectories.

Four measures are implemented: the information-flow measure (sum of positive
trace-distance increments, maximized over initial state pairs), a
divisibility measure from the closed-form trace-norm excess of each step
map's Choi matrix (``_STEP_EXCESS``; no Choi matrix is built), and the
negativity and mutual information of the evolved maximally entangled state,
in closed form (``_SCORES``): with r = |f| and h the binary entropy in bits,
r + 1/2 and 4 - h((1 - r)/2) for dephasing, r^2 + 1/2 and
3 + h(r^2/2) - h((1 - r^2)/2) for damping.

All backflow integrals are sums of positive increments on a uniform grid,
which is exact for piecewise-monotone series once every monotone segment is
resolved; no derivative quadrature is used.  Every grid, the measures' and
fig1's, fig2's and fig4's, comes from ``_window_times``, and a grid whose
step is not below half the period of |f| (``_HALF_PERIODS``), which could
step over whole rises, is refused by ``_require_resolved``.  Every |f| but
fig2's (finite wherever its transition angles are) comes from
``_window_magnitude``, which also refuses a non-finite |f|.  Every pair
search, the measure's and the figures', goes through ``_backflows``.

Rising-stretch reduction: both channel families compose multiplicatively in
their decoherence factor f (D(a)D(b) = D(ab), AD(x)AD(y) = AD(xy)), and the
phase of kappa or the sign of chi is a local unitary.  So the trace distance
of any evolved pair, and the closed-form scores above, are non-decreasing
functions of |f| alone, and each is monotone wherever |f| is.  On a stretch
where |f| falls or stays flat such a series does not rise, so the stretch
adds exactly zero to the grid sum of its positive increments (Breuer, Laine &
Piilo, PRL 103, 210401 (2009)).  The sum therefore equals the same sum over
the grid points that bound a rising step of |f|: the minimum and maximum
around each rising stretch, and the prefix cuts inside one.  Only those
points are evaluated; a window where |f| never rises evaluates nothing and
gives 0.  So every measure reads |f| alone, from ``family.magnitude`` (for
dephasing the closed form ``kappa_abs``; no complex kappa is formed), and the
sums of many windows are one segmented sum (``_window_increments``).
fig2 does not even form |kappa| on the whole grid: the closed form is
envelope * sqrt(c + s * osc) with c, s >= 0, one rounded multiply, add,
sqrt and multiply, each monotone in its varying operand, so across a step
where neither angle-free factor (the envelope, cos^2(dw t / 2)) rises,
|kappa| does not rise at any angle, in floating point.  It forms the two
factors once on the stack of all its windows' grids, finds both ends of the
steps where a factor rises in every window at once
(``decoherence._rising_columns``), and forms |kappa| there alone, for every
angle in one block, split into one view per window.  A window on those
columns keeps the full window's samples (``_kept_samples``).
Divisibility reads |f| at every grid point.

Trace norms without spectra: an evolved difference of two pure states has
at most two eigenvalues of each sign (both channels have Kraus rank 2), so
its trace norm is the largest root of a cubic (``_half_trace_norms``) in
trace invariants that are polynomials in |f|^2, with coefficients from the
pair's 2x2 blocks (``_PAIR_INVARIANTS``).  So the pair searches solve no
spectrum and build no evolved matrix; ``trace_distance_trajectory``
eigen-solves only a pair that is not two pure states.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

# choi_state, intermediate_choi, trace_norm and von_neumann_entropy are not called
# here: perfbench/tracer.py wraps them at these names (getattr) in every traced run.
from .channels import (  # noqa: F401
    AmplitudeDampingChannel,
    ChannelFamily,
    DephasingChannel,
    SINGULARITY_TOL,
    choi_state,
    intermediate_choi,
)
from .decoherence import _oscillates
from .linalg import assert_density_matrix, trace_norm, von_neumann_entropy  # noqa: F401

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
    ``witness`` carries the best pair of ``blp_search``: ``optimal_pair(1.0,
    0.0, "zeta")`` unless a random pair's backflow is strictly larger.
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


def _require(values: dict, minima: dict) -> None:
    """Reject, by name, the first key of ``minima`` whose value in ``values``
    lies below its minimum."""
    for key, lo in minima.items():
        if values[key] < lo:
            raise ValueError(f"{key}={values[key]} must be at least {lo}")


# Random pairs are drawn in blocks of this many: block b is the stream
# default_rng(SeedSequence(seed, spawn_key=(b,))), and pair k is row
# k % _STREAM_PAIRS of that block's standard_normal((rows, 16)).  A search
# chunk is as many whole blocks as _CHUNK_POINTS allows, so no block is drawn
# twice; only where one block would exceed it is a chunk shorter than a block.
_STREAM_PAIRS = 256


def _random_kets(seed: int, lo: int, hi: int) -> np.ndarray:
    """The two normalized kets of each random pair k in [lo, hi), shape
    (hi - lo, 2, 4).

    Each pair's row of 16 normals holds the real then imaginary parts of
    its first ket, then of its second.  A Generator fills rows in order, so
    the first rows of a block are the same whether it draws them alone or
    with the rest; only the rows up to ``hi`` of the last block are drawn.
    """
    seed, lo, hi = int(seed), int(lo), int(hi)
    _require({"seed": seed, "index": lo}, {"seed": 0, "index": 0})
    rows = [np.empty((0, 16))]
    for b in range(lo // _STREAM_PAIRS, -(-hi // _STREAM_PAIRS)):
        start = b * _STREAM_PAIRS
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        rows.append(rng.standard_normal((min(hi - start, _STREAM_PAIRS), 16))[max(lo - start, 0):])
    z = np.concatenate(rows).reshape(-1, 2, 2, 4)
    return _normalized(z[:, :, 0] + 1j * z[:, :, 1])


def sample_random_pair(seed: int, index: int = 0) -> StatePair:
    """Two independent Haar-random pure two-qubit states, pair ``index`` of
    the streams of ``seed`` (``_random_kets``); deterministic per
    (seed, index)."""
    k1, k2 = _random_kets(seed, index, int(index) + 1)[0]
    return StatePair(np.outer(k1, k1.conj()), np.outer(k2, k2.conj()))


def _random_differences(seed: int, lo: int, hi: int) -> np.ndarray:
    """``sample_random_pair(seed, k).difference()`` for k in [lo, hi), stacked,
    bit for bit and without ``StatePair``'s state checks: the kets are the
    same rows of the same blocks, and each outer product is the same
    elementwise product."""
    kets = _random_kets(seed, lo, hi)
    rho = kets[..., :, None] * kets.conj()[..., None, :]
    return rho[:, 0] - rho[:, 1]


# Newton steps from above, then fixed-point steps, on the trace-norm cubic of
# _half_trace_norms: enough to match eigvalsh to ~1e-15 from its start.
_NEWTON_STEPS, _FIXED_POINT_STEPS = 4, 2


def _half_trace_norms(p2: np.ndarray, e3: np.ndarray, e4: np.ndarray) -> np.ndarray:
    """Half the trace norm of traceless Hermitian 4x4 matrices X with at most
    two positive and two negative eigenvalues, from p2 = Tr X^2,
    e3 = Tr X^3 / 3 and e4 = det X >= 0, without an eigensolve.

    With eigenvalues a >= b >= 0 >= c >= d, the answer is s = a + b =
    -(c + d).  With P = ab and Q = cd, p2 = 2 s^2 - 2 (P + Q),
    e3 = s (Q - P) and e4 = PQ make y = s^2 a root of

        g(y) = y (y - p2/2)^2 - 4 e4 y - e3^2,

    whose other roots are (a + c)^2 and (a + d)^2, so y is the largest.  It
    is a fixed point of the falling map phi(y) = p2/2 + sqrt(e3^2 / y + 4 e4)
    and lies at or above p2/2, where g is convex; so it lies at or below
    y0 = phi(p2/2), and Newton steps from y0 fall onto it from above, also
    where a zero of the decoherence factor makes it a double root.  Steps
    y = phi(y) then polish it.  p2 = 0 (a zero matrix) gives 0.
    """
    h = 0.5 * p2
    with np.errstate(divide="ignore", invalid="ignore"):
        y = h + np.sqrt(e3 * e3 / h + 4.0 * e4)
        for _ in range(_NEWTON_STEPS):
            u = y - h
            g = y * u * u - 4.0 * e4 * y - e3 * e3
            slope = u * u + 2.0 * y * u - 4.0 * e4
            y -= np.divide(g, slope, out=np.zeros_like(g), where=slope > 0.0)
        for _ in range(_FIXED_POINT_STEPS):
            y = h + np.sqrt(e3 * e3 / y + 4.0 * e4)
    return np.where(p2 > 0.0, np.sqrt(y), 0.0)


# The exponent of a zero block or sample: ldexp by it, or by anything near
# it, gives 0.
_ZERO_EXPONENT = -4096


def _exponents(m: np.ndarray) -> np.ndarray:
    """The exponent that frexp gives each m >= 0 (m / 2**e lies in [1/2, 1)),
    or ``_ZERO_EXPONENT`` where m is 0."""
    return np.where(m > 0.0, np.frexp(m)[1], _ZERO_EXPONENT)


def _scaled(*blocks: np.ndarray):
    """The 2x2 ``blocks`` (each ..., 2, 2) scaled by one power of two per
    leading index, so that their largest real or imaginary part lies in
    [1/2, 1), and that power's exponent."""
    e = _exponents(np.max([np.maximum(abs(b.real), abs(b.imag)).max(axis=(-2, -1)) for b in blocks], axis=0))
    s = -e[..., None, None]
    return [np.ldexp(b.real, s) + 1j * np.ldexp(b.imag, s) for b in blocks], e


def _hermitian(m: np.ndarray):
    """Hermitian 2x2 blocks m (..., 2, 2) as the real arrays (m00, m11,
    Re m01, Im m01)."""
    return m[..., 0, 0].real, m[..., 1, 1].real, m[..., 0, 1].real, m[..., 0, 1].imag


def _gram(b: np.ndarray):
    """``_hermitian`` of b b† for 2x2 blocks b (..., 2, 2)."""
    sq = b.real * b.real + b.imag * b.imag
    z = b[..., 0, 0] * b[..., 1, 0].conj() + b[..., 0, 1] * b[..., 1, 1].conj()
    return sq[..., 0, 0] + sq[..., 0, 1], sq[..., 1, 0] + sq[..., 1, 1], z.real, z.imag


# Tr H^2, Tr H^3, Tr H K and det H of Hermitian 2x2 blocks given as
# ``_hermitian`` parts.
def _tr2(h) -> np.ndarray:
    p, q, x, y = h
    return p * p + q * q + 2.0 * (x * x + y * y)


def _tr3(h) -> np.ndarray:
    p, q, x, y = h
    return p * p * p + q * q * q + 3.0 * (x * x + y * y) * (p + q)


def _tr_product(h, k) -> np.ndarray:
    return h[0] * k[0] + h[1] * k[1] + 2.0 * (h[2] * k[2] + h[3] * k[3])


def _det(h) -> np.ndarray:
    p, q, x, y = h
    return p * q - (x * x + y * y)


def _magnitudes(f: np.ndarray):
    """r = |f|, r / 2**e in [1/2, 1) (0 where f = 0), and e."""
    r = np.abs(f)
    e = _exponents(r)
    return r, np.ldexp(r, -e), e


def _dephasing_invariants(deltas: np.ndarray, kappa: np.ndarray):
    """(p2, e3, e4) of ``DephasingChannel.act(deltas, kappa)`` scaled by
    2**-e, and e, per evolved difference; see ``_PAIR_INVARIANTS``.

    With x = |kappa|^2 the dephased difference [[A, kappa B], [kappa* B†, C]]
    has p2 = Tr A^2 + Tr C^2 + 2 x |B|^2, Tr X^3 = Tr A^3 + Tr C^3 +
    3 x (Tr A B B† + Tr C B† B) and, for a pure-pair difference,
    det X = (1 - x)^2 det A det C.  A and C share one scale, since dephasing
    leaves both as they are.
    """
    (a, c), ed = _scaled(deltas[..., :2, :2], deltas[..., 2:, 2:])
    (b,), eb = _scaled(deltas[..., :2, 2:])
    a, c = _hermitian(a), _hermitian(c)
    bb, bhb = _gram(b), _gram(b.conj().swapaxes(-1, -2))
    d2, d3 = _tr2(a) + _tr2(c), (_tr3(a) + _tr3(c)) / 3.0
    b2, ab = 2.0 * (bb[0] + bb[1]), _tr_product(a, bb) + _tr_product(c, bhb)
    dets = np.maximum(_det(a) * _det(c), 0.0)
    r, rn, ef = _magnitudes(kappa)
    e = np.maximum(ed, ef + eb)
    rd, k = np.ldexp(1.0, ed - e), np.ldexp(rn, ef + eb - e)
    k2, rd2 = k * k, rd * rd
    p2 = rd2 * d2 + k2 * b2
    e3 = rd * (rd2 * d3 + k2 * ab)
    e4 = (rd2 * ((1.0 - r) * (1.0 + r))) ** 2 * dets
    return p2, e3, e4, e


def _damping_invariants(deltas: np.ndarray, chi: np.ndarray):
    """(p2, e3, e4) of ``AmplitudeDampingChannel.act(deltas, chi)`` scaled
    by 2**-e, and e, per evolved difference; see ``_PAIR_INVARIANTS``.

    With u = chi^2 and G = A + (1 - u) C the damped difference
    [[G, chi B], [chi B†, u C]] has p2 = Tr G^2 + 2 u |B|^2 + u^2 Tr C^2,
    Tr X^3 = Tr G^3 + 3 u Tr G B B† + 3 u^2 Tr B† B C + u^3 Tr C^3 and, for
    a pure-pair difference, det X = u^2 (1 - u)^2 (det C)^2.  G is formed per
    sample, from its four real parts, so that Tr G^2 stays a sum of squares.
    """
    a, c = _hermitian(deltas[..., :2, :2]), _hermitian(deltas[..., 2:, 2:])
    (b,), eb = _scaled(deltas[..., :2, 2:])
    (cn,), ec = _scaled(deltas[..., 2:, 2:])
    cn, bb = _hermitian(cn), _gram(b)
    b2, c2, c3 = 2.0 * (bb[0] + bb[1]), _tr2(cn), _tr3(cn) / 3.0
    bhbc, dc = _tr_product(_gram(b.conj().swapaxes(-1, -2)), cn), _det(cn)
    r, rn, ef = _magnitudes(chi)
    w = (1.0 - r) * (1.0 + r)
    g = [x + w * y for x, y in zip(a, c)]
    e = np.maximum(np.maximum(_exponents(np.maximum.reduce([abs(x) for x in g])), ef + eb), 2 * ef + ec)
    g = [np.ldexp(x, -e) for x in g]
    k2, d = np.ldexp(rn, ef + eb - e) ** 2, np.ldexp(rn * rn, 2 * ef + ec - e)
    p2 = _tr2(g) + k2 * b2 + d * d * c2
    e3 = _tr3(g) / 3.0 + d * d * d * c3 + k2 * (_tr_product(g, bb) + d * bhbc)
    e4 = (np.ldexp(rn * rn * dc, 2 * (ef + ec - e)) * w) ** 2
    return p2, e3, e4, e


# Each family's trace invariants of an evolved difference, from the 2x2
# blocks [[A, B], [B†, C]] of the pair's difference on the noisy qubit: the
# channels act blockwise, so they are polynomials in |f|^2 with coefficients
# fixed per pair.  Both det X forms come from the Kraus-rank-2 Gram
# factorization det X = |det M|^2 (M has the Kraus operators applied to the
# pair's two kets as columns), so e4 >= 0 and it vanishes exactly where the
# largest root of the cubic is double.  Each evolved difference is scaled by
# 2**-e, e bounding the exponent of its largest block, so that no square of
# an unscaled block or of |f| under- or overflows: the blocks are scaled per
# pair and |f| per sample, and the exponents combine exactly.
_PAIR_INVARIANTS = {
    DephasingChannel: _dephasing_invariants,
    AmplitudeDampingChannel: _damping_invariants,
}


def _trace_distances(family: ChannelFamily, deltas: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Half the trace norm of each evolved difference matrix, for differences
    of two pure states (rank at most 2).

    ``deltas`` (..., 4, 4) and the decoherence samples ``f`` broadcast as in
    the family's ``act``; channels are linear, so evolving the difference
    equals the difference of the evolved states.  Such a difference has one
    positive and one negative eigenvalue, and each channel has Kraus rank 2,
    so every evolved difference has at most two of each, as
    ``_half_trace_norms`` needs.  No evolved matrix is built: the trace
    invariants come from ``_PAIR_INVARIANTS``.
    """
    p2, e3, e4, e = _PAIR_INVARIANTS[type(family)](np.asarray(deltas, dtype=complex), np.asarray(f))
    return np.ldexp(_half_trace_norms(p2, e3, e4), e)


def _eigen_trace_distances(family: ChannelFamily, deltas: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``_trace_distances`` for any difference matrices, from their spectra."""
    return 0.5 * np.abs(np.linalg.eigvalsh(family.act(deltas, f))).sum(axis=-1)


# A state counts as pure when its purity Tr rho^2 lies within this of 1.
# Pure states built in floating point reach a few eps.
_PURITY_TOL = 64 * np.finfo(float).eps

# Pairs and samples are evolved in chunks of at most this many (pair, sample)
# points, or of one pair where one pair has more samples; a random search
# rounds its chunk down to whole blocks of _STREAM_PAIRS pairs where it holds
# one.  The trace-norm kernel holds a few dozen float arrays of one value per
# point of a chunk, and drops them before the next chunk.
_CHUNK_POINTS = 125_000

# A random search starts at most one process per this many pairs
# (_random_search).  A fork costs ~5-10 ms; on a 2-core x86 host, fig1 and
# fig4 with two processes lose to one at 1,000-3,000 pairs in all, tie at
# 4,000 (2,000 per process, the fewest at which this lets two start) and win
# from 5,000 on (~13 -> ~11.5 ms; 10,000 pairs ~29.5 -> ~19.5 ms).
_PAIRS_PER_PROCESS = 2_000


def _positive_increments(values: np.ndarray, cut_indices=None) -> np.ndarray:
    """Sum of positive increments along the last axis.

    Over the whole series (0 for fewer than two values), or, when
    ``cut_indices`` is given (each >= 0), the prefix sums over
    values[..., :cut + 1] stacked along the last axis; a cut at 0 covers no
    step and gives 0, also on an empty series.
    """
    pos = np.clip(np.diff(values, axis=-1), 0.0, None)
    if cut_indices is None:
        return pos.sum(axis=-1)
    prefix = np.concatenate([np.zeros(pos.shape[:-1] + (1,)), np.cumsum(pos, axis=-1)], axis=-1)
    return prefix[..., np.asarray(cut_indices, dtype=int)]


def _turning_mask(absf: np.ndarray, cut_indices=None) -> np.ndarray:
    """The grid indices that a sum of positive increments needs when the
    series is a non-decreasing function of ``absf``, as a mask along the
    last axis (one series per leading index): the edges of the rising steps
    of ``absf`` (an index whose step in rises and whose step out does not, or
    the reverse; past either end nothing rises), and the cut indices that
    bound a rising step.

    Between two consecutive kept indices ``absf`` either rises throughout,
    so such a series is monotone there and its positive increments add up to
    the positive part of its increment between the two, or never rises, so
    the series does not rise either and adds nothing.  An ``absf`` that never
    rises keeps no index.
    """
    # rises[..., i] says whether the step into index i rises, rises[..., i + 1] the step out.
    rises = np.zeros(absf.shape[:-1] + (absf.shape[-1] + 1,), dtype=bool)
    np.greater(np.diff(absf, axis=-1), 0.0, out=rises[..., 1:-1])
    keep = rises[..., 1:] != rises[..., :-1]
    if cut_indices is not None:
        cuts = np.asarray(cut_indices, dtype=int)
        keep[..., cuts] |= rises[..., cuts] | rises[..., cuts + 1]
    return keep


def trace_distance_trajectory(family: ChannelFamily, pair: StatePair, times) -> Trajectory:
    """Trace distance of the evolved pair at each grid time, in chunks of
    grid points (each value depends only on its own sample, so chunking
    changes no bit).

    A pair of two pure states takes ``_trace_distances``; any other pair's
    evolved differences are eigen-solved.  Both read |f| alone
    (``family.magnitude``): the phase of kappa and the sign of chi are a
    local unitary on the noisy qubit (a phase gate, or Z), which leaves
    every spectrum as it is.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(family.magnitude(times))
    delta, step = pair.difference(), _CHUNK_POINTS
    pure = all(abs(np.vdot(rho, rho).real - 1.0) <= _PURITY_TOL for rho in (pair.rho1, pair.rho2))
    distances = _trace_distances if pure else _eigen_trace_distances
    # An empty grid still makes one (empty) chunk, for Trajectory to reject.
    values = [distances(family, delta, f[lo : lo + step]) for lo in range(0, max(f.size, 1), step)]
    return Trajectory(times, np.concatenate(values))


def blp_integral(traj: Trajectory) -> float:
    """Sum of positive increments of the trajectory values."""
    return float(_positive_increments(traj.values))


def _window_increments(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``_positive_increments`` of each window's segment of ``values`` (the
    windows lie along the last axis, ``sizes`` samples each): one sum per
    window, shape (..., W).

    The sums are one segmented sum: the positive steps with a 0 in place of
    the step into each window's first sample, reduced at the window starts.
    So each window's segment is a 0 followed by its own steps, which
    ``np.add.reduceat`` adds as ``sum`` adds the steps alone (the 0 in the
    place of the identity, then the pairwise sum): bit for bit.  An empty
    window gives 0.
    """
    bounds = np.cumsum(sizes)
    filled = sizes > 0
    starts = (bounds - sizes)[filled]
    steps = np.clip(np.diff(values, axis=-1, prepend=0.0), 0.0, None)
    steps[..., starts] = 0.0
    out = np.zeros(values.shape[:-1] + (len(sizes),))
    if starts.size:
        out[..., filled] = np.add.reduceat(steps, starts, axis=-1)
    return out


def _kept_samples(windows, cut_indices=None):
    """The kept samples of every window concatenated, and the reduction that
    turns any series on them that is a non-decreasing function of |f| (a
    pair's trace distance, a closed-form score, or |f| itself) into backflow
    integrals.

    ``windows`` holds arrays of |f| (``family.magnitude``): each a 1-D window
    on its own grid, or a 2-D stack of windows on one grid, one per row.
    Each window is kept at its ``_turning_mask``, so the kept samples are |f|
    there, window by window.  The reduction sums the positive increments of
    each window's segment, shape (..., W) for W windows; a window where |f|
    never rises has an empty segment, which gives 0.  ``cut_indices`` (each
    >= 1) takes one 1-D window, fig1's and fig4's, and the reduction gives
    its prefix sums over [0, cut] instead: a cut reads the prefix sum at the
    last kept point at or before it (from there to the cut |f| does not
    rise, so the series adds nothing), or position 0, which is 0.

    A window (without cuts) may hold |f| at only some columns of its grid,
    if they include both ends of every step where |f| rises: its kept
    samples and sums are then the full window's, bit for bit.  Between two
    such columns that are not grid neighbours no step rises, so the finite
    |f| at the later one is at most |f| at the earlier one, and
    ``_turning_mask`` sees no rise there either.
    """
    if cut_indices is not None:
        (window,) = windows
        mask = _turning_mask(window, cut_indices)
        cuts = np.maximum(np.searchsorted(np.flatnonzero(mask), cut_indices, side="right") - 1, 0)
        return window[mask], partial(_positive_increments, cut_indices=cuts)
    masks = [_turning_mask(w) for w in windows]
    sizes = np.concatenate([np.count_nonzero(m, axis=-1).reshape(-1) for m in masks])
    f = np.concatenate([w[m] for w, m in zip(windows, masks)])
    return f, partial(_window_increments, sizes=sizes)


def _random_backflows(family: ChannelFamily, f: np.ndarray, reduce, seed: int, lo: int, hi: int) -> np.ndarray:
    """``reduce`` of the trace distances at the samples ``f`` of random pairs
    lo..hi-1, one row per pair."""
    return reduce(_trace_distances(family, _random_differences(seed, lo, hi)[:, None], f))


def _fold(best, first_k, later_best, later_k):
    """Fold the per-column maximum and earliest index of a later range of
    pairs into those of an earlier one: the later index replaces the earlier
    only where its maximum is strictly larger, so a tie keeps the earlier
    pair."""
    return np.maximum(best, later_best), np.where(later_best > best, later_k, first_k)


def _share_best(family: ChannelFamily, f: np.ndarray, reduce, seed: int, step: int, lo: int, hi: int):
    """Per column, the largest backflow of random pairs lo..hi-1 and the
    earliest pair index that reaches it (-inf and 0 when lo == hi), searched
    in chunks of ``step`` pairs, each folded in and dropped."""
    best = reduce(np.zeros((0, f.size))).max(axis=0, initial=-np.inf)
    first_k = np.zeros(best.shape, dtype=int)
    for start in range(lo, hi, step):
        values = _random_backflows(family, f, reduce, seed, start, min(start + step, hi))
        best, first_k = _fold(best, first_k, values.max(axis=0), values.argmax(axis=0) + start)
    return best, first_k


def _send_share_best(conn, share) -> None:
    """Child process body: send ``_share_best(*share)``, or the exception it
    raised, through the write end ``conn``."""
    try:
        result = _share_best(*share)
    except BaseException as exc:  # re-raised in the parent
        result = exc
    conn.send(result)
    conn.close()


def _fan_out(task, bounds):
    """``_share_best`` over the pairs bounds[0]..bounds[-1]-1, split into the
    shares [bounds[i], bounds[i+1]).  The parent searches the first share and
    one forked child each of the others; each child sends back its folded
    result through a one-way pipe, and the parent folds the shares in pair
    order.  A child's exception is re-raised here; a child that exits
    without a result raises RuntimeError; every child is gone on return.
    """
    import multiprocessing  # ~9 ms of import that one-process searches skip

    context = multiprocessing.get_context("fork")
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_send_share_best, args=(send, (*task, lo, hi)))
            child.start()
            send.close()  # the child holds the only write end, so its exit ends the pipe
            children.append((child, receive, lo, hi))
        best, first_k = _share_best(*task, bounds[0], bounds[1])
        for child, receive, lo, hi in children:
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"the process searching random pairs [{lo}, {hi}) exited with code "
                    f"{child.exitcode} before sending its result"
                ) from None
            if isinstance(result, BaseException):
                raise result
            best, first_k = _fold(best, first_k, *result)
    except BaseException:
        for child, *_ in children:
            child.terminate()
        raise
    finally:
        for child, receive, *_ in children:
            child.join()
            receive.close()
    return best, first_k


def _random_search(family: ChannelFamily, f: np.ndarray, reduce, seed: int, n_pairs: int, workers: int = 1):
    """The largest backflow per column of ``reduce`` (from ``_kept_samples``)
    over the seeded random pairs 0..n_pairs-1, and the earliest pair index
    that reaches it; -inf and 0 when there is no pair.  Where no sample is
    kept (|f| never rises), every pair's sums are 0, so the answer is 0 and
    pair 0, found without drawing a pair.

    Each chunk of pairs (at most ``_CHUNK_POINTS`` points, or one pair) is
    drawn, evolved and reduced, then folded into the running result and
    dropped; a later chunk replaces a column's index only where it is
    strictly larger.  Where a chunk holds at least one block of
    ``_STREAM_PAIRS`` pairs it holds whole blocks and starts on a block edge,
    so no block is drawn twice.  ``workers`` caps the processes, this one
    included: the pairs split into contiguous shares in pair order, one per
    process (``_fan_out``), at multiples of one block (or of the shorter
    chunk), and no more shares than the CPUs available, those units, or
    n_pairs // ``_PAIRS_PER_PROCESS``.  The shares fold in pair order the
    same way, so the result does not depend on the worker count.
    """
    n_pairs = int(n_pairs)
    _require({"seed": seed}, {"seed": 0})
    if n_pairs > 2**64:
        raise ValueError(f"pair indices [0, {n_pairs}) must lie below 2**64")
    if f.size == 0 and n_pairs:
        best = reduce(np.zeros((1, 0)))[0]
        return best, np.zeros(best.shape, dtype=int)
    pairs = max(1, _CHUNK_POINTS // max(f.size, 1))
    unit = min(pairs, _STREAM_PAIRS)
    step = pairs - pairs % unit  # whole blocks, or one short chunk below one block
    units = -(-n_pairs // unit)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    procs = max(1, min(workers, cpus, units, n_pairs // _PAIRS_PER_PROCESS))
    task = (family, f, reduce, seed, step)
    if procs == 1:
        return _share_best(*task, 0, n_pairs)
    return _fan_out(task, [min(unit * (units * i // procs), n_pairs) for i in range(procs + 1)])


def _backflows(family: ChannelFamily, windows, n_pairs: int, seed: int, workers: int = 1, cut_indices=None):
    """The backflow integrals of every window of |f| in ``windows`` (see
    ``_kept_samples``, which also takes ``cut_indices``): the optimal pairs'
    value, the largest over the seeded random pairs 0..n_pairs-1, and the
    earliest random pair that reaches it (``_random_search``), each one
    array of one value per window or cut.

    Every optimal pair evolves with trace distance |f| (``optimal_pair``;
    arXiv 1310.1784), so their value is the sum of positive increments of
    |f| itself (Breuer, Laine & Piilo, PRL 103, 210401 (2009)): no optimal
    pair is evolved and no spectrum is taken for it.
    """
    f, reduce = _kept_samples(windows, cut_indices)
    best, first_k = _random_search(family, f, reduce, seed, n_pairs, workers)
    return reduce(f), best, first_k


def _window_times(window, grid_size: int) -> np.ndarray:
    """The window's grid of ``grid_size`` points, or, where its end is an
    array, one grid per end along the last axis, in row-major order.

    Each grid holds np.linspace(t0, end, grid_size)'s values: k * step + t0,
    or (k / (grid_size - 1)) * (end - t0) + t0 where the step underflows to
    0, and the end last.  np.linspace would stack the grids along its first
    axis, so a row of them would be strided.
    """
    t0, t1 = float(window[0]), np.asarray(window[1], dtype=float)
    if not ((t1 > t0).all() and t0 >= 0.0):
        raise ValueError(f"invalid window t0={window[0]}, t1={window[1]}: need 0 <= t0 < t1")
    _require({"grid": grid_size}, {"grid": 2})  # the commands' key
    div = int(grid_size) - 1
    k, delta = np.arange(div + 1, dtype=float), (t1 - t0)[..., None]
    step = delta / div
    times = k * step if step.all() else np.where(step > 0.0, k * step, k / div * delta)
    times += t0
    times[..., -1] = t1
    return times


# Half the period of |f| on each family's oscillating branch, from its spec;
# inf where |f| does not oscillate (overdamped or critical damping).
_HALF_PERIODS = {
    DephasingChannel: lambda spec: math.pi / spec.delta_omega,
    AmplitudeDampingChannel: lambda spec: math.pi / spec.epsilon if _oscillates(spec) else math.inf,
}


def _require_resolved(family: ChannelFamily, times: np.ndarray) -> None:
    """Refuse, naming ``grid``, a grid (or a stack of grids along the last
    axis) whose largest step is not below half the period of |f|: such a
    step can step over whole rises, so the sum of positive increments would
    alias."""
    step = ((times[..., -1] - times[..., 0]) / (times.shape[-1] - 1)).max()
    half_period = _HALF_PERIODS[type(family)](family.spec)
    if not step < half_period:
        raise ValueError(f"grid={times.shape[-1]} is too coarse: its step {step:.6g} is not below "
                         f"{half_period:.6g}, half the period of |f|")


def _window_magnitude(family: ChannelFamily, window, grid_size: int):
    """The window's grid and |f| on it (``family.magnitude``), once each
    sample is finite and the grid resolves |f|'s oscillation
    (``_require_resolved``).

    Where a time overflows the phase (cos of inf is NaN), the kept-point mask
    would drop the sample and the measure would read 0: that time is named
    instead of numpy's overflow warnings.
    """
    times = _window_times(window, grid_size)
    with np.errstate(over="ignore", invalid="ignore"):
        absf = family.magnitude(times)
    bad = ~np.isfinite(absf)
    if bad.any():
        raise ValueError(f"|f| is not finite at t={float(times[np.argmax(bad)])}")
    _require_resolved(family, times)
    return times, absf


def _entropy_bits(*probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of probabilities that add up to 1; 0 log 0 = 0."""
    return -sum(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0) for p in probabilities)


# Each closed-form measure's score of r = |f| by (family type, kind), less
# its constant term, which adds no increment.
_SCORES = {
    (DephasingChannel, "entanglement"): lambda r: r,
    (AmplitudeDampingChannel, "entanglement"): lambda r: r * r,
    (DephasingChannel, "mutual-info"): lambda r: -_entropy_bits(0.5 * (1.0 - r), 0.5 * (1.0 + r)),
    (AmplitudeDampingChannel, "mutual-info"): lambda r: (
        _entropy_bits(0.5 * r * r, 1.0 - 0.5 * r * r) - _entropy_bits(0.5 * (1.0 - r) * (1.0 + r), 0.5 * (1.0 + r * r))
    ),
}


def _scored(family: ChannelFamily, window, grid_size: int, kind: str) -> float:
    """The backflow integral of the window's ``_SCORES`` series."""
    f, reduce = _kept_samples([_window_magnitude(family, window, grid_size)[1]])
    return float(reduce(_SCORES[type(family), kind](f))[0])


def blp_search(
    family: ChannelFamily,
    window: tuple[float, float],
    n_pairs: int,
    grid_size: int,
    seed: int,
) -> MeasureReport:
    """Maximum backflow integral over the optimal pairs and ``n_pairs``
    seeded Haar-random pure pairs.

    Every optimal pair evolves with trace distance |f|, so the optimal value
    is the sum of positive increments of |f| itself and no optimal pair is
    evolved.  A tie goes to the optimal pairs, whose witness is
    ``optimal_pair(1.0, 0.0, "zeta")``; random pair k is the witness only
    when its backflow is strictly larger (the earliest such k on a tie), so
    the result is deterministic for a given seed.
    """
    _require({"pairs": n_pairs}, {"pairs": 0})  # the measure command's key
    optimal, best, first_k = _backflows(family, [_window_magnitude(family, window, grid_size)[1]], n_pairs, seed)
    if best[0] > optimal[0]:
        return MeasureReport(float(best[0]), "blp", int(grid_size), witness=sample_random_pair(seed, int(first_k[0])))
    return MeasureReport(float(optimal[0]), "blp", int(grid_size), witness=optimal_pair(1.0, 0.0, "zeta"))


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
    directly, in closed form in |f| (``_STEP_EXCESS``).  If the decoherence
    magnitude vanishes at a grid point followed by an increase, h diverges
    there and the measure is reported infinite with the location of the zero.
    """
    times, absf = _window_magnitude(family, window, grid_size)
    rise = np.clip(np.diff(absf), 0.0, None)
    zero = absf[:-1] <= SINGULARITY_TOL
    singular = zero & (rise > 0.0)
    if np.any(singular):
        return MeasureReport(math.inf, "divisibility", int(grid_size), singularity=float(times[np.argmax(singular)]))
    # (|f(t + eps)| - |f(t)|) / |f(t)| rather than |r| - 1, which cancels.  A
    # non-increasing step adds nothing, including one from an exact zero
    # (frozen dynamics; the increasing ones are flagged above).
    e = rise / np.where(zero, 1.0, absf[:-1])
    return MeasureReport(float(_STEP_EXCESS[type(family)](e).sum()), "divisibility", int(grid_size))


def entanglement_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Sum of positive negativity increments of the evolved maximally
    entangled state (system = both qubits, dimension 4)."""
    return MeasureReport(_scored(family, window, grid_size, "entanglement"), "entanglement", int(grid_size))


def mutual_info_measure(
    family: ChannelFamily,
    window: tuple[float, float],
    grid_size: int,
) -> MeasureReport:
    """Sum of positive increments of the quantum mutual information of the
    evolved maximally entangled state (system = both qubits)."""
    return MeasureReport(_scored(family, window, grid_size, "mutual-info"), "mutual-info", int(grid_size))


# The four measures by name, each called as (family, window, grid_size,
# n_pairs, seed); only blp searches pairs, so the others take neither.
_MEASURES = {
    "blp": lambda family, window, grid_size, n_pairs, seed: blp_search(family, window, n_pairs, grid_size, seed),
    "divisibility": lambda family, window, grid_size, *_: divisibility_measure(family, window, grid_size),
    "entanglement": lambda family, window, grid_size, *_: entanglement_measure(family, window, grid_size),
    "mutual-info": lambda family, window, grid_size, *_: mutual_info_measure(family, window, grid_size),
}
