"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: eigenvalues
come from a textbook cyclic Jacobi iteration instead of LAPACK, partial
operations use explicit index loops, kappa is a plain trapezoid sum over the
frequency density, and scalar roots come from plain bisection.  The
bipartite ``partial_trace``, ``partial_transpose`` and ``negativity`` are
reshapes, pinned against the index loops by a test.  The exceptions are the
helpers that read the package's own trace norm or entropy
(``trace_distance``, ``negativity``, ``mutual_information``, the 16x16
route that the closed-form scores of ``backflow.measures`` replaced) and
the stack helpers (``stack_backflows``, ``pair_backflows``), which run the
package's own pair kernel on stacks that no search draws.
"""

from __future__ import annotations

import decimal
import itertools
import math

import numpy as np

from backflow.linalg import hermitian_eigenvalues, trace_norm, von_neumann_entropy


def jacobi_eigenvalues(m: np.ndarray, max_sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations."""
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                b = abs(a[p, q])
                if b < 1e-300:
                    continue
                phi = np.angle(a[p, q])
                theta = 0.5 * math.atan2(2.0 * b, float(a[q, q].real - a[p, p].real))
                c, s = math.cos(theta), math.sin(theta)
                j = np.eye(n, dtype=complex)
                j[p, p] = c
                j[p, q] = s * np.exp(1j * phi)
                j[q, p] = -s * np.exp(-1j * phi)
                j[q, q] = c
                a = j.conj().T @ a @ j
    return np.sort(np.diag(a).real)


def partial_trace_brute(rho: np.ndarray, keep: int, dims) -> np.ndarray:
    """Bipartite partial trace via an explicit loop over the four factor indices."""
    d0, d1 = dims
    out = np.zeros((dims[keep], dims[keep]), dtype=complex)
    for i, j, k, l in itertools.product(range(d0), range(d1), range(d0), range(d1)):
        if (j == l, i == k)[keep]:
            out[(i, j)[keep], (k, l)[keep]] += rho[i * d1 + j, k * d1 + l]
    return out


def partial_transpose_brute(rho: np.ndarray, subsystem: int, dims) -> np.ndarray:
    """Bipartite partial transpose via an explicit loop over the four factor indices."""
    d0, d1 = dims
    out = np.zeros((d0 * d1, d0 * d1), dtype=complex)
    for i, j, k, l in itertools.product(range(d0), range(d1), range(d0), range(d1)):
        row, col = ((k, j), (i, l)) if subsystem == 0 else ((i, l), (k, j))
        out[row[0] * d1 + row[1], col[0] * d1 + col[1]] = rho[i * d1 + j, k * d1 + l]
    return out


def partial_trace(rho: np.ndarray, keep: int, dims) -> np.ndarray:
    """Trace of a bipartite state (dims (d0, d1)) over the factor other than ``keep``."""
    return np.trace(np.asarray(rho).reshape(*dims, *dims), axis1=1 - keep, axis2=3 - keep)


def partial_transpose(rho: np.ndarray, subsystem: int, dims) -> np.ndarray:
    """Transpose of one factor of a bipartite state (dims (d0, d1))."""
    rho = np.asarray(rho)
    return np.swapaxes(rho.reshape(*dims, *dims), subsystem, subsystem + 2).reshape(rho.shape)


def negativity(rho: np.ndarray, subsystem: int, dims) -> float:
    """(||rho^Gamma||_1 - 1) / 2 across a bipartite split."""
    return 0.5 * (trace_norm(partial_transpose(rho, subsystem, dims)) - 1.0)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(np.asarray(a) - np.asarray(b))


def kappa_by_quadrature(spec, tau: float) -> complex:
    """kappa(tau) as a 1001-point trapezoid sum of the two-peak frequency
    density times e^{i omega tau} over [omega1 - 10 sigma, omega2 + 10 sigma]."""
    omega = np.linspace(spec.omega1 - 10.0 * spec.sigma, spec.omega2 + 10.0 * spec.sigma, 1001)
    density = sum(weight * np.exp(-0.5 * ((omega - center) / spec.sigma) ** 2)
                  for weight, center in ((math.cos(spec.theta) ** 2, spec.omega1),
                                         (math.sin(spec.theta) ** 2, spec.omega2)))
    return complex(np.trapezoid(density * np.exp(1j * omega * tau), omega)) / (math.sqrt(2.0 * math.pi) * spec.sigma)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bisect_root(f, a: float, b: float, iterations: int = 200) -> float:
    fa = f(a)
    fb = f(b)
    if (fa < 0.0) == (fb < 0.0):
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(iterations):
        m = 0.5 * (a + b)
        fm = f(m)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state from a normalized Wishart matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bell_diagonal_triple(rng: np.random.Generator) -> tuple[float, float, float]:
    """Rejection-sample (c1, c2, c3) giving a positive semidefinite state."""
    while True:
        c1, c2, c3 = rng.uniform(-1.0, 1.0, size=3)
        combos = (
            1.0 - c1 - c2 - c3,
            1.0 - c1 + c2 + c3,
            1.0 + c1 - c2 + c3,
            1.0 + c1 + c2 - c3,
        )
        if all(v >= 0.0 for v in combos):
            return float(c1), float(c2), float(c3)


def golden_max(f, a: float, b: float, iterations: int = 200) -> float:
    """Argmax of a unimodal function by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def dephasing_kappa_modulus(theta: float, delta_omega: float, sigma: float, t: float) -> float:
    """|kappa(t)| as the modulus of the two-peak characteristic function
    exp(-sigma^2 t^2/2) (cos^2 theta + sin^2 theta e^{i dw t}), with omega1 = 0."""
    peaks = math.cos(theta) ** 2 + math.sin(theta) ** 2 * complex(
        math.cos(delta_omega * t), math.sin(delta_omega * t)
    )
    return math.exp(-0.5 * (sigma * t) ** 2) * abs(peaks)


def overdamped_chi_log(gamma0: float, width: float, t: float) -> float:
    """log chi(t) of the overdamped Lorentz model (width > 2 gamma0, t >= 0)
    in decimal arithmetic: -width t/2 + eps t/2 + log(1/2 (1 + r) + 1/2 (1 - r)
    e^{-eps t}) with r = width/eps, the log of e^{-width t/2} (cosh(eps t/2)
    + r sinh(eps t/2)).  The rate width - eps is a plain difference, so the
    precision grows with log10(width/gamma0), the digits it cancels; decimal's
    exponent range holds every factor that a float would overflow.
    """
    g0, g, tt = (decimal.Decimal(x) for x in (gamma0, width, t))
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, (g / g0).adjusted())
        eps = (g * g - 2 * g0 * g).sqrt()
        r = g / eps
        return float((eps - g) * tt / 2 + ((1 + r) / 2 + (1 - r) / 2 * (-eps * tt).exp()).ln())


def dephasing_extremes(theta: float, delta_omega: float, sigma: float) -> tuple[float, float]:
    """(t_min, t_max): the first minimum of |kappa| on [pi/2, 3pi/2]/dw and the
    revival maximum on [3pi/2, 5pi/2]/dw, by golden-section search.

    Raises ValueError when an extreme lands on its bracket edge, since the
    bracket then holds no interior extreme.
    """
    extremes = []
    for sign, lo, hi in ((-1.0, 0.5, 1.5), (1.0, 1.5, 2.5)):
        a, b = lo * math.pi / delta_omega, hi * math.pi / delta_omega
        t = golden_max(lambda x: sign * dephasing_kappa_modulus(theta, delta_omega, sigma, x), a, b)
        if min(t - a, b - t) <= 1e-6 * (b - a):
            raise ValueError(f"extreme at t={t!r} sits on the bracket edge [{a!r}, {b!r}]")
        extremes.append(t)
    return extremes[0], extremes[1]


def optimal_candidate_stack(alpha_count: int = 11, phase_count: int = 16) -> np.ndarray:
    """``optimal_pair(alpha, phase, variant).difference()`` over a uniform
    (alpha, phase) grid, both variants, stacked alpha-major: (2 A P, 4, 4).

    Every member evolves with trace distance |f|, so the largest backflow
    over the stack is the optimal pairs' backflow up to rounding.
    """
    from backflow import optimal_pair

    alphas = np.linspace(0.0, 1.0, alpha_count) if alpha_count > 1 else np.array([1.0])
    phases = np.linspace(0.0, 2.0 * math.pi, phase_count, endpoint=False)
    return np.stack([optimal_pair(float(a), float(ph), v).difference()
                     for a in alphas for ph in phases for v in ("zeta", "eta")])


def turning_points_by_sign_change(absf: np.ndarray, cut_indices=None) -> np.ndarray:
    """The kept indices of the turning-point reduction as first defined: of
    the first and last index, the indices where the sign of the step of
    ``absf`` changes (a zero step counts as a sign of its own) and the cut
    indices, those that bound a rising step."""
    steps = np.diff(absf)
    signs = np.sign(steps)
    turns = np.flatnonzero(signs[1:] != signs[:-1]) + 1
    cuts = () if cut_indices is None else cut_indices
    candidates = np.unique(np.concatenate(([0, absf.size - 1], turns, cuts)).astype(int))
    rises = steps > 0.0
    bounds_rise = np.concatenate(([False], rises)) | np.concatenate((rises, [False]))
    return candidates[bounds_rise[candidates]]


def stack_backflows(family, deltas: np.ndarray, windows, cut_indices=None) -> np.ndarray:
    """Backflow of each difference matrix in the stack ``deltas`` (P, 4, 4)
    over each window of |f| samples (``family.magnitude``): shape (P, W), or
    (P, C) with ``cut_indices``, which take one window.

    Not an independent reference: it runs the package's own kept samples,
    reduction and pure-pair kernel on an arbitrary stack (such as the
    optimal candidates), which the random-pair search does not take.
    """
    from backflow.measures import _kept_samples, _trace_distances

    f, reduce = _kept_samples(windows, cut_indices)
    deltas = np.asarray(deltas, dtype=complex)
    if f.size == 0:  # nothing to evolve: every sum is 0
        return reduce(np.zeros((deltas.shape[0], 0)))
    return reduce(_trace_distances(family, deltas[:, None], f))


def pair_backflows(family, deltas: np.ndarray, times: np.ndarray, cut_indices=None) -> np.ndarray:
    """``stack_backflows`` over the one window ``times``: shape (P,), or
    (P, len(cut_indices)) of prefix integrals over [times[0], times[cut]]."""
    values = stack_backflows(family, deltas, [family.magnitude(times)], cut_indices)
    return values[:, 0] if cut_indices is None else values


def mutual_information(rho16: np.ndarray, rank: int | None = None) -> float:
    """Quantum mutual information, in bits, of a 16x16 state across its two
    4-dimensional factors (such as ``choi_state(family, t, 4)``), from the
    spectra of the state and of its two marginals.

    With ``rank``, the joint entropy reads only the state's ``rank`` largest
    eigenvalues.  For a state known to have that rank (a Choi state of either
    family has the Kraus rank 2 of its channel), the others are 0, and the
    rounding noise that eigvalsh leaves on them, up to ~2e-16 each, would
    enter the entropy as -lam log2 lam, ~50 times as large, and add up to
    ~1e-14.
    """
    if rank is None:
        s_joint = von_neumann_entropy(rho16)
    else:
        w = hermitian_eigenvalues(rho16)[-rank:]
        w = w[w > 0.0]
        s_joint = float(-np.sum(w * np.log2(w)))
    s_sys = von_neumann_entropy(partial_trace(rho16, 0, (4, 4)))
    s_anc = von_neumann_entropy(partial_trace(rho16, 1, (4, 4)))
    return s_sys + s_anc - s_joint
