"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: eigenvalues
come from a textbook cyclic Jacobi iteration instead of LAPACK, partial
operations use explicit index loops instead of reshapes, and scalar roots
come from plain bisection.
"""

from __future__ import annotations

import math

import numpy as np


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


def partial_trace_brute(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Partial trace via explicit multi-index loops."""
    dims = tuple(int(d) for d in dims)
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted(keep))
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    d_keep = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return tuple(reversed(idx))

    def ravel_keep(idx):
        flat = 0
        for k in keep:
            flat = flat * dims[k] + idx[k]
        return flat

    total = int(np.prod(dims))
    for i in range(total):
        for j in range(total):
            bi, bj = unravel(i), unravel(j)
            if all(bi[t] == bj[t] for t in traced):
                out[ravel_keep(bi), ravel_keep(bj)] += rho[i, j]
    return out


def partial_transpose_brute(rho: np.ndarray, subsystem: int, dims) -> np.ndarray:
    """Partial transpose via explicit multi-index loops."""
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    out = np.zeros_like(np.asarray(rho, dtype=complex))

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel(idx):
        flat = 0
        for k, d in enumerate(dims):
            flat = flat * d + idx[k]
        return flat

    for i in range(total):
        for j in range(total):
            bi, bj = unravel(i), unravel(j)
            bi[subsystem], bj[subsystem] = bj[subsystem], bi[subsystem]
            out[ravel(bi), ravel(bj)] = rho[i, j]
    return out


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
