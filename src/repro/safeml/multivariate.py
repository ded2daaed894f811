"""Multivariate two-sample distances: energy distance and MMD.

The per-feature monitor in :mod:`repro.safeml.monitor` can miss shifts
that only show up in the *joint* distribution (correlations rotate while
marginals stay put). These measures close that gap:

* **Energy distance** (Székely & Rizzo) — metric on distributions,
  zero iff equal; based only on pairwise Euclidean distances.
* **Maximum Mean Discrepancy (MMD)** with an RBF kernel — the kernel
  two-sample statistic, with the median-heuristic bandwidth.

Both are O(n²) in the window size, fine for SafeML-scale windows.
"""

from __future__ import annotations

import numpy as np


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between rows of ``a`` and rows of ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def _as_2d(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("samples must be non-empty (n, d) arrays")
    if not np.isfinite(arr).all():
        raise ValueError("samples contain non-finite values")
    return arr


def _binary_exponent(a: np.ndarray, b: np.ndarray) -> int:
    """``e`` with the pooled samples' largest magnitude in ``[2**(e-1), 2**e)``.

    Dividing by ``2**e`` is exact for every normal value, so the
    distances below computed on ``ldexp(x, -e)`` are the unscaled
    distances times ``2**-e`` bit for bit, but squared distances can no
    longer overflow (samples near 1e160) or underflow (near 1e-160).
    """
    return int(np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1])


def _finite(name: str, value: float) -> float:
    """``value``, refusing NaN and inf instead of clamping them to 0.0."""
    if not np.isfinite(value):
        raise ValueError(f"{name} is not finite ({value}) for these samples")
    return value


def energy_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Energy distance between multivariate samples.

    ``E = 2 E|X - Y| - E|X - X'| - E|Y - Y'|``; non-negative, zero iff
    the distributions coincide.
    """
    a = _as_2d(a)
    b = _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share dimensionality")
    # E is homogeneous of degree one: evaluate at unit scale, scale back.
    shift = _binary_exponent(a, b)
    a = np.ldexp(a, -shift)
    b = np.ldexp(b, -shift)
    cross = _pairwise_distances(a, b).mean()
    within_a = _pairwise_distances(a, a).mean()
    within_b = _pairwise_distances(b, b).mean()
    energy = float(np.ldexp(2.0 * cross - within_a - within_b, shift))
    return max(0.0, _finite("energy distance", energy))


def median_heuristic_bandwidth(a: np.ndarray, b: np.ndarray) -> float:
    """RBF bandwidth: median pairwise distance over the pooled sample."""
    a = _as_2d(a)
    b = _as_2d(b)
    shift = _binary_exponent(a, b)
    pooled = np.ldexp(np.vstack([a, b]), -shift)
    distances = _pairwise_distances(pooled, pooled)
    upper = distances[np.triu_indices_from(distances, k=1)]
    median = float(np.ldexp(np.median(upper), shift))
    return median if median > 0.0 else 1.0


def mmd_rbf(a: np.ndarray, b: np.ndarray, bandwidth: float | None = None) -> float:
    """Squared MMD with an RBF kernel (biased V-statistic).

    ``bandwidth`` defaults to the median heuristic.
    """
    a = _as_2d(a)
    b = _as_2d(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError("samples must share dimensionality")
    sigma = bandwidth if bandwidth is not None else median_heuristic_bandwidth(a, b)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {sigma}")
    # The kernel depends on distance / bandwidth only: rescale both by the
    # same power of two so the squared distances stay representable.
    shift = _binary_exponent(a, b)
    a = np.ldexp(a, -shift)
    b = np.ldexp(b, -shift)
    sigma = float(np.ldexp(sigma, -shift))
    gamma = 1.0 / (2.0 * sigma * sigma)

    def kernel_mean(x: np.ndarray, y: np.ndarray) -> float:
        d = _pairwise_distances(x, y)
        return float(np.exp(-gamma * d * d).mean())

    mmd = kernel_mean(a, a) + kernel_mean(b, b) - 2.0 * kernel_mean(a, b)
    return max(0.0, _finite("MMD", mmd))


def multivariate_shift_pvalue(
    a: np.ndarray,
    b: np.ndarray,
    statistic=energy_distance,
    n_permutations: int = 100,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Permutation p-value for a multivariate two-sample statistic."""
    if n_permutations < 1:
        raise ValueError("n_permutations must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    a = _as_2d(a)
    b = _as_2d(b)
    observed = statistic(a, b)
    pooled = np.vstack([a, b])
    n_a = a.shape[0]
    exceed = 0
    for _ in range(n_permutations):
        perm = rng.permutation(pooled.shape[0])
        shuffled = pooled[perm]
        if statistic(shuffled[:n_a], shuffled[n_a:]) >= observed:
            exceed += 1
    return observed, (exceed + 1) / (n_permutations + 1)
