"""Continuous-time Markov chain engine for reliability models.

SafeDrones expresses component degradation as CTMCs whose absorbing states
are failures. This module provides the generic machinery: generator-matrix
validation, transient probability via the matrix exponential, absorbing
failure probability, and mean time to failure via the fundamental matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

#: ``np.isclose(total, 1.0, atol=1e-9)`` as one scalar bound (atol + rtol).
_P0_SUM_TOL = 1e-9 + 1e-5


class MarkovModelError(ValueError):
    """Raised when a chain definition is structurally invalid."""


def _all_within(x, lo: float, hi: float) -> bool:
    """Whether every entry of NumPy ``x`` lies in [lo, hi]; NaN never does.
    A scalar is compared as a Python float, with no array reduction."""
    if x.ndim == 0:
        return lo <= float(x) <= hi
    return bool(((lo <= x) & (x <= hi)).all())


def _check_factor(factor: np.ndarray) -> None:
    """Refuse a negative, NaN or infinite rate factor (scalar or per row)."""
    if not _all_within(factor, 0.0, sys.float_info.max):
        raise MarkovModelError("rate factor must be finite and non-negative")


@dataclass(frozen=True)
class ContinuousMarkovChain:
    """A CTMC over named states with generator matrix ``q``.

    ``q[i, j]`` (i != j) is the transition rate from state i to state j in
    events per second; diagonal entries are set so each row sums to zero.
    ``absorbing`` names the failure states.

    The generator is validated once, here; afterwards ``q`` is a read-only
    private copy and the chain is frozen, so anything derived from it
    (the start-state failure memo) stays valid for the chain's lifetime.
    """

    states: list[str]
    q: np.ndarray
    absorbing: frozenset[str] = field(default_factory=frozenset)
    _off: np.ndarray = field(init=False, repr=False, compare=False)
    _diag: np.ndarray = field(init=False, repr=False, compare=False)
    _pof_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        n = len(self.states)
        if q.shape != (n, n):
            raise MarkovModelError(
                f"generator is {q.shape}, expected ({n}, {n})"
            )
        if len(set(self.states)) != n:
            raise MarkovModelError("state names must be unique")
        if (q - np.diag(np.diag(q)) < -1e-12).any():
            raise MarkovModelError("off-diagonal rates must be non-negative")
        # Normalise the diagonal so rows sum to zero exactly.
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        np.fill_diagonal(q, -off.sum(axis=1))
        unknown = self.absorbing - set(self.states)
        if unknown:
            raise MarkovModelError(f"unknown absorbing states: {sorted(unknown)}")
        for name in self.absorbing:
            i = self.index(name)
            if np.abs(q[i]).max() > 1e-12:
                raise MarkovModelError(f"absorbing state {name!r} has outgoing rate")
        q.flags.writeable = False
        off.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_off", off)
        object.__setattr__(self, "_diag", np.arange(n))
        object.__setattr__(self, "_pof_memo", {})

    def index(self, state: str) -> int:
        """Index of a state name."""
        return self.states.index(state)

    def transient(self, p0: np.ndarray, t: float, factor=1.0) -> np.ndarray:
        """State distribution after ``t`` seconds from ``p0``, every rate times ``factor``.

        ``p0`` is one distribution (k,) or a stack of rows (n, k) with one
        ``factor`` per row. Each row is bit-identical to
        ``scaled(factor[i]).transient(p0[i], t)``: the scaled diagonal is
        rebuilt as ``__post_init__`` does, without building a chain. One
        row is a plain 2-D ``expm``; a stack is one stacked ``expm``.
        """
        p0 = np.asarray(p0, dtype=float)
        k = len(self.states)
        if p0.shape[-1:] != (k,):
            raise MarkovModelError("p0 has wrong length")
        # The positive form is False for NaN, so NaN mass is refused.
        if not _all_within(p0.sum(axis=-1) - 1.0, -_P0_SUM_TOL, _P0_SUM_TOL):
            raise MarkovModelError("p0 must sum to 1")
        if not 0.0 <= t < math.inf:
            raise MarkovModelError("t must be finite and non-negative")
        factor = np.asarray(factor, dtype=float)
        if factor.shape != p0.shape[:-1]:
            raise MarkovModelError("factor must hold one entry per p0 row")
        _check_factor(factor)
        q = self._off * factor[..., None, None]
        q[..., self._diag, self._diag] = -q.sum(axis=-1)
        pt = (p0[..., None, :] @ expm(q * t))[..., 0, :]
        # expm loses precision on nearly-defective generators (two stage
        # rates almost equal -> near-Jordan structure). The result must
        # still be a distribution: clip tiny negatives and renormalise,
        # refusing only genuinely broken results.
        pt = np.maximum(pt, 0.0)
        total = pt.sum(axis=-1)
        if not _all_within(total, 0.97, 1.03):
            raise MarkovModelError(f"transient solve lost normalisation (sum={total})")
        return pt / total[..., None]

    def transient_from(self, state: str, t: float) -> np.ndarray:
        """State distribution after ``t`` seconds starting surely in ``state``."""
        p0 = np.zeros(len(self.states))
        p0[self.index(state)] = 1.0
        return self.transient(p0, t)

    def failure_probability(self, p0: np.ndarray, t: float) -> float:
        """Total probability mass in absorbing states after ``t`` seconds."""
        pt = self.transient(p0, t)
        return float(sum(pt[self.index(s)] for s in self.absorbing))

    def failure_probability_from(self, state: str, t: float) -> float:
        """Failure probability after ``t`` seconds starting surely in ``state``.

        Memoized per ``(state, t)`` on the chain, so the memo holds at most
        one value per state and horizon used. The chain is immutable and the
        solve deterministic: a hit returns the bits a fresh solve would.
        """
        key = (state, t)
        pof = self._pof_memo.get(key)
        if pof is None:
            p0 = np.zeros(len(self.states))
            p0[self.index(state)] = 1.0
            pof = self.failure_probability(p0, t)
            self._pof_memo[key] = pof
        return pof

    def reliability(self, p0: np.ndarray, t: float) -> float:
        """1 - failure probability at time ``t``."""
        return 1.0 - self.failure_probability(p0, t)

    def mttf(self, start: str) -> float:
        """Mean time to absorption starting from ``start``.

        Uses the fundamental matrix of the transient sub-generator:
        ``MTTF = -1 * (Q_tt^{-1} @ 1)`` restricted to transient states.
        """
        transient_idx = [i for i, s in enumerate(self.states) if s not in self.absorbing]
        if self.index(start) not in transient_idx:
            return 0.0
        q_tt = self.q[np.ix_(transient_idx, transient_idx)]
        ones = np.ones(len(transient_idx))
        times = np.linalg.solve(q_tt, -ones)
        return float(times[transient_idx.index(self.index(start))])

    def scaled(self, factor: float) -> "ContinuousMarkovChain":
        """A copy of this chain with all rates multiplied by ``factor``.

        Used for stress acceleration: e.g. thermal stress multiplies battery
        degradation rates by an Arrhenius factor. To integrate under a
        factor without building a chain, pass it to :meth:`transient`.
        """
        _check_factor(np.asarray(factor, dtype=float))
        return ContinuousMarkovChain(
            states=list(self.states), q=self.q * factor, absorbing=self.absorbing
        )


def series_reliability(reliabilities: list[float]) -> float:
    """Reliability of independent components in series (all must survive)."""
    out = 1.0
    for r in reliabilities:
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"reliability out of range: {r}")
        out *= min(r, 1.0)
    return out


def parallel_reliability(reliabilities: list[float]) -> float:
    """Reliability of independent components in parallel (any may survive)."""
    out = 1.0
    for r in reliabilities:
        if not 0.0 <= r <= 1.0 + 1e-12:
            raise ValueError(f"reliability out of range: {r}")
        out *= 1.0 - min(r, 1.0)
    return 1.0 - out
