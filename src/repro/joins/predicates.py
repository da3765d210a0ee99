"""Join predicates: when does a set of tuples from m streams match?

The paper does not fix a join condition; its experiments use an
**epsilon-join** over single numeric attributes (all pairwise values within
``epsilon``), its Example 1 a distance-based similarity join over feature
vectors, and its Example 2 a windowed inner-product join over weighted
keywords.  All are *clique* conditions: every pair among the m constituent
tuples must satisfy the pairwise test.

For the NLJ pipeline, a predicate exposes two operations:

* :meth:`probe_context` — compress a partial match (the tuples joined so
  far) into whatever constraint a new candidate must satisfy, and
* :meth:`probe_block` — test a block of candidate values against that
  constraint at once, returning the indices of matches.

Numeric predicates implement :meth:`probe_block` as a vectorized numpy
expression over the basic window's value array; the CPU model charges one
comparison per candidate scanned either way, so vectorization changes
wall-clock speed of the simulation, never its semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

from repro.core.basic_windows import GENERIC, SCALAR, VECTOR


class JoinPredicate(ABC):
    """Pairwise match test plus block-probe machinery."""

    #: preferred basic-window storage mode for this predicate's payloads
    storage_mode: str = GENERIC
    #: vector dimension when ``storage_mode == VECTOR``
    dim: int | None = None
    #: True when ``probe_context(values)`` is exactly the inclusive interval
    #: ``(max(values) - r, min(values) + r)`` for a constant radius ``r``
    #: exposed as :attr:`interval_radius`, and ``probe_block`` is the
    #: corresponding two-comparison range test (empty when ``lo > hi``).
    #: The columnar fast path (:mod:`repro.joins.columnar`) relies on this
    #: contract to track partial-match contexts as running min/max columns.
    interval_context: bool = False

    @abstractmethod
    def matches(self, a: Any, b: Any) -> bool:
        """True if payloads ``a`` and ``b`` satisfy the pairwise condition."""

    @abstractmethod
    def probe_context(self, values: Sequence[Any]) -> Any:
        """Constraint a candidate must satisfy to match *all* of ``values``."""

    @abstractmethod
    def probe_block(self, context: Any, block: Any) -> np.ndarray:
        """Indices (int array) of entries of ``block`` matching ``context``.

        ``block`` is whatever the basic window stores: a numpy array in
        scalar/vector mode, a list of payloads in generic mode.
        """

    def matches_all(self, candidate: Any, values: Sequence[Any]) -> bool:
        """Clique check of one candidate against every partial-match value."""
        return all(self.matches(candidate, v) for v in values)


_EMPTY = np.empty(0, dtype=np.intp)


class EpsilonJoin(JoinPredicate):
    """All pairwise scalar distances within ``epsilon`` (the paper's join).

    The clique condition over scalars reduces to an interval: a candidate
    ``x`` matches partial values ``v_1..v_k`` iff
    ``max(v) - eps <= x <= min(v) + eps``, so a block probe is two
    vectorized comparisons.
    """

    storage_mode = SCALAR
    interval_context = True

    def __init__(self, epsilon: float = 1.0) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        self.epsilon = float(epsilon)

    @property
    def interval_radius(self) -> float:
        """Half-width of the interval context (see ``interval_context``)."""
        return self.epsilon

    def matches(self, a: float, b: float) -> bool:
        # ``a == b`` first: inf - inf is NaN, but the interval context
        # joins an infinity with itself
        return a == b or abs(a - b) <= self.epsilon

    def probe_context(self, values: Sequence[float]) -> tuple[float, float]:
        lo = max(values) - self.epsilon
        hi = min(values) + self.epsilon
        return lo, hi

    def probe_block(
        self, context: tuple[float, float], block: np.ndarray
    ) -> np.ndarray:
        lo, hi = context
        if lo > hi:
            return _EMPTY
        mask = (block >= lo) & (block <= hi)
        return np.flatnonzero(mask)


class EquiJoin(EpsilonJoin):
    """All values equal: an :class:`EpsilonJoin` of radius 0."""

    def __init__(self) -> None:
        super().__init__(0.0)


class BandJoin(JoinPredicate):
    """Pairwise |a - b| within ``[low, high]`` — a generalized band.

    With ``low > 0`` the clique condition no longer collapses to one
    interval, so the block probe unions two vectorized bands per partial
    value and intersects across values.
    """

    storage_mode = SCALAR

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError("need 0 <= low <= high")
        self.low = float(low)
        self.high = float(high)

    def matches(self, a: float, b: float) -> bool:
        return self.low <= abs(a - b) <= self.high

    def probe_context(self, values: Sequence[float]) -> tuple[float, ...]:
        return tuple(values)

    def probe_block(
        self, context: tuple[float, ...], block: np.ndarray
    ) -> np.ndarray:
        mask = np.ones(len(block), dtype=bool)
        for v in context:
            d = np.abs(block - v)
            mask &= (d >= self.low) & (d <= self.high)
        return np.flatnonzero(mask)


class VectorDistanceJoin(JoinPredicate):
    """All pairwise euclidean distances within ``epsilon`` (paper Example 1:
    distance-based similarity join over multi-attribute sensor readings)."""

    storage_mode = VECTOR

    def __init__(self, epsilon: float, dim: int) -> None:
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.epsilon = float(epsilon)
        self.dim = int(dim)

    def matches(self, a, b) -> bool:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.dot(diff, diff)) <= self.epsilon**2

    def probe_context(self, values: Sequence) -> np.ndarray:
        return np.asarray(values, dtype=float).reshape(-1, self.dim)

    def probe_block(self, context: np.ndarray, block: np.ndarray) -> np.ndarray:
        if len(block) == 0:
            return _EMPTY
        # squared distances of every block row to every context row
        diff = block[:, None, :] - context[None, :, :]
        d2 = np.einsum("bcd,bcd->bc", diff, diff)
        mask = (d2 <= self.epsilon**2).all(axis=1)
        return np.flatnonzero(mask)


class InnerProductJoin(JoinPredicate):
    """All pairwise weighted-keyword inner products at least ``threshold``
    (paper Example 2: similar news items across sources).

    Payloads are sparse ``{keyword_id: weight}`` mappings; generic storage.
    """

    storage_mode = GENERIC

    def __init__(self, threshold: float) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = float(threshold)

    def _dot(self, a: dict, b: dict) -> float:
        if len(a) > len(b):
            a, b = b, a
        return sum(w * b[k] for k, w in a.items() if k in b)

    def matches(self, a: dict, b: dict) -> bool:
        return self._dot(a, b) >= self.threshold

    def probe_context(self, values: Sequence[dict]) -> tuple[dict, ...]:
        return tuple(values)

    def probe_block(self, context: tuple[dict, ...], block: list) -> np.ndarray:
        hits = [
            idx
            for idx, candidate in enumerate(block)
            if all(self._dot(candidate, v) >= self.threshold for v in context)
        ]
        return np.asarray(hits, dtype=np.intp)
