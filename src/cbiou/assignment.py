"""Optimal bipartite matching between tracks and detections, with gating.

``solve`` maximizes total similarity with one call to scipy's
linear_sum_assignment. No tie rule is imposed between equally good
matchings: scipy is deterministic, so the same matrix always yields the same
matching. ``gated_match`` then discards matched pairs whose similarity falls
below a minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

DEFAULT_MIN_SIMILARITY = 1e-9


@dataclass(frozen=True)
class MatchResult:
    """A gated matching: kept pairs plus leftover row/col indices."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]


def _validate(sim) -> np.ndarray:
    m = np.asarray(sim, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-dimensional, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("similarity matrix contains non-finite values")
    return m


def solve(sim) -> list[tuple[int, int]]:
    """Return a maximum-total-similarity matching of size min(rows, cols).

    Pairs are sorted by row. Which of several equally good matchings is
    returned is not specified, but the same matrix always gives the same
    matching. An empty matrix yields an empty matching.
    """
    m = _validate(sim)
    if m.size == 0:
        return []
    ri, ci = linear_sum_assignment(m, maximize=True)
    return list(zip(ri.tolist(), ci.tolist()))


def gated_match(sim, min_sim: float = DEFAULT_MIN_SIMILARITY) -> MatchResult:
    """Solve, then drop assigned pairs with similarity below ``min_sim``."""
    m = _validate(sim)
    min_sim = float(min_sim)
    if not math.isfinite(min_sim):
        raise ValueError(f"min_sim must be finite, got {min_sim!r}")
    pairs = [(r, c) for r, c in solve(m) if m[r, c] >= min_sim]
    used_rows = {r for r, _ in pairs}
    used_cols = {c for _, c in pairs}
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_rows=tuple(r for r in range(m.shape[0]) if r not in used_rows),
        unmatched_cols=tuple(c for c in range(m.shape[1]) if c not in used_cols),
    )
