"""Optimal bipartite matching between tracks and detections, with gating.

``solve`` returns a maximum-total-similarity matching; ``gated_match`` then
discards matched pairs whose similarity falls below a minimum. No tie rule is
imposed between equally good matchings, but the same matrix always yields the
same matching.

``gated_match`` is the one gated matching of the tracker and of
``metrics.clear_mota``. Its ``MatchResult`` holds the kept pairs as two index
arrays, rows and columns, so the tracker writes its matches back without
building a Python tuple per pair; the tuple forms of the pairs and of the
unmatched rows and columns are built only when read.

Most matrices the tracker and the metrics build are sparse: few entries are
positive, and most of those are alone in their row and column. A
non-negative matrix is therefore reduced before any solver runs:

- **Forced pairs.** A positive entry that is the only nonzero in its row and
  in its column is in every optimal assignment. In an assignment without it,
  its row and its column are unmatched or matched at value 0; trading those
  pairs for the entry, and pairing their two partners (at value >= 0),
  gains the entry's value.
- **Conflict core.** The rows and columns that hold a nonzero outside the
  forced pairs. Every nonzero off the forced pairs lies inside the core, so
  the entries between the core and the other lines are all 0. The forced
  pairs plus an optimal matching of the core, padded with zero-valued pairs,
  are therefore an optimal assignment of the whole matrix.
- An empty core is the one-to-one case: the forced pairs are the answer. A
  core with at most ``_MAX_INJECTIONS`` injections of its smaller side into
  its larger side is solved exactly by trying each of them; the first best
  one in ``itertools.permutations`` order is taken.

Everything else goes whole to scipy's ``linear_sum_assignment``, imported on
first need, so a process whose matchings all reduce never loads scipy: a
larger core, a matrix with a negative entry (the argument above needs every
entry >= 0), and a ``gated_match`` with ``min_sim <= 0``, whose result would
show which zero-valued pairs an optimal assignment holds. Two bounds on the
core, from counts of nonzeros per matrix, row and column, send most large
or dense matrices to scipy before any Python loop runs over their entries.

The reduction reads the nonzeros as Python lists. On the matrices the
tracker builds (about 12 x 5 with a few nonzeros) that is cheaper than array
operations, whose fixed cost per numpy call dominates: an array form of the
one-to-one case (every nonzero alone in its row and column) made ``_reduced``
about a third slower over the matchings of a benchmark ablation round. Only
its kept pairs become arrays, one flat list each for rows and columns. A
scipy matching stays in arrays: its kept values are read with one fancy
index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_MIN_SIMILARITY = 1e-9

# Trying one injection in Python costs about as much as a whole scipy call on
# a small matrix, so the cap is small: four admits 2 x 2 cores and a line that
# meets up to four others. The bounds it implies on a core's nonzeros also
# turn most crowded matrices away on one count of nonzeros; a larger cap
# loosens them enough to let such matrices through to the costlier exact
# check.
_MAX_INJECTIONS = 4
_CORE_SHAPES = [
    (a, b)
    for a in range(1, _MAX_INJECTIONS + 1)
    for b in range(1, _MAX_INJECTIONS + 1)
    if math.perm(max(a, b), min(a, b)) <= _MAX_INJECTIONS
]
# An a x b core holds at most a * b nonzeros, and a + b of them are the first
# in their row or column.
_MAX_CORE_NONZEROS = max(a * b for a, b in _CORE_SHAPES)
_MAX_CORE_EXCESS = max(2 * a * b - a - b for a, b in _CORE_SHAPES)


@dataclass(frozen=True, eq=False)
class MatchResult:
    """A gated matching of a ``shape`` matrix: the kept pairs as ``rows`` and
    ``cols`` int arrays, sorted by row.

    ``pairs``, ``unmatched_rows`` and ``unmatched_cols`` are the same
    matching as tuples of ints, built from the arrays each time they are
    read: the kept (row, col) pairs, and the rows and the columns in no kept
    pair, ascending.
    """

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist()))

    @property
    def unmatched_rows(self) -> tuple[int, ...]:
        return _unused(self.rows, self.shape[0])

    @property
    def unmatched_cols(self) -> tuple[int, ...]:
        return _unused(self.cols, self.shape[1])


def _unused(used: np.ndarray, n: int) -> tuple[int, ...]:
    """The indices in range(n) missing from ``used``, ascending."""
    if len(used) == n:
        return ()
    used = set(used.tolist())
    return tuple([i for i in range(n) if i not in used])


def _matrix(sim) -> np.ndarray:
    m = np.asarray(sim, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"similarity matrix must be 2-dimensional, got shape {m.shape}")
    return m


def _require_finite(finite: bool) -> None:
    if not finite:
        raise ValueError("similarity matrix contains non-finite values")


def _linear_sum_assignment(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _require_finite(np.isfinite(m).all())
    import scipy.optimize

    return scipy.optimize.linear_sum_assignment(m, maximize=True)


def _reduced(m: np.ndarray) -> list[tuple[int, int, float]] | None:
    """The forced pairs and the enumerated core's pairs of an optimal
    assignment of a nonempty ``m``, as (row, column, value) triples in row
    order; None when ``m`` has a negative entry or too large a core."""
    n = np.count_nonzero(m)
    # A nonempty core holds a line of the shorter side, so at most
    # min(m.shape) - 1 nonzeros are forced pairs and the rest lie in the core.
    if n - min(m.shape) + 1 > _MAX_CORE_NONZEROS:
        return None
    r, c = m.nonzero()
    rows, cols = r.tolist(), c.tolist()
    hit_rows, hit_cols = len(set(rows)), len(set(cols))
    excess = 2 * n - hit_rows - hit_cols
    # Nonzeros past the first in their row or column are all in the core.
    if excess > _MAX_CORE_EXCESS:
        return None
    values = [m.item(i, j) for i, j in zip(rows, cols)]
    # Zeros are finite, so these are the only entries left to check.
    _require_finite(all(map(math.isfinite, values)))
    if values and min(values) < 0:
        return None
    if not excess:
        return list(zip(rows, cols, values))
    # Rows come sorted from nonzero(), so a row's repeats are adjacent.
    shared_rows = {i for i, k in zip(rows, rows[1:]) if i == k}
    sorted_cols = sorted(cols)
    shared_cols = {j for j, k in zip(sorted_cols, sorted_cols[1:]) if j == k}
    triples, core = [], {}
    for i, j, v in zip(rows, cols, values):
        if i in shared_rows or j in shared_cols:
            core[i, j] = v
        else:
            triples.append((i, j, v))
    core_rows = sorted({i for i, _ in core})
    core_cols = sorted({j for _, j in core})
    short, long = sorted((len(core_rows), len(core_cols)))
    if math.perm(long, short) > _MAX_INJECTIONS:
        return None
    if len(core_rows) <= len(core_cols):
        options = (tuple(zip(core_rows, p)) for p in itertools.permutations(core_cols, short))
    else:
        options = (tuple(zip(p, core_cols)) for p in itertools.permutations(core_rows, short))
    best = max(options, key=lambda pairs: math.fsum([core.get(pair, 0.0) for pair in pairs]))
    triples += [(i, j, core.get((i, j), 0.0)) for i, j in best]
    triples.sort()
    return triples


def solve(sim) -> list[tuple[int, int]]:
    """Return a maximum-total-similarity matching of size min(rows, cols).

    Pairs are sorted by row. Which of several equally good matchings is
    returned is not specified, but the same matrix always gives the same
    matching. An empty matrix yields an empty matching.
    """
    m = _matrix(sim)
    if m.size == 0:
        return []
    triples = _reduced(m)
    if triples is None:
        r, c = _linear_sum_assignment(m)
        return list(zip(r.tolist(), c.tolist()))
    pairs = [(i, j) for i, j, _ in triples]
    if len(pairs) < min(m.shape):
        # Every entry off the forced pairs and the core is 0: pad with such pairs.
        used_rows = {i for i, _ in pairs}
        used_cols = {j for _, j in pairs}
        free_rows = (i for i in range(m.shape[0]) if i not in used_rows)
        free_cols = (j for j in range(m.shape[1]) if j not in used_cols)
        pairs = sorted(pairs + list(zip(free_rows, free_cols)))
    return pairs


def gated_match(sim, min_sim: float = DEFAULT_MIN_SIMILARITY) -> MatchResult:
    """Solve, then drop assigned pairs with similarity below ``min_sim``."""
    m = _matrix(sim)
    min_sim = float(min_sim)
    if not math.isfinite(min_sim):
        raise ValueError(f"min_sim must be finite, got {min_sim!r}")
    if m.size == 0:
        none = np.zeros(0, dtype=np.intp)
        return MatchResult(none, none, m.shape)
    # A positive gate drops every zero-valued pair, so the reduction may omit them.
    triples = _reduced(m) if min_sim > 0 else None
    if triples is None:
        r, c = _linear_sum_assignment(m)
        keep = m[r, c] >= min_sim
        return MatchResult(r[keep], c[keep], m.shape)
    rows = np.array([i for i, _, v in triples if v >= min_sim], dtype=np.intp)
    cols = np.array([j for _, j, v in triples if v >= min_sim], dtype=np.intp)
    return MatchResult(rows, cols, m.shape)
