import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from cbiou import assignment
from cbiou.assignment import gated_match, solve


def brute_force_best(m: np.ndarray) -> float:
    """Maximum total over every injection of the smaller side into the larger."""
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        return 0.0
    if rows <= cols:
        return max(
            math.fsum(m[r, c] for r, c in enumerate(perm))
            for perm in itertools.permutations(range(cols), rows)
        )
    return max(
        math.fsum(m[r, c] for c, r in enumerate(perm))
        for perm in itertools.permutations(range(rows), cols)
    )


def total(m: np.ndarray, pairs) -> float:
    return math.fsum(m[r, c] for r, c in pairs)


class TestSolve:
    def test_single_cell(self):
        assert solve([[0.7]]) == [(0, 0)]

    def test_two_by_two(self):
        m = np.array([[0.9, 0.1], [0.2, 0.8]])
        pairs = solve(m)
        assert pairs == [(0, 0), (1, 1)]
        assert total(m, pairs) == pytest.approx(1.7)

    def test_wide_matrix(self):
        m = np.array([[0.1, 0.9, 0.2], [0.8, 0.3, 0.1]])
        pairs = solve(m)
        assert pairs == [(0, 1), (1, 0)]
        assert total(m, pairs) == pytest.approx(1.7)

    def test_empty(self):
        assert solve(np.zeros((0, 3))) == []
        assert solve(np.zeros((2, 0))) == []

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve([[float("nan")]])
        with pytest.raises(ValueError):
            solve([[1.0, float("inf")]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            solve([1.0, 2.0])

    # No tie rule is promised: any optimal full matching is valid, but the same
    # matrix must always give the same one. The two tie tests keep the names
    # they had when solve returned the lexicographically smallest matching.
    @staticmethod
    def assert_optimal_repeatable(m):
        pairs = solve(m)
        assert len(pairs) == min(m.shape)
        assert len({r for r, _ in pairs}) == len(pairs)
        assert len({c for _, c in pairs}) == len(pairs)
        assert total(m, pairs) == brute_force_best(m)
        assert solve(m.copy()) == pairs

    def test_tie_breaking_is_lexicographic(self):
        # every matching of an all-equal matrix is optimal
        for m in (np.zeros((2, 2)), np.ones((3, 3)), np.zeros((2, 4)), np.zeros((4, 2))):
            self.assert_optimal_repeatable(m)
        # ties only between the first row's options
        self.assert_optimal_repeatable(np.array([[0.5, 0.5, 0.1], [0.4, 0.4, 0.4]]))

    def test_tie_breaking_prefers_matching_early_rows(self):
        # rows exceed cols; some row must still be matched
        self.assert_optimal_repeatable(np.array([[0.5], [0.5], [0.5]]))

    def test_optimality_small_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = rng.uniform(-1, 1, size=(rows, cols))
            assert total(m, solve(m)) == brute_force_best(m)

    def test_optimality_with_duplicate_values(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            m = rng.choice([0.0, 0.25, 0.5, 1.0], size=(rows, cols))
            assert total(m, solve(m)) == brute_force_best(m)

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(min_value=-1, max_value=1, allow_nan=False),
        )
    )
    @settings(max_examples=60)
    def test_optimality_property(self, m):
        assert total(m, solve(m)) == brute_force_best(m)

    def test_determinism(self):
        rng = np.random.default_rng(8)
        m = rng.uniform(size=(6, 6))
        assert solve(m) == solve(m.copy())

    def test_permutation_covariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = rng.uniform(size=(5, 5))  # distinct values, unique optimum a.s.
            perm = rng.permutation(5)
            permuted = m[perm]
            base = dict(solve(m))
            moved = dict(solve(permuted))
            assert moved == {int(np.where(perm == r)[0][0]): c for r, c in base.items()}


class TestGatedMatch:
    def test_zero_similarity_never_matches(self):
        res = gated_match([[0.0]], 1e-9)
        assert res.pairs == ()
        assert res.unmatched_rows == (0,)
        assert res.unmatched_cols == (0,)

    def test_all_pairs_pass(self):
        res = gated_match([[0.9, 0.1], [0.2, 0.8]], 0.5)
        assert res.pairs == ((0, 0), (1, 1))
        assert res.unmatched_rows == ()
        assert res.unmatched_cols == ()

    def test_subgate_pair_dropped(self):
        res = gated_match([[0.9, 0.1], [0.2, 0.3]], 0.5)
        assert res.pairs == ((0, 0),)
        assert res.unmatched_rows == (1,)
        assert res.unmatched_cols == (1,)

    def test_rejects_nonfinite_gate(self):
        with pytest.raises(ValueError):
            gated_match([[0.5]], float("nan"))

    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        ),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60)
    def test_partition_invariants(self, m, gate):
        res = gated_match(m, gate)
        rows = sorted([r for r, _ in res.pairs] + list(res.unmatched_rows))
        cols = sorted([c for _, c in res.pairs] + list(res.unmatched_cols))
        assert rows == list(range(m.shape[0]))
        assert cols == list(range(m.shape[1]))
        for r, c in res.pairs:
            assert m[r, c] >= gate

    def test_default_gate(self):
        assert assignment.DEFAULT_MIN_SIMILARITY == 1e-9
        res = gated_match(np.zeros((3, 3)))
        assert res.pairs == ()


def test_one_scipy_call_per_matching(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    m = np.random.default_rng(30).uniform(size=(30, 30))
    assert len(solve(m)) == 30
    assert len(calls) == 1
    calls.clear()
    assert len(gated_match(m).pairs) == 30
    assert len(calls) == 1
