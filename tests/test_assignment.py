import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
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


def tuple_gated_match(m: np.ndarray, min_sim: float):
    """``gated_match`` as (pairs, unmatched rows, unmatched columns) tuples,
    from the matching of ``solve`` under a positive gate (the zero-valued
    pairs it may add fall below the gate) or of one scipy call otherwise,
    filtered by the gate."""
    n_rows, n_cols = m.shape
    if m.size and not np.isfinite(m).all():
        raise ValueError("similarity matrix contains non-finite values")
    if not m.size:
        matched = []
    elif min_sim > 0:
        matched = solve(m)
    else:
        matched = zip(*(index.tolist() for index in linear_sum_assignment(m, maximize=True)))
    pairs = tuple((i, j) for i, j in matched if m[i, j] >= min_sim)
    return (
        pairs,
        tuple(i for i in range(n_rows) if i not in {i for i, _ in pairs}),
        tuple(j for j in range(n_cols) if j not in {j for _, j in pairs}),
    )


@st.composite
def gated_inputs(draw):
    """A matrix of up to 6 x 6, empty shapes included, with zeros, negative
    entries and all-zero rows, and a gate, zero and negative ones included."""
    m = draw(
        arrays(
            float,
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.5, 0.25, 0.5]), st.floats(min_value=-1, max_value=1, allow_nan=False)
            ),
        )
    )
    m[draw(st.lists(st.integers(0, max(len(m) - 1, 0)), max_size=len(m)))] = 0.0
    gate = draw(st.one_of(st.sampled_from([-0.5, -1e-9, 0.0, 1e-9, 0.3]), st.floats(min_value=-1, max_value=1)))
    return m, gate


class TestArrayResult:
    """``MatchResult`` holds the kept pairs as index arrays; its tuple fields
    equal the tuple form of the matching."""

    @given(gated_inputs())
    @settings(max_examples=400)
    def test_fields_equal_the_tuple_form(self, case):
        m, gate = case
        res = gated_match(m, gate)
        assert (res.pairs, res.unmatched_rows, res.unmatched_cols) == tuple_gated_match(m, gate)
        assert res.rows.dtype.kind == res.cols.dtype.kind == "i"
        assert list(zip(res.rows.tolist(), res.cols.tolist())) == list(res.pairs)
        assert res.rows.tolist() == sorted(res.rows.tolist())

    @given(gated_inputs(), st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.data())
    @settings(max_examples=100)
    def test_same_error_on_nonfinite_entries(self, case, bad, data):
        m, gate = case
        if not m.size:
            return
        m[data.draw(st.integers(0, m.shape[0] - 1)), data.draw(st.integers(0, m.shape[1] - 1))] = bad
        with pytest.raises(ValueError) as expected:
            tuple_gated_match(m, gate)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            gated_match(m, gate)


def test_one_scipy_call_per_matching(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    m = np.random.default_rng(30).uniform(size=(30, 30))
    assert len(solve(m)) == 30
    assert len(calls) == 1
    calls.clear()
    assert len(gated_match(m).pairs) == 30
    assert len(calls) == 1


def sparse_matrix(seed: int, rows: int, cols: int, density: float, levels=None) -> np.ndarray:
    """Entries are 0 except where a seeded draw falls below ``density``; the
    others are uniform on (0.01, 1), or drawn from ``levels`` when given."""
    rng = np.random.default_rng(seed)
    if levels is None:
        values = rng.uniform(0.01, 1.0, size=(rows, cols))
    else:
        values = rng.choice(levels, size=(rows, cols))
    return np.where(rng.random((rows, cols)) < density, values, 0.0)


class TestReduction:
    """Forced pairs, enumerated cores and the scipy fallback must all agree
    with one whole-matrix solve."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.integers(1, 8),
        st.floats(0.05, 0.7),
        st.floats(1e-9, 1.0),
    )
    @settings(max_examples=400)
    def test_gated_pairs_equal_whole_matrix_solve(self, seed, rows, cols, density, gate):
        # Continuous values: the optimum's positive pairs are unique.
        m = sparse_matrix(seed, rows, cols, density)
        ri, ci = linear_sum_assignment(m, maximize=True)
        expected = tuple((r, c) for r, c in zip(ri.tolist(), ci.tolist()) if m[r, c] >= gate)
        res = gated_match(m, gate)
        assert res.pairs == expected
        assert res.unmatched_rows == tuple(r for r in range(rows) if r not in {p[0] for p in expected})
        assert res.unmatched_cols == tuple(c for c in range(cols) if c not in {p[1] for p in expected})

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 5), st.floats(0.1, 0.8))
    @settings(max_examples=300)
    def test_totals_with_duplicate_values(self, seed, rows, cols, density):
        m = sparse_matrix(seed, rows, cols, density, levels=(0.25, 0.5, 1.0))
        pairs = solve(m)
        assert len(pairs) == min(m.shape)
        assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
        assert pairs == sorted(pairs)
        assert total(m, pairs) == brute_force_best(m)
        # the default gate only drops zero-valued pairs
        assert total(m, gated_match(m).pairs) == brute_force_best(m)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8), st.floats(0.05, 0.7))
    @settings(max_examples=300)
    def test_scipy_only_past_the_cap(self, seed, rows, cols, density):
        # The cheap bounds may send a matrix to scipy only when its core is
        # really past the cap; the core is recomputed here from its definition.
        m = sparse_matrix(seed, rows, cols, density)
        nonzero = m != 0
        alone = (nonzero.sum(1)[:, None] == 1) & (nonzero.sum(0)[None, :] == 1)
        core = nonzero & ~alone
        a, b = sorted((int(core.any(1).sum()), int(core.any(0).sum())))
        with mock.patch.object(
            scipy.optimize, "linear_sum_assignment", wraps=linear_sum_assignment
        ) as spy:
            gated_match(m)
        assert spy.call_count == int(math.perm(b, a) > assignment._MAX_INJECTIONS)

    def test_forced_pairs_and_a_core(self):
        # (0, 0) and (3, 3) are forced; rows 1-2 and columns 1-2 form the core
        m = np.array(
            [
                [0.9, 0.0, 0.0, 0.0],
                [0.0, 0.6, 0.5, 0.0],
                [0.0, 0.4, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.2],
            ]
        )
        assert solve(m) == [(0, 0), (1, 2), (2, 1), (3, 3)]
        assert gated_match(m, 0.45).pairs == ((0, 0), (1, 2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("route", ["reduced", "dense", "negative", "zero_gate"])
    def test_rejects_nonfinite_on_every_route(self, route, bad):
        m = np.full((5, 5), 0.5) if route == "dense" else np.eye(3)
        if route == "negative":
            m[0, 1] = -0.5
        m[2, 2] = bad
        gate = 0.0 if route == "zero_gate" else 1e-9
        with pytest.raises(ValueError, match="non-finite"):
            gated_match(m, gate)
        with pytest.raises(ValueError, match="non-finite"):
            solve(m)

    def test_solve_pads_with_zero_valued_pairs(self):
        m = np.zeros((3, 4))
        m[1, 2] = 0.7
        pairs = solve(m)
        assert (1, 2) in pairs
        assert len(pairs) == 3
        assert len({c for _, c in pairs}) == 3
        assert total(m, pairs) == 0.7


@pytest.fixture
def scipy_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linear_sum_assignment(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    return calls


class TestScipyCalls:
    def test_one_to_one_and_small_cores_need_no_solver(self, scipy_calls):
        one_to_one = np.array([[0.0, 0.8, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
        # a forced pair beside a 1 x 4 core: as many nonzeros as the bounds allow
        one_by_four = np.array([[0.2, 0.9, 0.4, 0.1, 0.0], [0.0, 0.0, 0.0, 0.0, 0.7]])
        two_by_two = np.array([[0.5, 0.4, 0.0], [0.6, 0.1, 0.0], [0.0, 0.0, 0.3]])
        for m in (one_to_one, one_by_four, two_by_two, np.zeros((2, 2))):
            solve(m)
            gated_match(m)
        assert scipy_calls == []

    @pytest.mark.parametrize(
        "m",
        [
            np.random.default_rng(31).uniform(0.1, 1.0, size=(4, 4)),
            # four nonzeros in a 2 x 3 chain: 3 * 2 injections
            np.array([[0.5, 0.4, 0.0], [0.0, 0.3, 0.6]]),
        ],
        ids=["dense", "chain"],
    )
    def test_core_past_the_cap(self, scipy_calls, m):
        assert len(gated_match(m).pairs) == min(m.shape)
        assert len(scipy_calls) == 1
        assert len(solve(m)) == min(m.shape)
        assert len(scipy_calls) == 2

    def test_negative_entry(self, scipy_calls):
        m = np.array([[0.5, 0.0], [0.0, -0.2]])
        assert gated_match(m).pairs == ((0, 0),)
        assert len(scipy_calls) == 1
        assert solve(m) == [(0, 0), (1, 1)]
        assert len(scipy_calls) == 2

    @pytest.mark.parametrize("gate", [0.0, -0.5])
    def test_nonpositive_gate(self, scipy_calls, gate):
        m = np.array([[0.5, 0.0], [0.0, 0.0]])
        assert gated_match(m, gate).pairs == ((0, 0), (1, 1))
        assert len(scipy_calls) == 1
