import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbiou.geometry import BoundingBox
from cbiou.motion import average_velocity, predict
from cbiou.tracker import CBiouTracker, Detection, TrackerConfig

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
velocities = st.tuples(finite, finite, finite, finite)

ZERO = np.zeros((1, 4))


def corner(x1=0.0, y1=0.0, x2=10.0, y2=10.0) -> np.ndarray:
    return np.array([[x1, y1, x2, y2]], dtype=float)


def window(entries, n_max=5) -> np.ndarray:
    """One track's (1, n_max + 1, 5) history: (frame, corner row) entries,
    oldest first, padded at the front with the oldest entry."""
    rows = [[frame, *box[0]] for frame, box in entries][-(n_max + 1) :]
    rows = [rows[0]] * (n_max + 1 - len(rows)) + rows
    return np.array([rows], dtype=float)


def det(x, w=10.0) -> Detection:
    return Detection(BoundingBox(x, 0, w, 10), 1.0)


def scalar_predict(state, velocity, delta):
    """Per-track reference for ``predict``: the same arithmetic on floats,
    re-centring a collapsed extent after each frame; also whether one did."""
    x1, y1, x2, y2 = state
    collapsed = False
    for _ in range(delta):
        x1, y1, x2, y2 = x1 + velocity[0], y1 + velocity[1], x2 + velocity[2], y2 + velocity[3]
        if x2 - x1 <= 0:
            cx = (x1 + x2) / 2.0
            x1, x2, collapsed = cx - 0.5, cx + 0.5, True
        if y2 - y1 <= 0:
            cy = (y1 + y2) / 2.0
            y1, y2, collapsed = cy - 0.5, cy + 0.5, True
    return [x1, y1, x2, y2], collapsed


class TestMotionHistory:
    """The window of a track's last n_max + 1 matches, kept by the tracker."""

    def test_eviction_respects_capacity(self):
        # a jump at frames 1-2 leaves the window once n_max = 3 later deltas exist
        tracker = CBiouTracker(TrackerConfig(n_max=3, max_age=5))
        xs = [0.0, 8.0, 10.0, 12.0, 14.0, 16.0]
        for f, x in enumerate(xs, start=1):
            tracker.step(f, [det(x)])
            assert tracker.tracks[0][0] == 1
        tracker.step(len(xs) + 1, [])
        assert tracker.tracks[0][1][0] == 18.0

    def test_frames_must_increase(self):
        tracker = CBiouTracker()
        tracker.step(3, [det(0)])
        before = tracker.tracks
        with pytest.raises(ValueError):
            tracker.step(3, [det(5)])
        with pytest.raises(ValueError):
            tracker.step(2, [det(5)])
        assert tracker.tracks == before

    def test_rejects_bad_capacity(self):
        # a velocity needs a window of at least two matches
        for n_max in (0, 1, 2.5):
            with pytest.raises(ValueError):
                TrackerConfig(n_max=n_max)


class TestAverageVelocity:
    def test_single_entry_has_no_estimate(self):
        hist = window([(1, corner())])
        assert np.array_equal(average_velocity(hist), ZERO)

    def test_one_delta(self):
        hist = window([(1, corner(0, 0, 10, 10)), (2, corner(5, 0, 15, 10))])
        assert np.array_equal(average_velocity(hist), [[5, 0, 5, 0]])

    def test_mean_of_uneven_deltas(self):
        hist = window(
            [(1, corner(0, 0, 10, 10)), (2, corner(2, 0, 12, 10)), (3, corner(6, 0, 16, 10))]
        )
        assert average_velocity(hist)[0, 0] == pytest.approx(3.0, abs=1e-12)

    def test_gap_normalization(self):
        # displacement 12 over a 4-frame span is 3 px/frame
        hist = window([(1, corner(0, 0, 10, 10)), (5, corner(12, 0, 22, 10))])
        assert np.array_equal(average_velocity(hist), [[3, 0, 3, 0]])

    def test_matches_consecutive_delta_mean_oracle(self):
        # 200 tracks with windows of 2 to 6 entries, estimated in one call
        rng = np.random.default_rng(3)
        hists, oracles = [], []
        for _ in range(200):
            k = int(rng.integers(2, 7))
            xs = rng.uniform(-100, 100, size=k)
            hists.append(window([(i + 1, corner(xs[i], 0, xs[i] + 10, 10)) for i in range(k)], 6))
            deltas = [xs[i + 1] - xs[i] for i in range(k - 1)]
            oracles.append(sum(deltas) / len(deltas))
        velocity = average_velocity(np.concatenate(hists))
        assert velocity[:, 0] == pytest.approx(oracles, abs=1e-12)


class TestPredict:
    def test_zero_velocity_is_identity(self):
        state = corner(1.5, 2.5, 11.5, 12.5)
        out, degenerate = predict(state, ZERO, 3)
        assert np.array_equal(out, state)
        assert not degenerate.any()

    def test_componentwise_addition(self):
        out, _ = predict(corner(0, 0, 10, 10), np.array([[5.0, 0, 5, 0]]), 2)
        assert np.array_equal(out, corner(10, 0, 20, 10))

    def test_uniform_translation_preserves_shape(self):
        out, _ = predict(corner(0, 0, 10, 10), np.ones((1, 4)), 1)
        assert np.array_equal(out, corner(1, 1, 11, 11))

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            predict(corner(), ZERO, 0)
        with pytest.raises(ValueError):
            predict(corner(), ZERO, -2)

    def test_rejects_nonfinite_prediction(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            predict(corner(0, 0, 1e308, 10), np.array([[0.0, 0, 1e308, 0]]), 1)

    def test_collapse_is_clamped_and_flagged(self):
        # the first track's corners cross after two frames of shrinking; the
        # second keeps its shape
        states = np.vstack((corner(0, 0, 4, 10), corner(0, 0, 10, 10)))
        out, degenerate = predict(states, np.array([[2.0, 0, -2, 0], [1, 1, 1, 1]]), 2)
        assert degenerate.tolist() == [True, False]
        assert out[0, 2] - out[0, 0] == 1.0
        assert (out[0, 0] + out[0, 2]) / 2 == pytest.approx(2.0)
        assert (out[0, 1], out[0, 3]) == (0, 10)
        assert np.array_equal(out[1], [2, 2, 12, 12])

    def test_collapse_inside_the_step_is_recentred_in_its_frame(self):
        # x2 reaches x1 in frame 3 and is re-centred to [-0.5, 0.5]; frame 4
        # leaves it 0.5 wide, so the step ends non-degenerate but is flagged
        out, degenerate = predict(corner(0, 0, 1.5, 10), np.array([[0.0, 0, -0.5, 0]]), 4)
        assert out.tolist() == [[-0.5, 0, 0, 10]]
        assert degenerate.tolist() == [True]

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(8)
        states = rng.uniform(-100, 100, size=(300, 4))
        states[:, 2:] = states[:, :2] + rng.uniform(0.5, 30, size=(300, 2))
        velocity = rng.normal(0, 5, size=(300, 4))
        for delta in (1, 2, 7):
            out, degenerate = predict(states, velocity, delta)
            expected = [scalar_predict(s, v, delta) for s, v in zip(states.tolist(), velocity.tolist())]
            assert out.tolist() == [state for state, _ in expected]
            assert degenerate.tolist() == [collapsed for _, collapsed in expected]
            assert 0 < degenerate.sum() < len(states)

    @given(velocities, st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
    def test_composition_is_exact(self, v, a, b):
        # degenerate states included: a collapse is re-centred in the frame it happens
        state = corner(-3.7, 2.9, 40.1, 55.3)
        v = np.array([v])
        full, deg_full = predict(state, v, a + b)
        mid, deg_mid = predict(state, v, a)
        stepped, deg_stepped = predict(mid, v, b)
        assert stepped.tobytes() == full.tobytes()
        assert deg_full.tolist() == (deg_mid | deg_stepped).tolist()
