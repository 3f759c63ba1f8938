import pytest
from hypothesis import HealthCheck, settings

from cbiou.geometry import BoundingBox

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def count_boxes(monkeypatch):
    """Call to count every ``BoundingBox`` built from then on; returns the
    list the built boxes are appended to."""

    def install() -> list:
        built = []
        validate = BoundingBox.__post_init__
        monkeypatch.setattr(BoundingBox, "__post_init__", lambda box: built.append(box) or validate(box))
        return built

    return install
