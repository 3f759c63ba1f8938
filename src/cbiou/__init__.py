"""Cascaded buffered-IoU multi-object tracking toolkit.

``import cbiou`` loads no submodule: each public name below is imported from
its module when it is first used (PEP 562), so a ``cbiou`` command pays only
for the modules its own subcommand uses. ``from cbiou import *`` imports
every module the names come from.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name by the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "BoundingBox": "geometry",
    "BoxTable": "geometry",
    "iou": "geometry",
    "MatchResult": "assignment",
    "solve": "assignment",
    "gated_match": "assignment",
    "average_velocity": "motion",
    "predict": "motion",
    "TrackerConfig": "tracker",
    "Detection": "tracker",
    "FrameOutput": "tracker",
    "FrameRows": "tracker",
    "TableFrame": "tracker",
    "CBiouTracker": "tracker",
    "run_sequence": "tracker",
    "MetricsReport": "metrics",
    "evaluate": "metrics",
    "evaluate_many": "metrics",
    "ScenarioSpec": "synth",
    "OcclusionSpec": "synth",
    "NoiseSpec": "synth",
    "generate": "synth",
    "oracle_detections": "synth",
    "perturb": "synth",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
