"""Cascaded buffered-IoU multi-object tracking toolkit."""

__version__ = "0.1.0"

from .assignment import MatchResult, gated_match, solve
from .geometry import BoundingBox, iou
from .metrics import MetricsReport, SequenceAnnotations, evaluate, evaluate_many
from .motion import average_velocity, predict
from .synth import NoiseSpec, OcclusionSpec, ScenarioSpec, generate, oracle_detections, perturb
from .tracker import (
    CBiouTracker,
    Detection,
    DetectionTable,
    FrameOutput,
    FrameRows,
    TableFrame,
    TrackerConfig,
    run_sequence,
)

__all__ = [
    "__version__",
    "BoundingBox",
    "iou",
    "MatchResult",
    "solve",
    "gated_match",
    "average_velocity",
    "predict",
    "TrackerConfig",
    "Detection",
    "FrameOutput",
    "FrameRows",
    "TableFrame",
    "CBiouTracker",
    "DetectionTable",
    "run_sequence",
    "SequenceAnnotations",
    "MetricsReport",
    "evaluate",
    "evaluate_many",
    "ScenarioSpec",
    "OcclusionSpec",
    "NoiseSpec",
    "generate",
    "oracle_detections",
    "perturb",
]
