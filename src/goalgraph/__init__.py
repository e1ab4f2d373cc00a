"""Goal-conditioned trajectory prediction on heterogeneous scene graphs.

A numpy-based engine: SE(2)-invariant scene graphs, graph-attention
encoder/decoder, multi-stage goal selection with trajectory completion, a
direct-regression baseline, training with winner-takes-all losses, standard
motion-forecasting metrics, and a synthetic scene generator for
cross-style generalization experiments.
"""

from .geometry import Pose2
from .graph import (
    GraphConfig,
    HeteroGraph,
    build_graph,
    nrb_goal_candidates,
    reachable_lanes,
)
from .metrics import MetricsReport, evaluate
from .model import Model, ModelConfig, ModePrediction
from .scene import AgentTrack, LaneDef, Scene, load_scene, save_scene
from .synthgen import STYLE_A, STYLE_B, gen_dataset, gen_scene
from .training import TrainConfig, train

__all__ = [
    "Pose2", "GraphConfig", "HeteroGraph", "build_graph", "nrb_goal_candidates",
    "reachable_lanes", "MetricsReport", "evaluate", "Model", "ModelConfig",
    "ModePrediction", "AgentTrack", "LaneDef", "Scene", "load_scene", "save_scene",
    "STYLE_A", "STYLE_B", "gen_dataset", "gen_scene", "TrainConfig", "train",
]

__version__ = "0.1.0"
