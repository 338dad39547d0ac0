"""Semantics-guided skeletonization of trellised fruit trees.

Pipeline: point cloud -> superpoint graph -> edge confidences -> tip
seeds -> population search for a labeled skeleton -> side branches.
"""

import importlib

from .cloud import PointCloud, load_cloud, random_downsample
from .config import PipelineConfig, SearchConfig, load_config
from .edge_scoring import ConfidenceMap, score_all_edges
from .labels import Label
from .search import run_search
from .seeds import SeedSet, find_tips, resolve_base
from .side_branches import find_side_branches
from .skeleton import LabeledSkeleton, load_skeleton, save_skeleton
from .superpoints import SuperpointGraph, build_graph

__all__ = [
    "ConfidenceMap", "EvalReport", "Label", "LabeledSkeleton",
    "PipelineConfig", "PointCloud", "SearchConfig", "SeedSet",
    "SuperpointGraph", "SynthSpec", "build_graph", "edit_distance",
    "evaluate", "find_side_branches", "find_tips", "generate",
    "load_cloud", "load_config", "load_skeleton", "random_downsample",
    "resolve_base", "run_search", "save_skeleton", "score_all_edges",
]

__version__ = "0.1.0"

#: The module of each exported name that skeletonizing never reads; it is
#: imported when the name is first read.
_LAZY = {"EvalReport": "evaluation", "edit_distance": "evaluation",
         "evaluate": "evaluation", "SynthSpec": "synth", "generate": "synth"}


def __getattr__(name):
    """Import the module of a name in _LAZY when the name is first read."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
