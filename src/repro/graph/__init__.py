"""Dataflow-graph substrate (the TensorFlow-analogue the paper instruments)."""

from .graph import Graph, GraphError, Node
from .equivalence import (
    DEFAULT_MAX_ULPS,
    EquivalenceMode,
    max_row_ulp_distance,
    ulp_distance,
)
from .executor import (
    BatchedExecutionResult,
    DTypePolicy,
    ExecutionResult,
    Executor,
    Observer,
    OutputHook,
    bit_identical,
    set_training_mode,
)
from .builder import GraphBuilder

__all__ = [
    "BatchedExecutionResult",
    "DEFAULT_MAX_ULPS",
    "DTypePolicy",
    "EquivalenceMode",
    "ExecutionResult",
    "Executor",
    "Graph",
    "GraphBuilder",
    "GraphError",
    "Node",
    "Observer",
    "OutputHook",
    "bit_identical",
    "max_row_ulp_distance",
    "set_training_mode",
    "ulp_distance",
]
