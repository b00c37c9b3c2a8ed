"""Spiking neural network training engine with dual temporal-channel attention."""

from .tensor import (
    ComputationRecord,
    GeometryError,
    RecordError,
    ShapeError,
    Tensor,
    backward,
    zero_grads,
)
from .neuron import LifParams, lif_unroll, surrogate_values
from .attention import TnaParams, TxaParams, dta

__all__ = [
    "ComputationRecord",
    "GeometryError",
    "LifParams",
    "RecordError",
    "ShapeError",
    "Tensor",
    "TnaParams",
    "TxaParams",
    "backward",
    "dta",
    "lif_unroll",
    "surrogate_values",
    "zero_grads",
]
