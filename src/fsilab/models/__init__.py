from .toys import LinearToyModel, ScalarToyModel
from .tube import Tube1DModel, Tube1DParams, TubeState

__all__ = [
    "LinearToyModel",
    "ScalarToyModel",
    "Tube1DModel",
    "Tube1DParams",
    "TubeState",
]
