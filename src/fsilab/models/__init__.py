from .toys import LinearToyModel
from .tube import Tube1DModel, Tube1DParams, TubeState

__all__ = [
    "LinearToyModel",
    "Tube1DModel",
    "Tube1DParams",
    "TubeState",
]
