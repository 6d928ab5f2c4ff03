from .toys import LinearToyModel, ScalarToyModel
from .tube import Tube1DModel, Tube1DParams, TubeState, tube_flow_system, tube_solid_system

__all__ = [
    "LinearToyModel",
    "ScalarToyModel",
    "Tube1DModel",
    "Tube1DParams",
    "TubeState",
    "tube_flow_system",
    "tube_solid_system",
]
