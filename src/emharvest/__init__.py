"""Modeling, simulation and measurement analysis for resonant inertial
electromagnetic vibration energy harvesters.

Submodules:
    model     closed-form steady-state response and power equations
    sim       fixed-step time-domain integration of the same system
    analysis  Q extraction, damping split, load optimum, device ranking
    beam      cantilever resonant-frequency design tables
    config    INI catalog of materials, devices, generators, scenarios
    cli       command-line front end

The package namespace is exactly the submodules' ``__all__`` lists.
"""

from .analysis import *
from .beam import *
from .config import *
from .model import *
from .sim import *

__all__ = analysis.__all__ + beam.__all__ + config.__all__ + model.__all__ + sim.__all__

__version__ = "0.1.0"
