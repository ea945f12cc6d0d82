"""Cantilever resonant-frequency design: first bending mode of an
end-loaded rectangular beam.

The beam is treated as a massless-rotary-inertia Euler-Bernoulli cantilever
with a point tip mass; the distributed beam mass enters through the
standard first-mode fraction 33/140.  Good for picking beam thickness to
hit a target frequency; not a substitute for a full structural model when
the tip assembly is bulky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import _check_increasing, _check_magnitudes, _pow

__all__ = [
    "MaterialProps",
    "BeamSpec",
    "bending_stiffness",
    "effective_mass",
    "resonant_frequency",
    "frequency_table",
]

# fraction of the distributed beam mass participating in the first mode
_BEAM_MASS_FRACTION = 33.0 / 140.0


@dataclass(frozen=True)
class MaterialProps:
    """Elastic constants of a spring material."""

    name: str
    youngs_modulus_pa: float
    density_kg_m3: float

    def __post_init__(self) -> None:
        _check_magnitudes((
            ("youngs_modulus_pa", self.youngs_modulus_pa), ("density_kg_m3", self.density_kg_m3),
        ))


@dataclass(frozen=True)
class BeamSpec:
    """A rectangular cantilever with a point mass at the free end.

    Bending is about the thin axis, so thickness must not exceed width.
    """

    length_m: float
    width_m: float
    thickness_m: float
    material: MaterialProps
    tip_mass_kg: float

    def __post_init__(self) -> None:
        _check_magnitudes((
            ("length_m", self.length_m), ("width_m", self.width_m),
            ("thickness_m", self.thickness_m), ("tip_mass_kg", self.tip_mass_kg),
        ))
        if self.thickness_m > self.width_m:
            raise ValueError(
                f"thickness_m ({self.thickness_m}) must not exceed width_m "
                f"({self.width_m})"
            )


def bending_stiffness(b: BeamSpec) -> float:
    """End-load stiffness 3*E*I/L^3 with I = w*t^3/12, N/m."""
    inertia = b.width_m * _pow(b.thickness_m, 3) / 12.0
    cube = _pow(b.length_m, 3)  # 0 below L ~ 1e-108: no float quotient, so out of range
    k = 3.0 * b.material.youngs_modulus_pa * inertia / cube if cube > 0.0 else math.inf
    if not 0.0 < k < math.inf:  # as m and f: from inputs > 0, a 0 is out of range too
        _check_magnitudes((("bending_stiffness_n_per_m", k),))
    return k


def effective_mass(b: BeamSpec) -> float:
    """Tip mass plus the first-mode share (33/140) of the beam mass, kg."""
    beam_mass = b.material.density_kg_m3 * b.length_m * b.width_m * b.thickness_m
    m = b.tip_mass_kg + _BEAM_MASS_FRACTION * beam_mass
    if not 0.0 < m < math.inf:
        _check_magnitudes((("effective_mass_kg", m),))
    return m


def resonant_frequency(b: BeamSpec) -> float:
    """First-mode natural frequency (1/2pi)*sqrt(k/m_eff), Hz."""
    f = math.sqrt(bending_stiffness(b) / effective_mass(b)) / (2.0 * math.pi)
    if not 0.0 < f < math.inf:
        _check_magnitudes((("resonant_frequency_hz", f),))
    return f


def frequency_table(
    base: BeamSpec,
    thicknesses_m: Iterable[float] | Sequence[float],
    materials: Sequence[MaterialProps],
) -> list[list[float]]:
    """Frequency grid over thickness (rows) and material (columns), Hz.

    Every cell reuses the base geometry and tip mass with only thickness
    and material swapped; row order follows the thickness list, column
    order the material list.
    """
    t_list = [float(t) for t in thicknesses_m]
    if not t_list:
        raise ValueError("thicknesses_m must be non-empty")
    _check_increasing("thicknesses_m", t_list)
    if not materials:
        raise ValueError("materials must be non-empty")
    return [
        [
            resonant_frequency(BeamSpec(base.length_m, base.width_m, t, mat, base.tip_mass_kg))
            for mat in materials
        ]
        for t in t_list
    ]
