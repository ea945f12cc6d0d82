"""Modeling, simulation and measurement analysis for resonant inertial
electromagnetic vibration energy harvesters.

Submodules:
    model     closed-form steady-state response and power equations
    sim       fixed-step time-domain integration of the same system
    analysis  Q extraction, damping split, load optimum, device ranking
    beam      cantilever resonant-frequency design tables
    config    INI catalog of materials, devices, generators, scenarios
    cli       command-line front end
"""

from .analysis import (
    CatalogRow,
    DeviceRecord,
    LoadSweep,
    SweepCurve,
    compare_catalog,
    decompose_damping,
    estimate_mass_displacement,
    extract_q_half_power,
    find_optimal_load,
    normalize_power,
    power_density,
)
from .beam import (
    BeamSpec,
    MaterialProps,
    bending_stiffness,
    effective_mass,
    frequency_table,
    resonant_frequency,
)
from .config import Catalog, ConfigError, GeneratorAssembly, Scenario, load_catalog
from .model import (
    CoilCircuit,
    DampingDecomposition,
    Excitation,
    GeneratorParams,
    LimitCheck,
    ResponsePoint,
    base_amplitude_from_acceleration,
    check_displacement_limit,
    compose_q_factors,
    damping_coefficient_from_ratio,
    damping_ratio_from_coefficient,
    displacement_response,
    dissipated_power,
    em_damping_coefficient,
    evaluate_response,
    load_power,
    load_voltage_from_power,
    max_avg_load_power,
    max_resonant_power,
    natural_frequency,
    optimal_load,
    total_damping,
)
from .sim import (
    SimConfig,
    SimulationNotSettled,
    SweepPointError,
    Trace,
    TraceSummary,
    frequency_sweep_sim,
    simulate,
)

__version__ = "0.1.0"
