"""Every magnitude the public API takes is rejected when NaN, infinite or
negative.

One row per public constructor or function: how to call it and its nominal
arguments.  Each listed argument is replaced in turn by nan, +inf, -inf and
-1.0; the call must raise ValueError naming that argument.  The one value
allowed to be infinite is CoilCircuit.r_load_ohm = inf, the open circuit.
"""

import math
import re

import pytest

from emharvest.analysis import (
    DeviceRecord,
    LoadSweep,
    SweepCurve,
    decompose_damping,
    estimate_mass_displacement,
    normalize_power,
)
from emharvest.beam import BeamSpec, MaterialProps, frequency_table
from emharvest.config import GeneratorAssembly, Scenario, SweepRange
from emharvest.model import (
    CoilCircuit,
    DampingDecomposition,
    Excitation,
    GeneratorParams,
    ResponsePoint,
    base_amplitude_from_acceleration,
    check_displacement_limit,
    compose_q_factors,
    load_power,
    load_voltage_from_power,
    max_avg_load_power,
    max_resonant_power,
    natural_frequency,
    optimal_load,
)
from emharvest.sim import SimConfig, TraceSummary, frequency_sweep_sim

G = GeneratorParams(mass_kg=1e-3, stiffness_n_per_m=400.0, zeta_parasitic=0.01)
C = CoilCircuit(turns=10, side_length_m=1e-3, flux_density_t=0.5, r_coil_ohm=1.0,
                r_load_ohm=10.0)
E_RES = Excitation(1e-6, natural_frequency(G))
STEEL = MaterialProps("steel", 2e11, 7800.0)

# name -> (callable, nominal keyword arguments, arguments to spoil)
CASES = {
    "GeneratorParams": (
        GeneratorParams,
        dict(mass_kg=1e-3, stiffness_n_per_m=400.0, zeta_parasitic=0.01,
             displacement_limit_m=1e-3),
        ("mass_kg", "stiffness_n_per_m", "zeta_parasitic", "displacement_limit_m"),
    ),
    "CoilCircuit": (
        CoilCircuit,
        dict(turns=10, side_length_m=1e-3, flux_density_t=0.5, r_coil_ohm=1.0,
             l_coil_h=1e-3, r_load_ohm=10.0),
        ("side_length_m", "flux_density_t", "r_coil_ohm", "l_coil_h", "r_load_ohm"),
    ),
    "Excitation": (
        Excitation,
        dict(amplitude_m=1e-6, omega_rad_per_s=100.0),
        ("amplitude_m", "omega_rad_per_s"),
    ),
    "Excitation.from_acceleration": (
        Excitation.from_acceleration,
        dict(accel_m_s2=1.0, omega_rad_per_s=100.0),
        ("accel_m_s2", "omega_rad_per_s"),
    ),
    "ResponsePoint": (
        ResponsePoint,
        dict(z_amplitude_m=1e-6, phase_rad=1.0, p_dissipated_w=2e-9, p_load_w=1e-9,
             p_total_electrical_w=1e-9, v_load_rms_v=1e-3, emf_rms_v=1e-3),
        ("z_amplitude_m", "phase_rad", "p_dissipated_w", "p_load_w",
         "p_total_electrical_w", "v_load_rms_v", "emf_rms_v"),
    ),
    "DampingDecomposition": (
        DampingDecomposition,
        dict(q_total=100.0, q_open_circuit=200.0, q_electrical=200.0,
             zeta_p=1.0 / 400.0, zeta_e=1.0 / 400.0, zeta_t=1.0 / 200.0),
        ("q_total", "q_open_circuit", "q_electrical"),
    ),
    "compose_q_factors": (
        compose_q_factors,
        dict(q_total=100.0, q_open_circuit=200.0),
        ("q_total", "q_open_circuit"),
    ),
    "load_power": (
        lambda **kw: load_power(G, e=E_RES, **kw),
        dict(zeta_p=0.01, zeta_e=0.01),
        ("zeta_p", "zeta_e"),
    ),
    "optimal_load": (
        lambda **kw: optimal_load(C, **kw),
        dict(c_parasitic=1e-3),
        ("c_parasitic",),
    ),
    "max_avg_load_power": (
        lambda **kw: max_avg_load_power(G, e=E_RES, **kw),
        dict(zeta_p=0.01, r_coil_ohm=1.0, r_load_ohm=10.0),
        ("zeta_p", "r_coil_ohm", "r_load_ohm"),
    ),
    "base_amplitude_from_acceleration": (
        base_amplitude_from_acceleration,
        dict(accel_m_s2=1.0, omega_rad_per_s=100.0),
        ("accel_m_s2", "omega_rad_per_s"),
    ),
    "load_voltage_from_power": (
        load_voltage_from_power,
        dict(p_load_w=1e-6, r_load_ohm=100.0),
        ("p_load_w", "r_load_ohm"),
    ),
    "check_displacement_limit": (
        lambda **kw: check_displacement_limit(
            GeneratorParams(mass_kg=1e-3, stiffness_n_per_m=400.0, zeta_parasitic=0.01,
                            displacement_limit_m=1e-3),
            **kw,
        ),
        dict(predicted_z_m=1e-4),
        ("predicted_z_m",),
    ),
    "SweepCurve": (
        SweepCurve,
        dict(freqs_hz=(1.0, 2.0, 3.0, 4.0, 5.0), magnitudes=(0.1, 0.5, 1.0, 0.5, 0.1),
             response_unit="V", excitation_acceleration_m_s2=1.0),
        ("freqs_hz", "magnitudes", "excitation_acceleration_m_s2"),
    ),
    "LoadSweep": (
        LoadSweep,
        dict(r_load_ohm=(1.0, 2.0, 3.0), p_load_w=(1.0, 2.0, 1.0),
             p_total_w=(2.0, 3.0, 2.0)),
        ("r_load_ohm", "p_load_w", "p_total_w"),
    ),
    "DeviceRecord": (
        DeviceRecord,
        dict(name="x", volume_mm3=10.0, active_mass_kg=1e-3, resonant_frequency_hz=100.0,
             measured_power_w=1e-6, measured_at_acceleration_m_s2=1.0,
             flux_density_t=0.5, r_coil_ohm=10.0),
        ("volume_mm3", "active_mass_kg", "resonant_frequency_hz", "measured_power_w",
         "measured_at_acceleration_m_s2", "flux_density_t", "r_coil_ohm"),
    ),
    "normalize_power": (
        normalize_power,
        dict(p_w=1e-6, a_measured_m_s2=1.0, a_target_m_s2=3.0),
        ("p_w", "a_measured_m_s2", "a_target_m_s2"),
    ),
    "estimate_mass_displacement": (
        estimate_mass_displacement,
        dict(q_loaded=100.0, y_base_m=1e-6),
        ("q_loaded", "y_base_m"),
    ),
    "decompose_damping": (
        decompose_damping,
        dict(q_loaded=100.0, q_open=200.0),
        ("q_loaded", "q_open"),
    ),
    "MaterialProps": (
        MaterialProps,
        dict(name="steel", youngs_modulus_pa=2e11, density_kg_m3=7800.0),
        ("youngs_modulus_pa", "density_kg_m3"),
    ),
    "BeamSpec": (
        BeamSpec,
        dict(length_m=5e-3, width_m=2e-3, thickness_m=1e-4, material=STEEL,
             tip_mass_kg=1e-4),
        ("length_m", "width_m", "thickness_m", "tip_mass_kg"),
    ),
    "SweepRange": (
        SweepRange,
        dict(start=1.0, stop=10.0, points=5),
        ("start", "stop"),
    ),
    "Scenario": (
        Scenario,
        dict(name="s", generator=GeneratorAssembly("g", G, C), accel_m_s2=1.0,
             accel_tag="peak", freq_hz=100.0),
        ("accel_m_s2", "freq_hz"),
    ),
    "SimConfig": (
        SimConfig,
        dict(dt_s=1e-4, duration_s=1.0),
        ("dt_s", "duration_s"),
    ),
    "SimConfig.suggest": (
        lambda **kw: SimConfig.suggest(G, C, **kw),
        dict(omega_rad_per_s=100.0),
        ("omega_rad_per_s",),
    ),
    "TraceSummary": (
        TraceSummary,
        dict(z_amp_m=1e-6, v_rel_rms_m_per_s=1e-4, emf_rms_v=1e-3, p_load_avg_w=1e-9,
             p_parasitic_avg_w=1e-9, energy_balance_residual=1e-6, phase_rad=1.0),
        ("z_amp_m", "v_rel_rms_m_per_s", "emf_rms_v", "p_load_avg_w",
         "p_parasitic_avg_w", "energy_balance_residual"),
    ),
}

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg": -1.0}


def _spoil(nominal, value):
    """The bad value in place of a scalar, or of the middle entry of a column."""
    if isinstance(nominal, tuple):
        mid = len(nominal) // 2
        return nominal[:mid] + (value,) + nominal[mid + 1:]
    return value


ROWS = [
    pytest.param(case, arg, value, id=f"{case}-{arg}-{label}")
    for case, (_, _, args) in CASES.items()
    for arg in args
    for label, value in BAD.items()
    if not (case == "CoilCircuit" and arg == "r_load_ohm" and value == math.inf)
]


@pytest.mark.parametrize("case, arg, value", ROWS)
def test_non_finite_argument_rejected(case, arg, value):
    func, nominal, _ = CASES[case]
    kwargs = dict(nominal)
    kwargs[arg] = _spoil(nominal[arg], value)
    with pytest.raises(ValueError, match=arg):
        func(**kwargs)


@pytest.mark.parametrize("case", CASES)
def test_nominal_arguments_accepted(case):
    func, nominal, _ = CASES[case]
    func(**nominal)


def test_open_circuit_load_is_the_one_allowed_infinity():
    c = CoilCircuit(turns=10, side_length_m=1e-3, flux_density_t=0.5, r_coil_ohm=1.0,
                    r_load_ohm=math.inf)
    assert c.r_load_ohm == math.inf


# Finite arguments whose closed-form result leaves the float range, through
# a float ** (OverflowError) or through a product or quotient (inf): either
# way the one range rule raises ValueError naming the result.
G_1E220 = GeneratorParams(1.0, 1e220, 0.0)  # w_n = 1e110: w_n**3 overflows
E_1E220 = Excitation(1e-6, natural_frequency(G_1E220))
G_1E200 = GeneratorParams(1.0, 1e200, 0.0)  # w_n**3 = 1e300, finite
E_1E200 = Excitation(1e10, natural_frequency(G_1E200))
OUT_OF_RANGE = {
    "max_resonant_power-pow": (
        lambda: max_resonant_power(G_1E220, 0.01, E_1E220), "max_resonant_power"),
    "max_resonant_power-product": (
        lambda: max_resonant_power(G_1E200, 1e-300, E_1E200), "max_resonant_power"),
    "load_power-pow": (
        lambda: load_power(G_1E220, 0.01, 0.01, E_1E220), "load_power"),
    "load_power-product": (
        lambda: load_power(G_1E200, 1e-300, 1e-300, E_1E200), "load_power"),
    "max_avg_load_power-pow": (
        lambda: max_avg_load_power(G_1E220, 0.01, E_1E220, 1.0, 10.0), "max_avg_load_power"),
    "max_avg_load_power-product": (
        lambda: max_avg_load_power(G_1E200, 1e-300, E_1E200, 1.0, 10.0), "max_avg_load_power"),
    "acceleration_m_s2-pow": (
        lambda: Excitation(1e-6, 1e200).acceleration_m_s2, "acceleration_m_s2"),
    "acceleration_m_s2-product": (
        lambda: Excitation(1e10, 1e150).acceleration_m_s2, "acceleration_m_s2"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_result_out_of_float_range_rejected(case):
    call, name = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=re.escape(name) + ".*finite"):
        call()


# Every axis a caller supplies must be strictly increasing; each is rejected
# with the same message naming the axis, here with one repeated value.
UNORDERED = {
    "freqs_hz": lambda: SweepCurve((1.0, 2.0, 2.0, 3.0, 4.0), (0.1,) * 5, "V", 1.0),
    "r_load_ohm": lambda: LoadSweep((1.0, 2.0, 2.0), (0.1,) * 3, (0.2,) * 3),
    "omegas": lambda: frequency_sweep_sim(G, C, [100.0, 100.0], 1.0),
    "thicknesses_m": lambda: frequency_table(
        BeamSpec(5e-3, 2e-3, 5e-5, STEEL, 4.4e-4), [5e-5, 5e-5], [STEEL]),
}


@pytest.mark.parametrize("axis", UNORDERED)
def test_unordered_axis_rejected(axis):
    with pytest.raises(ValueError, match=f"^{axis} must be strictly increasing$"):
        UNORDERED[axis]()
