"""Property tests: the CLI turns any catalog number into a finite report or
a documented exit code, never into a traceback; the closed-form response
keeps its power ordering, Y^2 scaling and agreement with its parts."""

import math
import os
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emharvest.cli import main
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    displacement_response,
    evaluate_response,
    natural_frequency,
    total_damping,
)

# every numeric key of a small catalog with its nominal value
NOMINAL = {
    "generator.g": {
        "mass_kg": 1e-3,
        "stiffness_n_per_m": 568.4892135027469,
        "zeta_parasitic": 0.05,
        "displacement_limit_m": 1e-3,
        "side_length_m": 1e-3,
        "flux_density_t": 0.5,
        "r_coil_ohm": 50.0,
        "l_coil_h": 1e-3,
        "r_load_ohm": 150.0,
    },
    "scenario.s": {
        "accel_m_s2": 2.0,
        "freq_hz": 120.0,
        "load_start": 10.0,
        "load_stop": 1000.0,
    },
    "device.d": {
        "volume_mm3": 60.0,
        "active_mass_kg": 4.4e-4,
        "resonant_frequency_hz": 350.0,
        "measured_power_w": 2.85e-6,
        "measured_at_acceleration_m_s2": 3.0,
        "flux_density_t": 0.41,
        "r_coil_ohm": 93.0,
    },
    "material.m": {
        "youngs_modulus_pa": 2e11,
        "density_kg_m3": 7800.0,
    },
}
FIXED = {
    "generator.g": "turns = 100\n",
    "scenario.s": "generator = g\nload_points = 5\n",
}
EDGES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300]
KEYS = [(section, key) for section, keys in NOMINAL.items() for key in keys]

# a few keys at a time leave the edge value, the rest stay nominal, so most
# catalogs load and the edge values reach the model, sweep and compare code
EDITS = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(EDGES), max_size=3)


def _ini(edits):
    parts = []
    for section, keys in NOMINAL.items():
        body = "".join(
            f"{key} = {edits.get((section, key), value)!r}\n" for key, value in keys.items()
        )
        parts.append(f"[{section}]\n{FIXED.get(section, '')}{body}")
    return "\n".join(parts)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(EDITS)
def test_cli_exit_codes_on_edge_values(edits):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "catalog.ini")
        out = os.path.join(tmp, "out.txt")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(_ini(edits))
        for argv in (["model", "--scenario", "s"],
                     ["sweep", "--kind", "load", "--scenario", "s"],
                     ["compare"]):
            code = main(argv + ["--config", cfg, "--out", out])
            assert code in (0, 2, 3)
            if code == 0:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
                assert "nan" not in text and "inf" not in text


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0**x)


@st.composite
def designs(draw):
    """A valid generator, circuit (inductance included) and drive within a
    factor sqrt(10) of resonance, with a total damping ratio in [1e-3, 1)."""
    mass = draw(_log_uniform(-5, -1))
    wn = draw(_log_uniform(1, 4))
    g = GeneratorParams(
        mass_kg=mass,
        stiffness_n_per_m=mass * wn * wn,
        zeta_parasitic=draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.2))),
    )
    c = CoilCircuit(
        turns=draw(st.integers(0, 2000)),
        side_length_m=draw(_log_uniform(-4, -2)),
        flux_density_t=draw(st.one_of(st.just(0.0), st.floats(0.01, 1.5))),
        r_coil_ohm=draw(st.floats(0.0, 1e3)),
        l_coil_h=draw(st.one_of(st.just(0.0), _log_uniform(-6, 0))),
        r_load_ohm=draw(_log_uniform(0, 5)),
    )
    w = natural_frequency(g) * draw(_log_uniform(-0.5, 0.5))
    # Q_T <= 500: at Q_T ~ 1e8 near resonance the two power routes round
    # apart by more than the 1e-12 slack, (1 - r^2) and (w_n^2 - w^2)
    # cancelling differently
    assume(1e-3 <= total_damping(g, c, w)[2] < 1.0)
    return g, c, Excitation(amplitude_m=draw(_log_uniform(-9, -3)), omega_rad_per_s=w)


CLOSED_FORM = settings(derandomize=True, max_examples=120, deadline=None, database=None)


@CLOSED_FORM
@given(designs())
def test_power_ordering(design):
    rp = evaluate_response(*design)
    slack = 1.0 + 1e-12
    assert rp.p_load_w <= rp.p_total_electrical_w * slack
    assert rp.p_total_electrical_w <= rp.p_dissipated_w * slack


@CLOSED_FORM
@given(designs(), _log_uniform(-3, 3))
def test_powers_scale_with_base_amplitude_squared(design, scale):
    g, c, e = design
    rp = evaluate_response(g, c, e)
    scaled = evaluate_response(g, c, Excitation(e.amplitude_m * scale, e.omega_rad_per_s))
    for name in ("p_dissipated_w", "p_load_w", "p_total_electrical_w"):
        assert math.isclose(
            getattr(scaled, name), scale * scale * getattr(rp, name), rel_tol=1e-12
        ), name


@CLOSED_FORM
@given(designs())
def test_motion_equals_its_parts(design):
    g, c, e = design
    rp = evaluate_response(g, c, e)
    zeta_t = total_damping(g, c, e.omega_rad_per_s)[2]
    assert (rp.z_amplitude_m, rp.phase_rad) == displacement_response(g, zeta_t, e)
