"""Property test: the CLI turns any catalog number into a finite report or
a documented exit code, never into a traceback."""

import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from emharvest.cli import main

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
