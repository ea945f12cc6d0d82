import math

import pytest

from emharvest.config import ConfigError, SweepRange, load_catalog
from emharvest.model import natural_frequency

MINIMAL = """
[material.steel]
youngs_modulus_pa = 200e9
density_kg_m3 = 7800

[device.widget]
volume_mm3 = 100
active_mass_kg = 1e-3
resonant_frequency_hz = 120
measured_power_w = 5e-6
measured_at_acceleration_m_s2 = 2.0

[generator.unit]
mass_kg = 1e-3
stiffness_n_per_m = 568.489
zeta_parasitic = 0.01
turns = 100
side_length_m = 1e-3
flux_density_t = 0.5
r_coil_ohm = 50
r_load_ohm = 150

[scenario.run]
generator = unit
accel_m_s2 = 2.0
accel_tag = rms
freq_hz = 120
freq_start = 100
freq_stop = 140
freq_points = 5
"""


def write(tmp_path, text, name="cat.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestBundledCatalog:
    def test_contents(self):
        cat = load_catalog()
        assert set(cat.materials) == {"silicon", "stainless_302", "beryllium_copper"}
        assert set(cat.devices) == {"pmg7", "cantilever_micro", "lateral_micro"}
        assert set(cat.generators) == {"cantilever_micro", "lateral_micro"}
        assert set(cat.scenarios) == {"cantilever_nominal", "lateral_nominal"}

    def test_generators_are_tuned_to_device_frequencies(self):
        cat = load_catalog()
        wn_c = natural_frequency(cat.generators["cantilever_micro"].params)
        wn_l = natural_frequency(cat.generators["lateral_micro"].params)
        assert wn_c / (2.0 * math.pi) == pytest.approx(350.0, rel=1e-9)
        assert wn_l / (2.0 * math.pi) == pytest.approx(9500.0, rel=1e-9)

    def test_cantilever_scenario_settings(self):
        scn = load_catalog().scenario("cantilever_nominal")
        assert scn.accel_m_s2 == 3.0
        assert scn.accel_tag == "peak"
        assert scn.freq_hz == 350.0
        assert scn.freq_sweep is not None and scn.freq_sweep.points == 81
        assert scn.load_sweep is not None and scn.load_sweep.scale == "log"
        assert scn.sim is not None and scn.sim.dt_s == 2e-5

    def test_lateral_generator_has_travel_limit(self):
        g = load_catalog().generators["lateral_micro"].params
        assert g.displacement_limit_m == 240e-6

    def test_unknown_names_are_reported(self):
        cat = load_catalog()
        with pytest.raises(ConfigError, match="nope"):
            cat.scenario("nope")
        with pytest.raises(ConfigError, match="available"):
            cat.generator("nope")


class TestParsing:
    def test_minimal_file(self, tmp_path):
        cat = load_catalog(write(tmp_path, MINIMAL))
        assert cat.materials["steel"].density_kg_m3 == 7800.0
        assert cat.devices["widget"].flux_density_t is None
        scn = cat.scenario("run")
        assert scn.generator.name == "unit"
        assert scn.generator.circuit.r_load_ohm == 150.0
        assert scn.accel_tag == "rms"
        assert scn.load_sweep is None
        assert scn.sim is None

    def test_inline_generator(self, tmp_path):
        text = """
[scenario.solo]
accel_m_s2 = 1.0
freq_hz = 100
mass_kg = 1e-3
stiffness_n_per_m = 394.78
zeta_parasitic = 0.02
turns = 10
side_length_m = 1e-3
flux_density_t = 0.2
r_coil_ohm = 10
r_load_ohm = 20
"""
        scn = load_catalog(write(tmp_path, text)).scenario("solo")
        assert scn.generator.params.mass_kg == 1e-3
        assert scn.generator.circuit.turns == 10
        assert scn.accel_tag == "peak"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_catalog("/no/such/file.ini")

    def test_malformed_ini(self, tmp_path):
        with pytest.raises(ConfigError):
            load_catalog(write(tmp_path, "not an ini file ["))

    def test_missing_key_names_section_and_key(self, tmp_path):
        text = "[material.bad]\nyoungs_modulus_pa = 1e9\n"
        with pytest.raises(ConfigError, match=r"\[material.bad\].*density_kg_m3"):
            load_catalog(write(tmp_path, text))

    def test_bad_number_reported(self, tmp_path):
        text = MINIMAL.replace("density_kg_m3 = 7800", "density_kg_m3 = heavy")
        with pytest.raises(ConfigError, match="not a number"):
            load_catalog(write(tmp_path, text))

    def test_domain_violation_reported_with_section(self, tmp_path):
        text = MINIMAL.replace(
            "stiffness_n_per_m = 568.489", "stiffness_n_per_m = -5"
        )
        with pytest.raises(ConfigError, match=r"\[generator.unit\]"):
            load_catalog(write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, section, key",
        [("r_load_ohm = 150", "r_load_ohm = 150\ndisplacement_limit = 1e-3", "generator.unit",
          "displacement_limit"),
         ("density_kg_m3 = 7800", "density_kg_m3 = 7800\npoisson = 0.3", "material.steel",
          "poisson"),
         ("active_mass_kg = 1e-3", "active_mass_kg = 1e-3\nnote = x", "device.widget", "note"),
         ("freq_points = 5", "freq_points = 5\nfreq_scal = log", "scenario.run", "freq_scal"),
         ("generator = unit", "generator = unit\nmass_kg = 2e-3", "scenario.run", "mass_kg"),
         ("freq_points = 5", "freq_points = 5\nsettle_fraction = 0.5", "scenario.run",
          "settle_fraction")],
        ids=["misspelled-generator-key", "misspelled-material-key", "device-extra-key",
             "misspelled-scenario-key", "inline-key-beside-reference", "sim-key-without-sim"],
    )
    def test_unread_key_names_section_and_key(self, tmp_path, old, new, section, key):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL
        message = rf"\[{section}\] unknown or unused key\(s\): {key}$"
        with pytest.raises(ConfigError, match=message):
            load_catalog(write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, match",
        [("accel_tag = rms", "accel_tag =", "accel_tag must be in"),
         ("freq_points = 5", "freq_points = 5\nfreq_scale =", "scale must be linear")],
        ids=["accel-tag", "sweep-scale"],
    )
    def test_empty_choice_rejected(self, tmp_path, old, new, match):
        # an empty value used to read as the default (peak, linear)
        with pytest.raises(ConfigError, match=rf"\[scenario.run\] {match}"):
            load_catalog(write(tmp_path, MINIMAL.replace(old, new)))

    def test_default_section_rejected(self, tmp_path):
        text = "[DEFAULT]\nr_load_ohm = 150\n" + MINIMAL.replace("r_load_ohm = 150\n", "")
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_catalog(write(tmp_path, text))

    def test_integer_key_rejects_a_float(self, tmp_path):
        text = MINIMAL.replace("turns = 100", "turns = 1e2")
        message = r"\[generator.unit\] turns = '1e2' is not an integer"
        with pytest.raises(ConfigError, match=message):
            load_catalog(write(tmp_path, text))

    def test_dangling_generator_reference(self, tmp_path):
        text = MINIMAL.replace("generator = unit", "generator = ghost")
        message = r"\[scenario.run\] unknown generator 'ghost'; available: unit$"
        with pytest.raises(ConfigError, match=message):
            load_catalog(write(tmp_path, text))

    def test_unknown_section_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown kind"):
            load_catalog(write(tmp_path, "[oscillator.x]\na = 1\n"))

    def test_undotted_section_name(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            load_catalog(write(tmp_path, "[material]\na = 1\n"))

    def test_reversed_sweep_rejected(self, tmp_path):
        text = MINIMAL.replace("freq_stop = 140", "freq_stop = 90")
        with pytest.raises(ConfigError, match="reversed"):
            load_catalog(write(tmp_path, text))

    def test_partial_sweep_rejected(self, tmp_path):
        text = MINIMAL.replace("freq_points = 5\n", "")
        with pytest.raises(ConfigError, match="freq_points"):
            load_catalog(write(tmp_path, text))

    def test_dt_without_duration_rejected(self, tmp_path):
        text = MINIMAL + "dt_s = 1e-4\n"
        with pytest.raises(ConfigError, match="duration_s"):
            load_catalog(write(tmp_path, text))


class TestSweepRange:
    def test_linear_values(self):
        vals = SweepRange(10.0, 20.0, 5).values()
        assert vals == [10.0, 12.5, 15.0, 17.5, 20.0]

    def test_log_values_pin_endpoints(self):
        vals = SweepRange(10.0, 1000.0, 61, "log").values()
        assert vals[0] == 10.0
        assert vals[-1] == 1000.0
        assert len(vals) == 61
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[30] == pytest.approx(100.0, rel=1e-12)

    def test_single_point(self):
        assert SweepRange(42.0, 42.0, 1).values() == [42.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=10.0, stop=10.0, points=2),
            dict(start=10.0, stop=5.0, points=3),
            dict(start=5.0, stop=6.0, points=0),
            dict(start=1.0, stop=2.0, points=1),
            dict(start=0.0, stop=10.0, points=5, scale="log"),
            dict(start=1.0, stop=10.0, points=5, scale="cubic"),
            dict(start=-math.inf, stop=10.0, points=5),
            dict(start=1.0, stop=math.inf, points=5, scale="log"),
        ],
    )
    def test_rejects_degenerate_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SweepRange(**kwargs)
