import math
from dataclasses import MISSING, fields, replace

import pytest

from emharvest.analysis import DeviceRecord
from emharvest.beam import MaterialProps
from emharvest.cli import main
from emharvest.config import (
    Catalog,
    ConfigError,
    GeneratorAssembly,
    Scenario,
    SweepRange,
    load_catalog,
)
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    evaluate_response,
    natural_frequency,
)
from emharvest.sim import SimConfig

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

    # each generator at its same-named device's resonance and measured acceleration
    @pytest.mark.parametrize("name, p_load_w, rel", [
        ("cantilever_micro", 2.85e-6, 1e-6),  # the device's measured power
        ("lateral_micro", 2.011e-8, 1e-3),  # illustrative: 6.07x below its device's 1.22e-7 W
    ])
    def test_generator_against_its_measured_device(self, name, p_load_w, rel):
        cat = load_catalog()
        gen, dev = cat.generators[name], cat.devices[name]
        e = Excitation.from_acceleration(dev.measured_at_acceleration_m_s2,
                                         2.0 * math.pi * dev.resonant_frequency_hz)
        p_load = evaluate_response(gen.params, gen.circuit, e).p_load_w
        assert p_load == pytest.approx(p_load_w, rel=rel)

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
          "settle_fraction"),
         # beside a full sim pair: the window start is sim._SETTLE_FRACTION, not a key
         ("freq_points = 5", "freq_points = 5\ndt_s = 1e-4\nduration_s = 0.5\n"
          "settle_fraction = 0.8", "scenario.run", "settle_fraction"),
         ("freq_start = 100\nfreq_stop = 140\nfreq_points = 5", "freq_scale = log",
          "scenario.run", "freq_scale"),
         # a device's flux density, coil resistance and note are catalog comments
         ("active_mass_kg = 1e-3", "active_mass_kg = 1e-3\nflux_density_t = 0.4",
          "device.widget", "flux_density_t"),
         ("active_mass_kg = 1e-3", "active_mass_kg = 1e-3\nr_coil_ohm = 25", "device.widget",
          "r_coil_ohm"),
         ("active_mass_kg = 1e-3", "active_mass_kg = 1e-3\nnotes = hand wound",
          "device.widget", "notes")],
        ids=["misspelled-generator-key", "misspelled-material-key", "device-extra-key",
             "misspelled-scenario-key", "inline-key-beside-reference", "sim-key-without-sim",
             "retired-sim-key", "scale-without-range", "retired-device-flux-key",
             "retired-device-r_coil-key", "retired-device-notes-key"],
    )
    def test_unread_key_names_section_and_key(self, tmp_path, capsys, old, new, section, key):
        text = MINIMAL.replace(old, new)
        assert text != MINIMAL
        message = rf"\[{section}\] unknown or unused key\(s\): {key}$"
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=message):
            load_catalog(path)
        assert main(["simulate", "--config", path, "--scenario", "run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [{section}] unknown or unused key(s): {key}\n"

    @pytest.mark.parametrize(
        "old, new, match",
        [("accel_tag = rms", "accel_tag =", "accel_tag must be in"),
         ("freq_points = 5", "freq_points = 5\nfreq_scale =", "freq_scale must be linear")],
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
        with pytest.raises(ConfigError, match=r"freq_stop must be > start 100.0, got 90.0$"):
            load_catalog(write(tmp_path, text))

    def test_partial_sweep_rejected(self, tmp_path):
        text = MINIMAL.replace("freq_points = 5\n", "")
        with pytest.raises(ConfigError, match="freq_points"):
            load_catalog(write(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, key",
        [("freq_start = 100", "freq_start = 0", "freq_start"),
         ("freq_points = 5", "freq_points = 5\nload_start = 0\nload_stop = 100\n"
          "load_points = 3\nload_scale = linear", "load_start")],
        ids=["freq", "linear-load"],
    )
    def test_zero_sweep_start_rejected_at_load(self, tmp_path, capsys, old, new, key):
        # neither a 0 Hz drive nor a 0 ohm load can be evaluated
        path = write(tmp_path, MINIMAL.replace(old, new))
        message = rf"^\[scenario.run\] {key} must be > 0 and finite, got 0.0$"
        with pytest.raises(ConfigError, match=message):
            load_catalog(path)
        assert main(["model", "--config", path, "--scenario", "run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [scenario.run] {key} must be > 0 and finite, got 0.0\n"

    def test_half_given_sweep_names_its_first_missing_key(self, tmp_path):
        text = MINIMAL.replace("freq_stop = 140\nfreq_points = 5\n", "")
        message = r"^\[scenario.run\] missing required key 'freq_stop'$"
        with pytest.raises(ConfigError, match=message):
            load_catalog(write(tmp_path, text))

    def test_oversized_sweep_rejected_before_allocating(self, tmp_path):
        text = MINIMAL.replace("freq_points = 5", "freq_points = 1000000000")
        path = write(tmp_path, text)
        message = r"\[scenario.run\] freq_points must be in \[1, 1000000\], got 1000000000$"
        with pytest.raises(ConfigError, match=message):
            load_catalog(path)
        assert main(["sweep", "--kind", "frequency", "--config", path,
                     "--scenario", "run"]) == 2

    @pytest.mark.parametrize(
        "old, new, message",
        [("freq_points = 5", "freq_points = 5\nload_start = 10\nload_stop = 20\n"
          "load_points = 1",
          "load_stop must equal start 10.0 when points is 1, got 20.0"),
         ("freq_points = 5", "freq_points = 5\nload_start = 10\nload_stop = 20\n"
          "load_points = 0",
          "load_points must be in [1, 1000000], got 0")],
        ids=["one-point-load", "load-points"],
    )
    def test_sweep_range_error_names_the_catalog_key(self, tmp_path, capsys, old, new,
                                                      message):
        path = write(tmp_path, MINIMAL.replace(old, new))
        assert main(["model", "--config", path, "--scenario", "run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [scenario.run] {message}\n"

    def test_dt_without_duration_rejected(self, tmp_path):
        text = MINIMAL + "dt_s = 1e-4\n"
        with pytest.raises(ConfigError, match="duration_s"):
            load_catalog(write(tmp_path, text))

    @pytest.mark.parametrize("given, missing", [("dt_s = 1e-4", "duration_s"),
                                                ("duration_s = 0.5", "dt_s")])
    def test_half_given_sim_pair_exits_2(self, tmp_path, capsys, given, missing):
        path = write(tmp_path, MINIMAL + given + "\n")
        assert main(["model", "--config", path, "--scenario", "run"]) == 2
        message = f"[scenario.run] missing required key '{missing}'"
        assert message in capsys.readouterr().err


# every key of every section, each field set to a value other than its default
EVERY_FIELD = {
    "material.steel": {"youngs_modulus_pa": "193e9", "density_kg_m3": "7900"},
    "device.widget": {
        "volume_mm3": "100", "active_mass_kg": "1e-3", "resonant_frequency_hz": "120",
        "measured_power_w": "5e-6", "measured_at_acceleration_m_s2": "2.0",
    },
    "generator.unit": {
        "mass_kg": "1e-3", "stiffness_n_per_m": "568.489", "zeta_parasitic": "0.01",
        "displacement_limit_m": "2e-4", "turns": "100", "side_length_m": "1e-3",
        "flux_density_t": "0.5", "r_coil_ohm": "50", "l_coil_h": "1e-3",
        "r_load_ohm": "150",
    },
    "scenario.run": {
        "generator": "unit", "accel_m_s2": "2.0", "accel_tag": "rms", "freq_hz": "120",
        "freq_start": "100", "freq_stop": "140", "freq_points": "5", "freq_scale": "log",
        "load_start": "10", "load_stop": "1000", "load_points": "3", "load_scale": "linear",
        "dt_s": "1e-4", "duration_s": "0.5",
    },
}

GENERATOR = GeneratorAssembly(
    "unit",
    GeneratorParams(1e-3, 568.489, 0.01, displacement_limit_m=2e-4),
    CoilCircuit(100, 1e-3, 0.5, 50.0, l_coil_h=1e-3, r_load_ohm=150.0),
)
EXPECTED = Catalog(
    materials={"steel": MaterialProps("steel", 193e9, 7900.0)},
    devices={"widget": DeviceRecord("widget", 100.0, 1e-3, 120.0, 5e-6, 2.0)},
    generators={"unit": GENERATOR},
    scenarios={"run": Scenario(
        "run", GENERATOR, 2.0, "rms", 120.0,
        freq_sweep=SweepRange(100.0, 140.0, 5, "log"),
        load_sweep=SweepRange(10.0, 1000.0, 3, "linear"),
        sim=SimConfig(1e-4, 0.5),
    )},
)


def catalog_without(tmp_path, section=None, key=None):
    """Load EVERY_FIELD with one key of one section left out."""
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()
                                if (name, k) != (section, key)) + "\n"
        for name, keys in EVERY_FIELD.items()
    )
    return load_catalog(write(tmp_path, text))


class TestEveryField:
    def test_every_field_round_trips(self, tmp_path):
        scn = EXPECTED.scenarios["run"]
        for obj in (EXPECTED.materials["steel"], EXPECTED.devices["widget"],
                    GENERATOR.params, GENERATOR.circuit, scn, scn.sim):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, (type(obj).__name__, f.name)
        assert catalog_without(tmp_path) == EXPECTED

    @pytest.mark.parametrize("section, key", [
        ("material.steel", "youngs_modulus_pa"), ("material.steel", "density_kg_m3"),
        ("device.widget", "volume_mm3"), ("device.widget", "active_mass_kg"),
        ("device.widget", "resonant_frequency_hz"), ("device.widget", "measured_power_w"),
        ("device.widget", "measured_at_acceleration_m_s2"),
        ("generator.unit", "mass_kg"), ("generator.unit", "stiffness_n_per_m"),
        ("generator.unit", "zeta_parasitic"), ("generator.unit", "turns"),
        ("generator.unit", "side_length_m"), ("generator.unit", "flux_density_t"),
        ("generator.unit", "r_coil_ohm"),
        # required by the catalog, although CoilCircuit defaults it
        ("generator.unit", "r_load_ohm"),
        ("scenario.run", "accel_m_s2"), ("scenario.run", "freq_hz"),
        # either half of the sim pair requires the other
        ("scenario.run", "dt_s"), ("scenario.run", "duration_s"),
    ])
    def test_required_key_missing(self, tmp_path, section, key):
        message = rf"^\[{section}\] missing required key '{key}'$"
        with pytest.raises(ConfigError, match=message):
            catalog_without(tmp_path, section, key)

    @pytest.mark.parametrize("section, key, holder", [
        ("generator.unit", "displacement_limit_m", lambda cat: cat.generators["unit"].params),
        ("generator.unit", "l_coil_h", lambda cat: cat.generators["unit"].circuit),
    ])
    def test_optional_key_takes_the_dataclass_default(self, tmp_path, section, key, holder):
        got, expected = holder(catalog_without(tmp_path, section, key)), holder(EXPECTED)
        default = {f.name: f.default for f in fields(expected)}[key]
        assert default is not MISSING
        assert got == replace(expected, **{key: default})

    @pytest.mark.parametrize("key, read, expected", [
        # the catalog's own defaults: Scenario has none for accel_tag, and
        # the load sweep defaults to log where SweepRange says linear
        ("accel_tag", lambda scn: scn.accel_tag, "peak"),
        ("freq_scale", lambda scn: scn.freq_sweep.scale, "linear"),
        ("load_scale", lambda scn: scn.load_sweep.scale, "log"),
    ])
    def test_catalog_default(self, tmp_path, key, read, expected):
        scn = catalog_without(tmp_path, "scenario.run", key).scenarios["run"]
        assert read(scn) == expected

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
            dict(start=5.0, stop=6.0, points=1_000_001),
        ],
    )
    def test_rejects_degenerate_ranges(self, kwargs):
        with pytest.raises(ValueError):
            SweepRange(**kwargs)


def test_package_namespace_is_the_submodules_all():
    import emharvest
    from emharvest import analysis, beam, config, model, sim

    modules = (analysis, beam, config, model, sim)
    assert emharvest.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(emharvest.__all__)) == len(emharvest.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(emharvest, name) is getattr(m, name)
