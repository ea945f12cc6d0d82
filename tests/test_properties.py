"""Property tests: the catalog reader turns any INI text into a catalog or a
ConfigError; the CLI turns any catalog number into a finite report or a
documented exit code, never into a traceback; the closed-form response
keeps its power ordering, Y^2 scaling and agreement with its parts, and
reproduces the Q composition, load optimum and half-power Q."""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from emharvest.analysis import SweepCurve, extract_q_half_power
from emharvest.cli import main
from emharvest.config import Catalog, ConfigError, load_catalog
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    _damping_terms,
    compose_q_factors,
    damping_coefficient_from_ratio,
    displacement_response,
    dissipated_power,
    em_damping_coefficient,
    evaluate_response,
    natural_frequency,
    optimal_load,
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
        "freq_start": 100.0,
        "freq_stop": 140.0,
        "load_start": 10.0,
        "load_stop": 1000.0,
    },
    "device.d": {
        "volume_mm3": 60.0,
        "active_mass_kg": 4.4e-4,
        "resonant_frequency_hz": 350.0,
        "measured_power_w": 2.85e-6,
        "measured_at_acceleration_m_s2": 3.0,
    },
    "material.m": {
        "youngs_modulus_pa": 2e11,
        "density_kg_m3": 7800.0,
    },
}
# a fixed 5000-step run, so that simulate never asks SimConfig.suggest for millions
FIXED = {
    "generator.g": "turns = 100\n",
    "scenario.s": "generator = g\nfreq_points = 5\nload_points = 5\ndt_s = 1e-4\n"
                  "duration_s = 0.5\n",
}
EDGES = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1e-300, 1e300]
KEYS = [(section, key) for section, keys in NOMINAL.items() for key in keys]

# a few keys at a time leave the edge value, the rest stay nominal, so most
# catalogs load and the edge values reach the model, sweep, simulate and compare code
EDITS = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(EDGES), max_size=3)
COMMANDS = [["model", "--scenario", "s"], ["sweep", "--kind", "load", "--scenario", "s"],
            ["sweep", "--kind", "frequency", "--scenario", "s"], ["compare"],
            ["simulate", "--scenario", "s"]]


def _ini(edits):
    parts = []
    for section, keys in NOMINAL.items():
        body = "".join(
            f"{key} = {edits.get((section, key), value)!r}\n" for key, value in keys.items()
        )
        parts.append(f"[{section}]\n{FIXED.get(section, '')}{body}")
    return "\n".join(parts)


def _check_exit_rules(argv, out, codes=(0, 2, 3), cli=main):
    """Run cli on argv with --out out: it exits with one of codes; a failure prints
    nothing on stdout and creates no out file; a success writes no nan or inf."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli(argv + ["--out", out])
    assert code in codes, argv
    if code:
        assert stdout.getvalue() == "" and not os.path.exists(out), argv
        return
    with open(out, encoding="utf-8") as fh:
        text = fh.read() + stdout.getvalue()
    assert "nan" not in text and "inf" not in text, argv


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(EDITS)
def test_cli_exit_codes_on_edge_values(edits):
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(COMMANDS):
            cfg, out = os.path.join(tmp, f"catalog{i}.ini"), os.path.join(tmp, f"out{i}.txt")
            with open(cfg, "w", encoding="utf-8") as fh:
                # simulate models no coil inductance on a closed circuit: its
                # catalog has none unless the edits set one
                fh.write(_ini({("generator.g", "l_coil_h"): 0.0, **edits}
                              if argv[0] == "simulate" else edits))
            _check_exit_rules(argv + ["--config", cfg], out,
                              (0, 2, 3, 4) if argv[0] == "simulate" else (0, 2, 3))


# beam's numbers: a few leave their nominal value for an edge value or for 1e+-100,
# whose cube is in the float range where its products with 1e+-300 are not
BEAM = {"--length": 5e-3, "--width": 2e-3, "--tip-mass": 4.4e-4}
BEAM_EDITS = st.dictionaries(st.sampled_from([*BEAM, "--thicknesses"]),
                             st.sampled_from(EDGES + [1e-100, 1e100]), max_size=3)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(BEAM_EDITS, st.integers(0, 2))
# the frequency of k = inf over m = inf once printed nan: too rare a draw to leave to the search
@example({"--width": 1e300, "--thicknesses": 1e100}, 2)
def test_beam_exit_codes_on_edge_values(edits, entry):
    thicknesses = [50e-6, 100e-6, 150e-6]
    if "--thicknesses" in edits:
        thicknesses[entry] = edits["--thicknesses"]
    argv = ["beam", *(f"{key}={edits.get(key, value)!r}" for key, value in BEAM.items()),
            "--thicknesses=" + ",".join(map(repr, thicknesses))]
    with tempfile.TemporaryDirectory() as tmp:
        _check_exit_rules(argv, os.path.join(tmp, "out.csv"))


# raw argv text for an option: empty, hex, negative zero, past the float range,
# subnormal, padded and non-finite
ARGV_EDGES = ["", "0x10", "-0", "1e400", "1e-320", " 3", "nan", "-inf"]
# the name options, each in one subcommand that reads it, the other options nominal
NAME_OPTIONS = {
    "--scenario": ["model"],
    "--accel-tag": ["model", "--scenario=cantilever_nominal"],
    "--kind": ["sweep", "--scenario=cantilever_nominal"],
}


@pytest.mark.parametrize("raw", ARGV_EDGES, ids=repr)
@pytest.mark.parametrize("option", [*BEAM, "--thicknesses", "--target-accel", *NAME_OPTIONS,
                                    "--materials"])
def test_number_options_on_edge_strings(option, raw):
    # every text in every number and name option, one at a time: --thicknesses takes
    # it as its first entry, the one beam builds its base BeamSpec from
    if option == "--target-accel":
        argv = ["compare", f"--target-accel={raw}"]
    elif option in NAME_OPTIONS:
        argv = [*NAME_OPTIONS[option], f"{option}={raw}"]
    else:
        texts = {**{key: repr(value) for key, value in BEAM.items()},
                 "--thicknesses": "50e-6,100e-6,150e-6"}
        texts[option] = f"{raw},100e-6,150e-6" if option == "--thicknesses" else raw
        argv = ["beam", *(f"{key}={text}" for key, text in texts.items())]
    with tempfile.TemporaryDirectory() as tmp:
        _check_exit_rules(argv, os.path.join(tmp, "out.txt"), cli=_main_or_refusal)


def _main_or_refusal(argv):
    # raw text can fail argparse's own parsing: its refusal, SystemExit(2), is exit 2
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


# a valid catalog as (section, [(key, value), ...]); the fuzz edits it
VALID = [
    ("material.m", [("youngs_modulus_pa", "2e11"), ("density_kg_m3", "7800")]),
    ("device.d", [("volume_mm3", "60"), ("active_mass_kg", "4.4e-4"),
                  ("resonant_frequency_hz", "350"), ("measured_power_w", "2.85e-6"),
                  ("measured_at_acceleration_m_s2", "3.0")]),
    ("generator.g", [("mass_kg", "1e-3"), ("stiffness_n_per_m", "568.49"),
                     ("zeta_parasitic", "0.05"), ("turns", "100"), ("side_length_m", "1e-3"),
                     ("flux_density_t", "0.5"), ("r_coil_ohm", "50"), ("r_load_ohm", "150")]),
    ("scenario.s", [("generator", "g"), ("accel_m_s2", "2.0"), ("freq_hz", "120"),
                    ("freq_start", "100"), ("freq_stop", "140"), ("freq_points", "5"),
                    ("dt_s", "1e-4"), ("duration_s", "0.8")]),
    ("scenario.inline", [("accel_m_s2", "1.0"), ("freq_hz", "100"), ("mass_kg", "1e-3"),
                         ("stiffness_n_per_m", "394.78"), ("zeta_parasitic", "0.02"),
                         ("turns", "10"), ("side_length_m", "1e-3"), ("flux_density_t", "0.2"),
                         ("r_coil_ohm", "10"), ("r_load_ohm", "20")]),
]
KNOWN_KEYS = sorted(
    {key for _, lines in VALID for key, _ in lines}
    | {"displacement_limit_m", "l_coil_h", "accel_tag",
       "load_start", "load_stop", "load_points", "load_scale", "freq_scale"}
    # read by no section: the window start is a constant, and a device's note is a comment
    | {"settle_fraction", "notes"}
    # read by no device section: a device's flux density and coil resistance are comments
    | {"flux_density_t", "r_coil_ohm"}
)
MISSPELL = [lambda k: k[:-1], lambda k: k.replace("_", "", 1), lambda k: k + "s"]
FUZZ_VALUES = st.sampled_from(
    ["", "abc", "nan", "inf", "-inf", "-1", "0", "1", "1.5", "100", "1e-300", "1e300",
     "1e400", "g", "ghost", "peak", "rms", "log", "linear", "3 ; comment"]
)
SECTION = st.integers(0, len(VALID) - 1)
LINE = st.integers(0, 9)
# each edit spoils one thing: a value, a key's spelling, a duplicate or
# missing line, a key the section may or may not read, or a stray section
FUZZ_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), SECTION, LINE, FUZZ_VALUES),
        st.tuples(st.just("misspell"), SECTION, LINE, st.sampled_from(MISSPELL)),
        st.tuples(st.just("duplicate"), SECTION, LINE),
        st.tuples(st.just("drop"), SECTION, LINE),
        st.tuples(st.just("add"), SECTION, st.sampled_from(KNOWN_KEYS), FUZZ_VALUES),
        st.tuples(st.just("section"),
                  st.sampled_from(["scenario.t", "generator.h", "DEFAULT", "material",
                                   "oscillator.x", "material.", ".m", "device.d"]),
                  st.dictionaries(st.sampled_from(KNOWN_KEYS), FUZZ_VALUES, max_size=3)),
    ),
    max_size=2,
)


def _fuzzed_ini(edits):
    sections = [(name, list(lines)) for name, lines in VALID]
    for op, where, *args in edits:
        if op == "section":
            sections.append((where, list(args[0].items())))
            continue
        lines = sections[where][1]
        if op == "add":
            lines.append(tuple(args))
            continue
        if not lines:
            continue
        i = args[0] % len(lines)
        key, value = lines[i]
        if op == "set":
            lines[i] = (key, args[1])
        elif op == "misspell":
            lines[i] = (args[1](key), value)
        elif op == "duplicate":
            lines.append((key, value))
        else:
            del lines[i]
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in lines) + "\n"
        for name, lines in sections
    )


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(FUZZ_EDITS)
def test_catalog_text_loads_or_raises_config_error(edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_fuzzed_ini(edits))
        try:
            catalog = load_catalog(path)
        except ConfigError:
            return
    assert isinstance(catalog, Catalog)
    assert set(catalog.scenarios) <= {"s", "inline", "t"}


def test_fuzz_base_catalog_loads(tmp_path):
    path = tmp_path / "catalog.ini"
    path.write_text(_fuzzed_ini([]))
    assert set(load_catalog(str(path)).scenarios) == {"s", "inline"}


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda x: 10.0**x)


@st.composite
def designs(draw):
    """A valid generator, circuit (inductance included) and drive, with a
    total damping ratio of at least 1e-12, overdamped included.  The drive is within a factor sqrt(10)
    of resonance, or detuned from it by 1e-14 to 0.3 of w_n."""
    mass = draw(_log_uniform(-5, -1))
    wn = draw(_log_uniform(1, 4))
    g = GeneratorParams(
        mass_kg=mass,
        stiffness_n_per_m=mass * wn * wn,
        zeta_parasitic=draw(st.one_of(st.just(0.0), _log_uniform(-12, -0.7))),
    )
    c = CoilCircuit(
        turns=draw(st.integers(0, 2000)),
        side_length_m=draw(_log_uniform(-4, -2)),
        flux_density_t=draw(st.one_of(st.just(0.0), _log_uniform(-8, 0.17))),
        r_coil_ohm=draw(st.floats(0.0, 1e3)),
        l_coil_h=draw(st.one_of(st.just(0.0), _log_uniform(-6, 0))),
        r_load_ohm=draw(_log_uniform(0, 5)),
    )
    detuning = st.tuples(st.sampled_from([-1.0, 1.0]), _log_uniform(-14, -0.52)).map(
        lambda sd: 1.0 + sd[0] * sd[1]
    )
    w = natural_frequency(g) * draw(st.one_of(_log_uniform(-0.5, 0.5), detuning))
    assume(total_damping(g, c, w)[2] >= 1e-12)
    return g, c, Excitation(amplitude_m=draw(_log_uniform(-9, -3)), omega_rad_per_s=w)


@st.composite
def resistive_designs(draw):
    """A generator and an L = 0 circuit with parasitic and electrical damping
    ratios each in [1e-6, 0.025]; the flux density is solved from the latter."""
    mass = draw(_log_uniform(-5, -1))
    wn = draw(_log_uniform(1, 4))
    g = GeneratorParams(mass, mass * wn * wn, draw(_log_uniform(-6, -1.6)))
    turns = draw(st.integers(1, 2000))
    side = draw(_log_uniform(-4, -2))
    r_coil = draw(st.floats(0.0, 1e3))
    r_load = draw(_log_uniform(0, 5))
    c_e = 2.0 * mass * wn * draw(_log_uniform(-6, -1.6))
    flux = math.sqrt(c_e * (r_load + r_coil)) / (turns * side)
    return g, CoilCircuit(turns, side, flux, r_coil, r_load_ohm=r_load)


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
@given(designs(), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_motion_equals_its_parts(design, wl_over_r):
    # the one-pass evaluation equals the public wrappers bit for bit, with a
    # coil inductance of wL/R from 0 to 1 in place of the drawn one
    g, c, e = design
    w = e.omega_rad_per_s
    c = replace(c, l_coil_h=wl_over_r * (c.r_load_ohm + c.r_coil_ohm) / w)
    c_p, c_e, zeta_t = total_damping(g, c, w)
    assume(zeta_t >= 1e-12)
    rp = evaluate_response(g, c, e)
    # total_damping is the tail of the terms evaluate_response reads whole
    assert _damping_terms(g, c, w) == (
        natural_frequency(g), c.coupling_v_s_per_m,
        math.hypot(c.r_load_ohm + c.r_coil_ohm, w * c.l_coil_h), c_p, c_e, zeta_t,
    )
    assert (c_p, c_e) == (damping_coefficient_from_ratio(g.zeta_parasitic, g),
                          em_damping_coefficient(c, w))
    assert (rp.z_amplitude_m, rp.phase_rad) == displacement_response(g, zeta_t, e)
    assert rp.p_dissipated_w == dissipated_power(g, zeta_t, e)
    assert rp.emf_rms_v == c.coupling_v_s_per_m * rp.z_amplitude_m * w / math.sqrt(2.0)


@CLOSED_FORM
@given(_log_uniform(0, 4), _log_uniform(0, 4))
def test_q_factors_round_trip(q_open, q_electrical):
    d = compose_q_factors(q_open_circuit=q_open, q_electrical=q_electrical)
    for pair in ({"q_open_circuit": d.q_open_circuit}, {"q_electrical": d.q_electrical}):
        back = compose_q_factors(q_total=d.q_total, **pair)
        assert math.isclose(back.q_open_circuit, q_open, rel_tol=1e-9)
        assert math.isclose(back.q_electrical, q_electrical, rel_tol=1e-9)


@CLOSED_FORM
@given(resistive_designs())
def test_matched_load_beats_its_neighbours(design):
    g, c = design
    r_opt = optimal_load(c, damping_coefficient_from_ratio(g.zeta_parasitic, g))
    e = Excitation(1e-6, natural_frequency(g))

    def p_load(r_load):
        return evaluate_response(g, replace(c, r_load_ohm=r_load), e).p_load_w

    best = p_load(r_opt)
    assert best > p_load(0.99 * r_opt)
    assert best > p_load(1.01 * r_opt)


@CLOSED_FORM
@given(resistive_designs())
def test_half_power_q_from_closed_form_sweep(design):
    g, c = design
    wn = natural_frequency(g)
    zeta_t = total_damping(g, c, wn)[2]
    f0 = wn / (2.0 * math.pi)
    # 241 points across five half-power bandwidths either side of f0
    freqs = [f0 * (1.0 + zeta_t * (i - 120) / 12.0) for i in range(241)]
    mags = [evaluate_response(g, c, Excitation(1e-6, 2.0 * math.pi * f)).z_amplitude_m
            for f in freqs]
    q, _ = extract_q_half_power(SweepCurve(tuple(freqs), tuple(mags), "m", 1.0, "peak"))
    assert abs(q * 2.0 * zeta_t - 1.0) <= 0.02
