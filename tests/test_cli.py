import gc
import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from emharvest import cli, load_catalog, sim
from emharvest._csvrows import format_rows
from emharvest.cli import _NUM, _emit_csv, main

BENCH = """
[generator.bench]
mass_kg = 1e-3
stiffness_n_per_m = 568.4892135027469
zeta_parasitic = 0.05
turns = 100
side_length_m = 1e-3
flux_density_t = 0.5
r_coil_ohm = 50
r_load_ohm = 150

[scenario.bench_run]
generator = bench
accel_m_s2 = 2.0
freq_hz = 120
dt_s = 1e-4
duration_s = 0.8

[scenario.fixed]
generator = bench
accel_m_s2 = 2.0
freq_hz = 120

[scenario.silent]
generator = bench
accel_m_s2 = 0.0
freq_hz = 120

[device.bench]
volume_mm3 = 10
active_mass_kg = 1e-3
resonant_frequency_hz = 120
measured_power_w = 1e-6
measured_at_acceleration_m_s2 = 2.0
"""

RUSHED = """
[generator.hiq]
mass_kg = 4.4e-4
stiffness_n_per_m = 2127.8867088748652
zeta_parasitic = 2.3148148148148147e-3
turns = 600
side_length_m = 6.547452702628663e-4
flux_density_t = 0.41
r_coil_ohm = 93
r_load_ohm = 100

[scenario.rushed]
generator = hiq
accel_m_s2 = 3.0
freq_hz = 350
dt_s = 2e-5
duration_s = 0.05
"""


def report(text):
    """Parse 'label : value' report lines into a dict of strings."""
    out = {}
    for line in text.strip().splitlines():
        if ":" in line:
            label, _, value = line.partition(":")
            out[label.strip()] = value.strip()
    return out


def bench_config(tmp_path, text=BENCH):
    path = tmp_path / "bench.ini"
    path.write_text(text)
    return str(path)


class TestModelCommand:
    def test_cantilever_report(self, capsys):
        assert main(["model", "--scenario", "cantilever_nominal"]) == 0
        rep = report(capsys.readouterr().out)
        assert float(rep["base amplitude m (peak)"]) == pytest.approx(
            6.203337774020682e-07, rel=1e-9
        )
        assert float(rep["load voltage V rms"]) == pytest.approx(
            1.6881943016134132e-02, rel=1e-9
        )
        assert float(rep["load power W"]) == pytest.approx(2.85e-6, rel=1e-6)
        assert float(rep["natural frequency Hz"]) == pytest.approx(350.0, rel=1e-9)
        assert float(rep["optimal load ohm"]) == pytest.approx(
            98.79119402954474, rel=1e-9
        )
        assert rep["displacement limit"] == "none configured"

    def test_lateral_report(self, capsys):
        assert main(["model", "--scenario", "lateral_nominal"]) == 0
        rep = report(capsys.readouterr().out)
        # at the printed precision: %.8e rounds the figure to within 5e-9
        assert float(rep["relative amplitude m"]) == pytest.approx(
            1.6110348867230438e-07, rel=5e-9, abs=0
        )
        assert rep["displacement limit"].startswith("pass")

    def test_rms_tag_scales_base_amplitude(self, capsys):
        main(["model", "--scenario", "cantilever_nominal"])
        peak = float(report(capsys.readouterr().out)["base amplitude m (peak)"])
        main(["model", "--scenario", "cantilever_nominal", "--accel-tag", "rms"])
        rms = float(report(capsys.readouterr().out)["base amplitude m (peak)"])
        # at the printed precision: %.8e rounds each figure to within 5e-9
        assert rms == pytest.approx(peak * math.sqrt(2.0), rel=5e-9, abs=0)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        main(["model", "--scenario", "cantilever_nominal"])
        direct = capsys.readouterr().out
        target = tmp_path / "report.txt"
        main(["model", "--scenario", "cantilever_nominal", "--out", str(target)])
        assert capsys.readouterr().out == ""
        assert target.read_text() == direct

    def test_zero_drive_reports_zero_response(self, tmp_path, capsys):
        cfg = bench_config(tmp_path)
        assert main(["model", "--config", cfg, "--scenario", "silent"]) == 0
        rep = report(capsys.readouterr().out)
        assert float(rep["relative amplitude m"]) == 0.0
        assert float(rep["load voltage V rms"]) == 0.0

    @pytest.mark.parametrize(
        "key, value",
        [("accel_m_s2 = 0.0", "accel_m_s2 = nan"),
         ("mass_kg = 1e-3", "mass_kg = inf"),
         ("side_length_m = 1e-3", "side_length_m = nan"),
         ("freq_hz = 120", "freq_hz = inf"),
         ("measured_power_w = 1e-6", "measured_power_w = nan")],
        ids=["accel-nan", "mass-inf", "side-nan", "freq-inf", "device-power-nan"],
    )
    def test_non_finite_catalog_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = bench_config(tmp_path, BENCH.replace(key, value))
        assert main(["model", "--config", cfg, "--scenario", "silent"]) == 2
        assert key.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, key",
        [("r_load_ohm = 150", "r_load_ohm = 150\ndisplacement_limit = 1e-5",
          "[generator.bench] unknown or unused key(s): displacement_limit"),
         ("accel_m_s2 = 0.0", "accel_m_s2 = 0.0\nmass_kg = 1.0",
          "[scenario.silent] unknown or unused key(s): mass_kg")],
        ids=["misspelled-key", "inline-key-beside-reference"],
    )
    def test_unread_catalog_key_exits_2(self, tmp_path, capsys, old, new, key):
        cfg = bench_config(tmp_path, BENCH.replace(old, new))
        assert main(["model", "--config", cfg, "--scenario", "silent"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    def test_optimal_load_past_the_float_range_exits_3(self, tmp_path, capsys):
        # c_p = 2 m w_n zeta_p is subnormal, so Phi^2 / c_p overflows
        cfg = bench_config(tmp_path, BENCH.replace("zeta_parasitic = 0.05",
                                                   "zeta_parasitic = 5e-324"))
        assert main(["model", "--config", cfg, "--scenario", "bench_run"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "optimal load resistance must be >= 0 and finite, got inf" in captured.err

    def test_readme_catalog_example_runs(self, tmp_path, capsys):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        block = re.search(r"```ini\n(.*?)```", readme.read_text(), re.S).group(1)
        cfg = bench_config(tmp_path, block)
        assert main(["model", "--config", cfg, "--scenario", "cantilever_nominal"]) == 0
        from_readme = capsys.readouterr().out
        assert main(["model", "--scenario", "cantilever_nominal"]) == 0
        assert from_readme == capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["model", "--scenario", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        # an empty path and a directory cannot be read, each named quoted, as
        # --out names its path; the null device reads as a catalog with no sections
        unreadable = "cannot read config file"
        for config, message in [("/no/such/file.ini", unreadable), ("", unreadable),
                                (str(tmp_path), unreadable),
                                (os.devnull, "unknown scenario 'bench_run'; available: (none)")]:
            code = main(["model", "--config", config, "--scenario", "bench_run"])
            captured = capsys.readouterr()
            assert code == 2, config
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err, config
            assert "Traceback" not in captured.err
            if config == "":
                assert captured.err == ("error: cannot read config file '': "
                                        "[Errno 2] No such file or directory: ''\n")

    # a 300-byte file name passes _check_out; only the open refuses it, which
    # simulate reaches after its run, with its summary not yet written
    @pytest.mark.parametrize("command, target", [
        ("model", "no_such_dir/report.txt"), ("model", "."), ("model", "x" * 300),
        ("simulate", "x" * 300),
    ], ids=["missing-directory", "a-directory", "name-too-long", "simulate-name-too-long"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command, target):
        out = str(tmp_path / target)
        assert main([command, "--scenario", "cantilever_nominal", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_undecodable_config_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.ini"
        path.write_bytes(BENCH.replace("[device.bench]", "; caf\xe9\n[device.bench]")
                         .encode("latin-1"))
        assert main(["model", "--config", str(path), "--scenario", "bench_run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {str(path)!r}: 'utf-8' codec")
        assert "Traceback" not in err

    def test_missing_scenario_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model"])
        assert exc.value.code == 2

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCommand:
    def test_frequency_csv_shape(self, tmp_path):
        out = tmp_path / "freq.csv"
        code = main(
            [
                "sweep", "--kind", "frequency",
                "--scenario", "cantilever_nominal", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "freq_hz,z_amp_m,emf_rms_v,p_load_w"
        assert len(lines) == 82
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert rows[0][0] == 340.0
        assert rows[-1][0] == 360.0
        peak = max(rows, key=lambda r: r[1])
        assert 349.0 < peak[0] < 351.0
        assert all(r[2] > 0.0 and r[3] > 0.0 for r in rows)

    def test_load_csv_peaks_near_matched_resistance(self, tmp_path):
        out = tmp_path / "load.csv"
        code = main(
            [
                "sweep", "--kind", "load",
                "--scenario", "cantilever_nominal", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r_load_ohm,p_load_w,p_total_w"
        assert len(lines) == 62
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        best = max(rows, key=lambda r: r[1])
        assert 80.0 < best[0] < 120.0
        assert all(r[1] <= r[2] for r in rows)

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--kind", "frequency", "--scenario", "lateral_nominal"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_range_exits_2(self, tmp_path, capsys):
        cfg = bench_config(tmp_path)
        code = main(
            ["sweep", "--kind", "load", "--config", cfg, "--scenario", "fixed"]
        )
        assert code == 2
        assert "load sweep" in capsys.readouterr().err


class TestSimulateCommand:
    def test_report_tracks_closed_form(self, tmp_path, capsys):
        cfg = bench_config(tmp_path)
        assert main(["model", "--config", cfg, "--scenario", "bench_run"]) == 0
        z_model = float(report(capsys.readouterr().out)["relative amplitude m"])
        assert main(["simulate", "--config", cfg, "--scenario", "bench_run"]) == 0
        rep = report(capsys.readouterr().out)
        assert float(rep["relative amplitude m"]) == pytest.approx(z_model, rel=5e-3)
        assert float(rep["energy residual"]) < 1e-3
        assert int(rep["steps"]) == 8000

    def test_trace_csv(self, tmp_path, capsys):
        cfg = bench_config(tmp_path)
        out = tmp_path / "trace.csv"
        code = main(
            ["simulate", "--config", cfg, "--scenario", "bench_run", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "t_s,z_m,zdot_m_s,emf_v,p_load_w"
        assert len(lines) == 8002
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 0.0, 0.0, 0.0, 0.0]
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(0.8, rel=1e-9)

    def test_zero_drive_trace_is_at_rest(self, tmp_path, capsys):
        # accel_m_s2 = 0 over two blocks and two samples: every row is its
        # time and four zeros, every figure 0
        text = BENCH.replace("accel_m_s2 = 0.0\nfreq_hz = 120",
                             "accel_m_s2 = 0.0\nfreq_hz = 120\ndt_s = 1e-4\nduration_s = 0.8193")
        cfg = bench_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--scenario", "silent", "--out", str(out)]) == 0
        rep = report(capsys.readouterr().out)
        assert rep["steps"] == "8193"
        for label in ("relative amplitude m", "load power W", "energy residual"):
            assert rep[label] == "0.00000000e+00"
        t = np.arange(8194) * load_catalog(cfg).scenario("silent").sim.dt_s
        names = ("t_s", "z_m", "zdot_m_s", "emf_v", "p_load_w")
        expected = _reference_csv(names, [t, *np.zeros((4, 8194))])
        assert out.read_bytes() == expected.encode("utf-8")

    def test_unsettled_run_exits_4(self, tmp_path, capsys):
        path = tmp_path / "rushed.ini"
        path.write_text(RUSHED)
        code = main(["simulate", "--config", str(path), "--scenario", "rushed"])
        assert code == 4
        assert "settle" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_power_past_the_float_range_exits_3_naming_it(self, tmp_path, capsys):
        # accel_m_s2 = 1e300 settles, but |X_v|^2 / 2 leaves the float range: the
        # summary's power is named before the energy audit's squares overflow
        text = BENCH.replace("accel_m_s2 = 2.0\nfreq_hz = 120\ndt_s",
                             "accel_m_s2 = 1e300\nfreq_hz = 120\ndt_s")
        cfg = bench_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--config", cfg, "--scenario", "bench_run",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: p_load_avg_w must be >= 0 and finite, got inf\n"
        assert not out.exists()

    def test_coil_inductance_exits_3(self, tmp_path, capsys):
        text = BENCH.replace("r_load_ohm = 150", "r_load_ohm = 150\nl_coil_h = 1e-3")
        cfg = bench_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--scenario", "bench_run"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "l_coil_h" in captured.err
        # the closed form carries the inductance
        assert main(["model", "--config", cfg, "--scenario", "bench_run"]) == 0

    def test_overdamped_design_exits_3(self, tmp_path, capsys):
        # the cantilever with a strong coil: zeta_T ~ 1.07
        text = (
            RUSHED.replace("turns = 600", "turns = 2000")
            .replace("side_length_m = 6.547452702628663e-4", "side_length_m = 1e-2")
            .replace("flux_density_t = 0.41", "flux_density_t = 1")
        )
        cfg = bench_config(tmp_path, text)
        assert main(["model", "--config", cfg, "--scenario", "rushed"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--scenario", "rushed"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "total damping ratio" in captured.err
        assert "model and sweep" in captured.err

    def test_unwritable_trace_out_exits_2(self, tmp_path, capsys):
        cfg = bench_config(tmp_path)
        argv = ["simulate", "--config", cfg, "--scenario", "bench_run", "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["", "no_such_dir/trace.csv"],
                             ids=["a-directory", "missing-directory"])
    def test_unwritable_trace_out_fails_before_the_run(self, tmp_path, capsys, target):
        argv = ["simulate", "--scenario", "lateral_nominal", "--out", str(tmp_path / target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --out: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_trace_out_exits_2_before_the_run(self, capsys):
        assert main(["simulate", "--scenario", "lateral_nominal", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --out: empty path\n"

    def test_trace_out_is_not_created_by_a_failed_run(self, tmp_path, capsys, monkeypatch):
        # refused before the run, or failing the energy audit: the trace is
        # streamed only after the audit has passed
        text = BENCH.replace("r_load_ohm = 150", "r_load_ohm = 150\nl_coil_h = 1e-3")
        cfg = bench_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--config", cfg, "--scenario", "bench_run", "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()
        rk4 = sim._rk4

        def spoiled(*args):  # z' 1% high: the work and heat integrals do not balance
            named, v, drive, step, z_blocks = rk4(*args)
            return named, v * 1.01, drive, step, z_blocks

        monkeypatch.setattr(sim, "_rk4", spoiled)
        assert main(["simulate", "--scenario", "cantilever_nominal", "--out", str(out)]) == 3
        assert "energy balance residual" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_above_ceiling_exits_2(self, tmp_path, capsys):
        # rejected while the catalog is read, before any array exists
        cfg = bench_config(tmp_path, BENCH.replace("dt_s = 1e-4", "dt_s = 1e-300"))
        assert main(["simulate", "--config", cfg, "--scenario", "bench_run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [scenario.bench_run] duration_s / dt_s ")
        assert "duration_s=0.8 with dt_s=1e-300" in captured.err

    def test_step_too_coarse_for_natural_period_exits_3(self, tmp_path, capsys):
        # drive at w_n / 100 with dt = (1 / 1.2 Hz) / 60: fine for the drive,
        # far too coarse for the 120 Hz natural period
        text = BENCH + """
[scenario.slow_drive]
generator = bench
accel_m_s2 = 2.0
freq_hz = 1.2
dt_s = 0.013888888888888888
duration_s = 5.0
"""
        cfg = bench_config(tmp_path, text)
        assert main(["simulate", "--config", cfg, "--scenario", "slow_drive"]) == 3
        assert "natural" in capsys.readouterr().err


class TestBeamCommand:
    ARGS = [
        "beam",
        "--length", "5e-3",
        "--width", "2e-3",
        "--tip-mass", "4.4e-4",
        "--thicknesses", "50e-6,100e-6,150e-6",
    ]

    def test_table_shape_and_ordering(self, tmp_path):
        out = tmp_path / "beam.csv"
        code = main(
            self.ARGS + ["--materials", "silicon,stainless_302", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "thickness_m,silicon_hz,stainless_302_hz"
        assert len(lines) == 4
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        for prev, nxt in zip(rows, rows[1:]):
            assert nxt[1] > prev[1] and nxt[2] > prev[2]
        # tip mass dominates, so the stiffer material wins regardless of density
        assert all(r[2] > r[1] for r in rows)

    def test_default_materials_in_name_order(self, tmp_path):
        out = tmp_path / "beam.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == (
            "thickness_m,beryllium_copper_hz,silicon_hz,stainless_302_hz"
        )

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_material_exits_2(self, capsys):
        assert main(self.ARGS + ["--materials", "unobtainium"]) == 2
        assert "unobtainium" in capsys.readouterr().err

    def test_unknown_material_lists_available(self, capsys):
        assert main(self.ARGS + ["--materials", "silicon,unobtainium"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown material 'unobtainium'; "
            "available: beryllium_copper, silicon, stainless_302\n"
        )

    def test_repeated_material_exits_2(self, tmp_path, capsys):
        out = tmp_path / "beam.csv"
        argv = self.ARGS + ["--materials", "silicon,stainless_302, silicon", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --materials: repeated name(s): silicon\n"
        assert not out.exists()

    # every entry goes through the name lookup, so an empty one is an unknown name,
    # and an empty --materials is given, not the default
    @pytest.mark.parametrize("materials", ["", " , ", "silicon,", ",silicon"],
                             ids=["empty", "blank-entries", "trailing-empty", "leading-empty"])
    def test_empty_material_list_exits_2(self, tmp_path, capsys, materials):
        out = tmp_path / "beam.csv"
        assert main(self.ARGS + [f"--materials={materials}", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: unknown material ''; "
                                "available: beryllium_copper, silicon, stainless_302\n")
        assert not out.exists()

    def test_catalog_without_materials_exits_2(self, tmp_path, capsys):
        # BENCH has no [material.*] section, and no --materials names one
        out = tmp_path / "beam.csv"
        assert "[material." not in BENCH
        assert main(self.ARGS + ["--config", bench_config(tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no materials: the catalog has none\n"
        assert not out.exists()

    def test_bad_thickness_list_exits_2(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("50e-6,100e-6,150e-6")] = "thin,thick"
        assert main(argv) == 2

    # every entry goes through float, so an empty one is refused wherever it stands
    @pytest.mark.parametrize("thicknesses", [",", ",100e-6", "50e-6,,150e-6", "50e-6,"],
                             ids=["lone-comma", "leading-empty", "middle-empty", "trailing-empty"])
    def test_empty_thickness_list_exits_2(self, tmp_path, capsys, thicknesses):
        out = tmp_path / "beam.csv"
        argv = list(self.ARGS)
        argv[argv.index("50e-6,100e-6,150e-6")] = thicknesses
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --thicknesses: could not convert string to float: ''\n"
        assert not out.exists()

    def test_thickness_wider_than_beam_exits_3(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("50e-6,100e-6,150e-6")] = "3e-3"
        assert main(argv) == 3

    def test_length_out_of_float_range_exits_3(self, capsys):
        # L^3 overflows, so the stiffness's true value is under the float range
        argv = list(self.ARGS)
        argv[argv.index("5e-3")] = "1e103"
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bending_stiffness_n_per_m must be > 0 and finite, got 0.0\n"

    @pytest.mark.parametrize("length, width, tip_mass, thickness, name, value", [
        # inf / inf: the frequency read nan
        ("1", "1e300", "1e-3", "1e100", "bending_stiffness_n_per_m", "inf"),
        # L^3 raised OverflowError, which named nothing
        ("1e120", "1e-3", "1e-3", "1e-4", "bending_stiffness_n_per_m", "0.0"),
        # L^3 underflows to 0: the quotient raised ZeroDivisionError
        ("1e-300", "1e-3", "1e-3", "1e-4", "bending_stiffness_n_per_m", "inf"),
        # finite / inf: the frequency read 0
        ("1e100", "1e300", "1e-3", "1e-100", "effective_mass_kg", "inf"),
        # k / m overflows: the frequency read inf
        ("1e-100", "1e-3", "1e-300", "1e-3", "resonant_frequency_hz", "inf"),
    ], ids=["stiffness-over", "stiffness-under", "cube-under", "mass-over", "frequency-over"])
    def test_result_out_of_float_range_exits_3_naming_it(self, tmp_path, capsys, length, width,
                                                         tip_mass, thickness, name, value):
        out = tmp_path / "beam.csv"
        assert main(["beam", "--length", length, "--width", width, "--tip-mass", tip_mass,
                     "--thicknesses", thickness, "--materials", "silicon",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} must be > 0 and finite, got {value}\n"
        assert not out.exists()


class TestCompareCommand:
    def test_ranking(self, capsys):
        assert main(["compare"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "3.00000000e+00 m/s^2" in lines[0]
        data = [line.split() for line in lines[2:]]
        assert [row[1] for row in data] == ["pmg7", "cantilever_micro", "lateral_micro"]
        assert float(data[0][5]) == pytest.approx(2615.01210653753, rel=1e-8)
        assert float(data[1][5]) == pytest.approx(47.5, rel=1e-8)

    def test_catalog_without_devices_exits_2(self, tmp_path, capsys):
        cfg = bench_config(tmp_path, BENCH.split("[device.bench]")[0])
        assert main(["compare", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: catalog has no device sections\n"

    def test_target_accel_rescales_but_keeps_order(self, capsys):
        assert main(["compare", "--target-accel", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        data = [line.split() for line in lines[2:]]
        assert [row[1] for row in data] == ["pmg7", "cantilever_micro", "lateral_micro"]
        assert float(data[1][5]) == pytest.approx(47.5 / 9.0, rel=1e-9)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["beam", "--length", "inf", "--width", "2e-3", "--tip-mass", "4.4e-4",
          "--thicknesses", "50e-6"], "length_m"),
        (["beam", "--length", "5e-3", "--width", "2e-3", "--tip-mass", "inf",
          "--thicknesses", "50e-6"], "tip_mass_kg"),
        (["beam", "--length", "5e-3", "--width", "2e-3", "--tip-mass", "4.4e-4",
          "--thicknesses", "50e-6,inf"], "thickness_m"),
        (["beam", "--length", "nan", "--width", "2e-3", "--tip-mass", "4.4e-4",
          "--thicknesses", "50e-6"], "length_m"),
        (["compare", "--target-accel", "inf"], "a_target_m_s2"),
        (["compare", "--target-accel", "nan"], "a_target_m_s2"),
        (["compare", "--target-accel=-inf"], "a_target_m_s2"),
    ],
    ids=["beam-length-inf", "beam-tip-mass-inf", "beam-thickness-inf", "beam-length-nan",
         "compare-accel-inf", "compare-accel-nan", "compare-accel-neg-inf"],
)
def test_non_finite_command_line_number_exits_3(capsys, argv, name):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err


def test_arithmetic_past_the_float_range_exits_3(tmp_path, capsys, monkeypatch):
    # an OverflowError that no check names still exits 3, with nothing written
    def overflow(*args):
        raise OverflowError(34, "Numerical result out of range")

    monkeypatch.setattr(cli, "evaluate_response", overflow)
    out = tmp_path / "report.txt"
    assert main(["model", "--scenario", "cantilever_nominal", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: value out of floating-point range: "
                            "(34, 'Numerical result out of range')\n")
    assert not out.exists()


OUT_COMMANDS = {
    "model": ["model", "--scenario", "cantilever_nominal"],
    "sweep": ["sweep", "--kind", "frequency", "--scenario", "cantilever_nominal"],
    "sweep-load": ["sweep", "--kind", "load", "--scenario", "cantilever_nominal"],
    "simulate": ["simulate", "--scenario", "lateral_nominal"],
    "beam": TestBeamCommand.ARGS,
    "compare": ["compare"],
}


@pytest.mark.parametrize("target", ["empty", "directory", "missing-directory"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys, command, target):
    # one rule for every subcommand: nothing runs, nothing is written or created
    out, message = {
        "empty": ("", "empty path"),
        "directory": (str(tmp_path), f"{str(tmp_path)!r} is a directory"),
        "missing-directory": (str(tmp_path / "missing" / "out.txt"),
                              f"no directory {str(tmp_path / 'missing')!r}"),
    }[target]
    assert main([*OUT_COMMANDS[command], "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_failed_write_to_out_exits_2(capsys, command):
    # /dev/full opens but refuses every write: the write or the close fails after
    # the work, and the error is --out's, as a failed open's is
    assert main([*OUT_COMMANDS[command], "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --out: [Errno 28] ")
    assert captured.err.count("\n") == 1


def _child_env():
    """The environment of a child that imports this emharvest, with stdout
    buffered as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(pathlib.Path(cli.__file__).parents[1]),
                                         *filter(None, [env.get("PYTHONPATH")])])
    return env


def _run_cli(argv, stdout, cwd):
    """The exit code and stderr of a fresh `python -m emharvest.cli` process writing
    to the stdout file object."""
    run = subprocess.run([sys.executable, "-m", "emharvest.cli", *argv], stdout=stdout,
                         stderr=subprocess.PIPE, text=True, env=_child_env(), cwd=cwd,
                         timeout=120)
    assert "Traceback" not in run.stderr
    return run.returncode, run.stderr


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_closed_stdout_pipe_exits_141_quietly(tmp_path, command):
    # the reader has left before the first write, so the write or the flush at
    # the end meets EPIPE whatever the size of the output
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "wb") as stdout:
        assert _run_cli(OUT_COMMANDS[command], stdout, tmp_path) == (141, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", [*OUT_COMMANDS, "simulate-out"])
def test_failed_write_to_stdout_exits_2(tmp_path, command):
    # simulate --out writes its trace, then its summary to a full stdout
    argv = (OUT_COMMANDS["simulate"] + ["--out", "trace.csv"] if command == "simulate-out"
            else OUT_COMMANDS[command])
    with open("/dev/full", "w") as stdout:
        code, err = _run_cli(argv, stdout, tmp_path)
    assert code == 2
    assert err == "error: stdout: [Errno 28] No space left on device\n"
    assert (tmp_path / "trace.csv").exists() == (command == "simulate-out")


# what `python -m emharvest.cli` runs, with the exit code and gc's freeze count
# reported on a last stderr line once the module's own exit has been caught
_ENTRY = """\
import gc, runpy, sys
try:
    runpy.run_module("emharvest.cli", run_name="__main__")
except SystemExit as exit:
    print("exit", exit.code, "frozen", gc.get_freeze_count(), file=sys.stderr)
"""


@pytest.mark.parametrize("code", [0, 2, 3, 4])
def test_process_entry_exits_with_each_documented_code_after_freezing_gc(
        tmp_path, capsys, code):
    # every exit path of a fresh process goes through run(), which freezes gc
    # before main(); stdout is main's to the byte
    (tmp_path / "rushed.ini").write_text(RUSHED)
    argv, error = {
        0: (OUT_COMMANDS["model"], None),
        2: (["model", "--scenario", "nowhere"], "error: unknown scenario 'nowhere'; "),
        3: (["compare", "--target-accel", "nan"], "error: a_target_m_s2 "),
        4: (["simulate", "--config", "rushed.ini", "--scenario", "rushed"],
            "error: simulation did not settle: "),
    }[code]
    run = subprocess.run([sys.executable, "-c", _ENTRY, *argv], capture_output=True,
                         env=_child_env(), cwd=tmp_path, timeout=120)
    assert run.returncode == 0
    assert "Traceback" not in run.stderr.decode("utf-8")
    *lines, last = run.stderr.decode("utf-8").splitlines()
    exit_code, frozen = re.fullmatch(r"exit (\d+) frozen (\d+)", last).groups()
    assert int(exit_code) == code
    assert int(frozen) > 0
    if error is None:
        assert lines == []
        assert main(argv) == 0
        assert run.stdout == capsys.readouterr().out.encode("utf-8")
    else:
        assert run.stdout == b""
        assert len(lines) == 1 and lines[0].startswith(error)


def test_console_script_is_the_process_entry_and_main_leaves_gc_alone():
    # a freeze keeps alive whatever cyclic garbage exists at the call, so only the
    # process entry makes it; in-process callers of main() keep their collector
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    assert re.findall(r'^emharvest\s*=\s*"([^"]*)"', section.group(1), re.M) == [
        "emharvest.cli:run"]
    frozen = gc.get_freeze_count()
    assert main(OUT_COMMANDS["model"]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("read", [
    "eh.load_catalog()",
    "eh.SweepCurve.from_csv('frequency.csv', 1.0)",
    "eh.LoadSweep.from_csv('load.csv')",
])
def test_bundled_catalog_and_measurement_csvs_are_read_as_utf8(tmp_path, read):
    # --config and --out are UTF-8 whatever the locale; so are the bundled catalog and
    # the CSV readers, which a locale-encoding open makes raise under these flags
    for kind in ("frequency", "load"):
        assert main(["sweep", "--scenario", "cantilever_nominal", "--kind", kind,
                     "--out", str(tmp_path / f"{kind}.csv")]) == 0
    run = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                          "-W", "error::EncodingWarning", "-c", f"import emharvest as eh; {read}"],
                         capture_output=True, text=True, env=_child_env(), cwd=tmp_path,
                         timeout=120)
    assert (run.returncode, run.stderr) == (0, "")


def _reference_csv(names, columns):
    """The CSV text of a row-at-a-time writer: the header, every row with one
    _NUM per value, one newline after each line."""
    fmt = ",".join([_NUM] * len(names))
    rows = [fmt % tuple(row) for row in zip(*columns)]
    return "\n".join([",".join(names), *rows]) + "\n"


@pytest.mark.parametrize("n_rows", [0, 1, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_csv_writer_matches_row_reference_across_blocks(tmp_path, capsys, n_rows, to_file):
    rng = np.random.default_rng(n_rows)
    # signs, zeros and exponents across the float range, as the trace has
    columns = [
        rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows),
        np.zeros(n_rows),
        np.arange(n_rows) * 2e-5,
    ]
    names = ("a", "b", "t_s")
    path = tmp_path / "table.csv"
    _emit_csv(names, [columns], str(path) if to_file else None)
    written = path.read_bytes() if to_file else capsys.readouterr().out.encode("utf-8")
    assert written == _reference_csv(names, columns).encode("utf-8")


def _percent_rows(block):
    """A 2-D block as the writer's ``%`` line formats it."""
    row = ",".join([_NUM] * block.shape[1]) + "\n"
    return row * len(block) % tuple(block.ravel().tolist())


# the edges of what format_rows can prove: signed zeros, subnormals,
# 3-digit exponents either side of its limit, exact ties of the 9th digit,
# values one rounding below the next decade, and the non-finite values
EDGES = [
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e-291, 1e-290, 9.99e290,
    1e291, 1.7976931348623157e308, 9.9999999996e-3, -9.99999999951, 9.999999995e99,
    100000000.5, 100000001.5, -0.5, 2.5, 1.0000000005, 123456789.5e-200,
    math.nan, math.inf, -math.inf,
]
ANY_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from(EDGES),
    st.builds(lambda m, k: m * 10.0**k, st.floats(-9.999, 9.999), st.integers(-300, 300)),
)
# the nearest double to a 9-digit decimal is far from every rounding tie,
# so the kernel has no reason to decline it
NINE_DIGITS = st.builds(
    lambda sign, digits, k: sign * float(f"{digits}e{k - 8}"),
    st.sampled_from([1.0, -1.0]),
    st.integers(10**8, 10**9 - 1),
    st.integers(-290, 290),
) | st.sampled_from([0.0, -0.0])
BLOCKS = dict(dtype=np.float64, shape=array_shapes(min_dims=2, max_dims=2, max_side=8))


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(arrays(elements=ANY_FLOAT, **BLOCKS))
def test_format_rows_is_percent_or_declines(block):
    text = format_rows(block)
    assert text is None or text == _percent_rows(block)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(arrays(elements=NINE_DIGITS, **BLOCKS))
def test_format_rows_formats_every_nine_digit_value(block):
    assert format_rows(block) == _percent_rows(block)


@pytest.mark.parametrize("value", [
    100000000.5, 100000001.5, 9.9999999996e-3, 9.999999995e99, 5e-324, 1e291,
    math.nan, math.inf, -math.inf,
])
def test_format_rows_declines_what_it_cannot_prove(value):
    assert format_rows(np.array([[1.0, value]])) is None


def test_csv_writer_falls_back_only_where_needed(tmp_path):
    # the rows around 5000 hold a NaN and an inf, those around 9000 an exact
    # tie; every byte still equals the row-at-a-time reference, whether the
    # columns come whole or in chunks of any size, across the formatting blocks
    n_rows = 3 * 4096
    rng = np.random.default_rng(7)
    columns = [np.arange(n_rows) * 2e-5, rng.standard_normal(n_rows) * 1e-3,
               np.zeros(n_rows)]
    columns[1][5000] = math.nan
    columns[2][6000] = -math.inf
    columns[1][9000] = 100000000.5
    names = ("t_s", "z_m", "p_w")
    assert format_rows(np.column_stack([c[:4096] for c in columns])) is not None
    expected = _reference_csv(names, columns).encode("utf-8")
    assert b"nan" in expected and b"-inf" in expected
    for size in (None, 1, 1023, 1024, 1025, 4096):
        chunks = [columns] if size is None else [
            [c[i:i + size] for c in columns] for i in range(0, n_rows, size)]
        _emit_csv(names, chunks, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_bytes() == expected, size


def test_csv_writer_memory_does_not_grow_with_the_table(tmp_path):
    # the size of the bundled cantilever scenario's simulate trace, 125,001 x 5;
    # formatting it as one string takes ~30 MB
    n_rows = 125_001
    columns = [np.linspace(-1.0, 1.0, n_rows) * (k + 1.5) for k in range(5)]
    names = ("t_s", "z_m", "zdot_m_s", "emf_v", "p_load_w")
    tracemalloc.start()
    try:
        _emit_csv(names, [columns], str(tmp_path / "trace.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == n_rows + 1


def test_simulate_out_holds_no_more_memory_than_a_run_without_a_trace(tmp_path, capsys):
    # the trace is written block by block from the RK4 run, after its audit:
    # no whole-run t, z, emf or p_load column exists
    argv = ["simulate", "--scenario", "cantilever_nominal"]
    traced = [*argv, "--out", str(tmp_path / "trace.csv")]
    assert main(traced) == 0  # the writer's module and tables, loaded once per process
    peaks = []
    for run in (argv, traced):
        tracemalloc.start()
        try:
            assert main(run) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= peaks[0] + 1e6, peaks


# sha256 of every CLI artefact of the two bundled scenarios; for
# `simulate --out` the digest covers stdout followed by the trace file.  They
# were recorded before damping, EMF, step count and peak refinement were each
# given a single home in the source, which left every byte unchanged.  Only a
# correctness fix logged in CHANGES.md may update a digest.  The four simulate
# digests were re-recorded when the RK4 run moved from its step loop to its
# closed form, which moved trace cells in their last printed digit and the
# energy residual line.
PINNED_ARTEFACTS = [
    pytest.param(
        ["model", "--scenario", "cantilever_nominal"],
        "75bedfc98ddcffecba3592cb19e2dd82ca13a117e465e21786f899b3ec55a4cc",
        id="model-cantilever",
    ),
    pytest.param(
        ["model", "--scenario", "cantilever_nominal", "--accel-tag", "rms"],
        "b1ecbd45ffa8053ad1e121afa2fc2b3ca42f5ea210f7fa270dc6f737e9d22c28",
        id="model-rms-cantilever",
    ),
    pytest.param(
        ["sweep", "--kind", "frequency", "--scenario", "cantilever_nominal"],
        "1b21a4dfb55377051a2bb500fa4c86cf54ca24b6b6ca8adde4e4db2c2cfffbf6",
        id="sweep-frequency-cantilever",
    ),
    pytest.param(
        ["sweep", "--kind", "load", "--scenario", "cantilever_nominal"],
        "728ad8b6a37300699ff1a9ff747582cdc5bde31c140f728d2e4f3557de2788c2",
        id="sweep-load-cantilever",
    ),
    pytest.param(
        ["simulate", "--scenario", "cantilever_nominal"],
        "3c0a1a3e5ce6a1739c7b9513f8ffcabef3b26868dd8a66bc25f70f83882a08c5",
        id="simulate-cantilever",
    ),
    pytest.param(
        ["simulate", "--scenario", "cantilever_nominal", "--out"],
        "25f8519fec951e7cc7767750ffbc12d4b25cdca8270875346f45f9b8d7d814d6",
        id="simulate-out-cantilever",
    ),
    pytest.param(
        ["model", "--scenario", "lateral_nominal"],
        "144ccd65d1e945b1d3ec2b35478cf7535b59d202ac7500add53ff08be31feff8",
        id="model-lateral",
    ),
    pytest.param(
        ["model", "--scenario", "lateral_nominal", "--accel-tag", "rms"],
        "98c444c353171894654f33a2c4476cb0f1fb0be1f489c26de19b3f7586418b73",
        id="model-rms-lateral",
    ),
    pytest.param(
        ["sweep", "--kind", "frequency", "--scenario", "lateral_nominal"],
        "55dccce66a8a204bfa0b5465e8f943c773b52e5cfb791399c7a1105161c930b4",
        id="sweep-frequency-lateral",
    ),
    pytest.param(
        ["sweep", "--kind", "load", "--scenario", "lateral_nominal"],
        "0647af189578618f7f6fa5de013bf0511622aba6e461e264174d93b73c79ed7c",
        id="sweep-load-lateral",
    ),
    pytest.param(
        ["simulate", "--scenario", "lateral_nominal"],
        "69c77af4e38c66f8b9d71846f527e016c762af794fd677d01466d81829e97301",
        id="simulate-lateral",
    ),
    pytest.param(
        ["simulate", "--scenario", "lateral_nominal", "--out"],
        "71ba15ff9275ce6d7a8a430443d7463e0c329497aaba43287d320b93dc1570c5",
        id="simulate-out-lateral",
    ),
    pytest.param(
        TestBeamCommand.ARGS,
        "1ae28edac7ebdf704af7a1dae933418633bf04ee0c45ebbbea1eeef340fa19db",
        id="beam",
    ),
    pytest.param(
        ["compare"],
        "097fe8beda4fbb766a4d88c6abf55cb51c914a8adfa050ee26d302edbd92e5d0",
        id="compare",
    ),
]


@pytest.mark.parametrize("argv, digest", PINNED_ARTEFACTS)
def test_bundled_artefacts_are_pinned(tmp_path, capsys, argv, digest):
    argv = list(argv)
    trace = tmp_path / "trace.csv"
    if argv[-1] == "--out":
        argv.append(str(trace))
    assert main(argv) == 0
    blob = capsys.readouterr().out.encode("utf-8")
    if trace.exists():
        blob += trace.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest
