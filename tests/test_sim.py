import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emharvest
from emharvest import sim
from emharvest.analysis import SweepCurve, decompose_damping, extract_q_half_power
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
from emharvest.sim import (
    SimConfig,
    SimulationNotSettled,
    SweepPointError,
    _rk4,
    frequency_sweep_sim,
    simulate,
)

DEG = math.pi / 180.0


def make_gen(mass=1e-3, wn=2.0 * math.pi * 100.0, zeta_p=0.05):
    return GeneratorParams(mass, mass * wn * wn, zeta_p)


def dead_coil(r_load=1.0):
    # no transduction: the electrical path contributes nothing
    return CoilCircuit(turns=0, side_length_m=0.0, flux_density_t=0.0,
                       r_coil_ohm=0.0, r_load_ohm=r_load)


def live_coil(r_load=110.0):
    return CoilCircuit(turns=600, side_length_m=2.4e-3, flux_density_t=0.29,
                       r_coil_ohm=100.0, r_load_ohm=r_load)


class TestSimConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt_s=0.0, duration_s=1.0),
            dict(dt_s=-1e-4, duration_s=1.0),
            dict(dt_s=1e-2, duration_s=1e-2),
            dict(dt_s=1e-4, duration_s=math.inf),
            dict(dt_s=1e-4, duration_s=1e-3),  # 10 steps: duration_s must exceed 10*dt_s
            dict(dt_s=1e-300, duration_s=1e10),  # a step count past the float range
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_suggest_resolves_both_periods(self):
        g = make_gen(wn=2.0 * math.pi * 100.0)
        for w_drive in (2.0 * math.pi * 25.0, 2.0 * math.pi * 400.0):
            cfg = SimConfig.suggest(g, dead_coil(), w_drive)
            assert cfg.dt_s <= 2.0 * math.pi / w_drive / 64.0
            assert cfg.dt_s <= 2.0 * math.pi / natural_frequency(g) / 64.0

    def test_suggest_duration_covers_settling(self):
        # 10 damping time constants of the zeta_t simulate reads on this run
        g = make_gen(zeta_p=0.0023)
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, dead_coil(), wn)
        zeta_t = total_damping(g, dead_coil(), wn)[2]
        assert cfg.duration_s == 10.0 / (zeta_t * wn)

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_suggest_duration_is_the_settle_rule_alone_under_heavy_damping(self, ratio):
        # Q_T = 2: 10 time constants are 40 / w_n, 6.4 drive periods at
        # resonance and 3.2 at half of it; no period count stretches the run
        g = make_gen(zeta_p=0.25)
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, dead_coil(), ratio * wn)
        zeta_t = total_damping(g, dead_coil(), ratio * wn)[2]
        assert cfg.duration_s == 10.0 / (zeta_t * wn)

    def test_suggest_rejects_undamped(self):
        g = make_gen(zeta_p=0.0)
        with pytest.raises(ValueError, match="never settles"):
            SimConfig.suggest(g, dead_coil(), 100.0)

    def test_suggest_holds_high_q_phase_within_bound(self):
        # Q_T = 1000: 64 steps per period left the phase 1.54e-3 rad off
        g = make_gen(zeta_p=5e-4)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, dead_coil(), wn))
        assert abs(s.phase_rad - evaluate_response(g, dead_coil(), e).phase_rad) < 1e-3

    @pytest.mark.parametrize("q_t, steps", [(100.0, 64), (640.0, 64), (1000.0, 72), (1e4, 127)])
    def test_suggest_step_count_follows_q(self, q_t, steps):
        # 2 Q_T (w dt)^4 / 120 <= 1e-3 rad; at Q_T = 1e4 a 64-step run fails its
        # own energy audit, so this is checked by arithmetic, without running it
        g = make_gen(zeta_p=1.0 / (2.0 * q_t))
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, dead_coil(), wn)
        assert round(2.0 * math.pi / wn / cfg.dt_s) == steps
        assert 2.0 * q_t * (wn * cfg.dt_s) ** 4 / 120.0 <= 1e-3

    def test_suggest_names_its_own_ceiling(self):
        # constructed only: Q_T = 3.5e4 at 100 Hz fits, 3.6e4 does not
        wn = 2.0 * math.pi * 100.0
        fits = SimConfig.suggest(make_gen(wn=wn, zeta_p=0.5 / 3.5e4), dead_coil(), wn)
        assert fits.n_steps == 19_385_072
        with pytest.raises(ValueError, match=r"^the suggested run for Q_T=36000 takes 20053523 "
                                             r"steps, over the 20000000-step ceiling; "
                                             r"set dt_s and duration_s in the catalog$"):
            SimConfig.suggest(make_gen(wn=wn, zeta_p=0.5 / 3.6e4), dead_coil(), wn)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.2, 3000.0), st.booleans(), st.floats(0.5, 2.0))
    def test_suggest_takes_whole_steps_per_natural_period(self, q_t, loaded, ratio):
        # N = 2 pi / w_n / dt is whole, with at least the n steps of a resonant run
        # per drive period and at most one more per natural period; at or below w_n
        # the step is the drive-or-natural-period rule's, bit for bit
        g, c = q_design(q_t, loaded)
        wn = natural_frequency(g)
        w = ratio * wn
        n = round(2.0 * math.pi / wn / SimConfig.suggest(g, c, wn).dt_s)
        assert n >= 64
        dt = SimConfig.suggest(g, c, w).dt_s
        steps = 2.0 * math.pi / wn / dt
        assert abs(steps - round(steps)) <= 1e-12 * steps
        assert 2.0 * math.pi / w / dt >= n * (1.0 - 1e-12)
        assert round(steps) <= n * max(w / wn, 1.0) + 1.0
        if w <= wn:
            assert dt.hex() == (2.0 * math.pi / max(w, wn) / n).hex()

    def test_suggest_past_the_float_range_names_its_ceiling(self):
        # w / w_n = 1e450 overflows: the run is past the step ceiling, named as such,
        # and no OverflowError escapes from rounding its steps per natural period
        g = GeneratorParams(1.0, 1e-300, 0.01)
        with pytest.raises(ValueError, match=r"^the suggested run for Q_T=50 takes inf steps, "
                                             r"over the 20000000-step ceiling; "
                                             r"set dt_s and duration_s in the catalog$"):
            SimConfig.suggest(g, dead_coil(), 1e300)

    # constructed only: a run this long would hold ~21 bytes per step (~41 with a trace)
    @pytest.mark.parametrize("dt", [1e-300, 1e-9])
    def test_rejects_steps_above_ceiling(self, dt):
        with pytest.raises(ValueError, match=r"duration_s / dt_s .*duration_s=2\.5 with dt_s="):
            SimConfig(dt, 2.5)

    def test_ceiling_admits_its_own_step_count(self):
        assert SimConfig(1.0, float(sim._MAX_STEPS)).n_steps == sim._MAX_STEPS
        with pytest.raises(ValueError, match="duration_s / dt_s"):
            SimConfig(1.0, float(sim._MAX_STEPS + 1))


def record_orbits(monkeypatch):
    """Have every run record the forced orbit (X_z, X_v) of its RK4 map, the
    steady state its summary reads; returns the list they are appended to."""
    orbits = []

    def recording(*args):
        out = _rk4(*args)
        orbits.append(out[3][5])
        return out

    monkeypatch.setattr(sim, "_rk4", recording)
    return orbits


# zero-drive runs: one long enough for a driven run to settle, one too short
# for it (its window opens ~0.5 time constants in, at every ratio tested)
ZERO_RUN, SHORT_RUN = SimConfig(5e-5, 0.5), SimConfig(5e-5, 0.02)


def window_mean(trace, cfg):
    """The trace's mean load power over the measurement window."""
    return float(np.mean(trace.p_load_w[int(sim._SETTLE_FRACTION * cfg.n_steps):]))


def partial_period(cfg, e):
    """How far a window mean of a steady power may sit from its period mean:
    the power is P (1 - cos(2 w t + phi)), and a window of length T leaves at
    most 1 / (w T) of the cosine in its mean."""
    window = (cfg.n_steps - int(sim._SETTLE_FRACTION * cfg.n_steps)) * cfg.dt_s
    return 1.0 / (e.omega_rad_per_s * window)


class TestSimulate:
    def test_resonant_amplitude_matches_closed_form(self):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, dead_coil(), wn))
        assert s.z_amp_m == pytest.approx(1e-6 / (2.0 * 0.05), rel=5e-3)
        assert s.phase_rad == pytest.approx(math.pi / 2.0, abs=DEG)

    def test_below_resonance_matches_closed_form(self):
        g = make_gen(zeta_p=0.01)
        w = 0.5 * natural_frequency(g)
        e = Excitation(1e-6, w)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, dead_coil(), w))
        expect, _ = displacement_response(g, 0.01, e)
        assert s.z_amp_m == pytest.approx(expect, rel=5e-3)

    def test_zero_excitation_all_zero(self):
        # every figure, phase included, is +0.0, below, at and above resonance,
        # with and without a trace, also where a driven run would not settle
        g, c = make_gen(), live_coil()
        for cfg, ratio, return_trace in itertools.product(
                (ZERO_RUN, SHORT_RUN), (0.5, 1.0, 2.0), (False, True, "blocks")):
            w = ratio * natural_frequency(g)
            if cfg is SHORT_RUN:
                with pytest.raises(SimulationNotSettled):
                    simulate(g, c, Excitation(1e-6, w), cfg)
            out = simulate(g, c, Excitation(0.0, w), cfg, return_trace=return_trace)
            s = out[0] if return_trace else out
            assert s == simulate(g, c, Excitation(0.0, w), cfg)
            for f in fields(s):
                x = getattr(s, f.name)
                assert x == 0.0 and math.copysign(1.0, x) == 1.0, (cfg, ratio, f.name)

    def test_zero_excitation_trace_is_all_zero(self):
        g = make_gen()
        for cfg, ratio in itertools.product((ZERO_RUN, SHORT_RUN), (0.5, 1.0, 2.0)):
            e = Excitation(0.0, ratio * natural_frequency(g))
            s, trace = simulate(g, live_coil(), e, cfg, return_trace=True)
            assert s.z_amp_m == 0.0
            np.testing.assert_array_equal(trace.t_s, np.arange(cfg.n_steps + 1) * cfg.dt_s)
            for column in (trace.z_m, trace.zdot_m_s, trace.emf_v, trace.p_load_w):
                assert column.shape == (cfg.n_steps + 1,)
                assert not column.any()
                assert not np.signbit(column).any()  # a trace CSV prints no -0
            _, blocks = simulate(g, live_coil(), e, cfg, return_trace="blocks")
            assert_streams(blocks, trace)

    def test_zero_drive_runs_the_integrator(self, monkeypatch):
        orbits = record_orbits(monkeypatch)
        g = make_gen()
        simulate(g, live_coil(), Excitation(0.0, natural_frequency(g)), ZERO_RUN)
        assert orbits == [(0j, 0j)]

    def test_tiny_drive_keeps_its_rms_velocity_and_emf(self):
        # Y = 1e-300 m at resonance: |X_v| ~ 6e-297 is in range, |X_v|^2 / 2 is not.
        # The run is linear in Y, so v_rms and emf are 1e-294 times a 1e-6 m run's;
        # the powers' true values are below the float range and read 0
        g, c = make_gen(zeta_p=0.05), live_coil(math.inf)
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, c, wn)
        ref = simulate(g, c, Excitation(1e-6, wn), cfg)
        tiny = simulate(g, c, Excitation(1e-300, wn), cfg)
        # math.isclose, not pytest.approx, whose default abs tolerance admits 0.0
        for f in ("z_amp_m", "v_rel_rms_m_per_s", "emf_rms_v"):
            assert math.isclose(getattr(tiny, f), 1e-294 * getattr(ref, f), rel_tol=1e-12), f
        assert math.isclose(tiny.v_rel_rms_m_per_s, 4.44e-297, rel_tol=1e-3)
        assert tiny.emf_rms_v == c.coupling_v_s_per_m * tiny.v_rel_rms_m_per_s
        assert tiny.p_load_avg_w == tiny.p_parasitic_avg_w == 0.0

    @pytest.mark.parametrize("zeta", [0.002, 0.0063245553203367585, 0.02, 0.0632455532033676, 0.2])
    @pytest.mark.parametrize("ratio", [0.5, 0.875, 1.25, 1.625, 2.0])
    def test_oracle_grid_amplitude_and_phase(self, zeta, ratio):
        g = make_gen(zeta_p=zeta)
        w = ratio * natural_frequency(g)
        e = Excitation(1e-6, w)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, dead_coil(), w))
        amp, phase = displacement_response(g, zeta, e)
        assert s.z_amp_m == pytest.approx(amp, rel=5e-3)
        assert abs(s.phase_rad - phase) < DEG

    def test_energy_balance_is_tight(self):
        g = make_gen(zeta_p=0.01)
        wn = natural_frequency(g)
        s = simulate(g, dead_coil(), Excitation(1e-6, wn), SimConfig.suggest(g, dead_coil(), wn))
        assert s.energy_balance_residual < 1e-5

    def test_fourth_order_convergence(self):
        # amplitude error against the closed form must drop by at least 8x
        # per halving of dt; measured by sinusoid fit on the trace tail
        g = make_gen(zeta_p=0.1)
        w = 0.9 * natural_frequency(g)
        e = Excitation(1e-6, w)
        exact, _ = displacement_response(g, 0.1, e)
        period = 2.0 * math.pi / w

        def fitted_error(steps_per_period):
            dt = period / steps_per_period
            cfg = SimConfig(dt_s=dt, duration_s=0.35)
            _, trace = simulate(g, dead_coil(), e, cfg, return_trace=True)
            i0 = int(0.75 * round(0.35 / dt))
            t, z = trace.t_s[i0:], trace.z_m[i0:]
            design = np.column_stack([np.sin(w * t), np.cos(w * t)])
            coef, *_ = np.linalg.lstsq(design, z, rcond=None)
            return abs(math.hypot(coef[0], coef[1]) - exact)

        assert fitted_error(64) / fitted_error(128) >= 8.0

    def test_transient_past_the_float_range_is_not_settled(self):
        # w_n = 2.4e-149 rad/s against a ~1e297 m/s response: (z' - Im(X_v q^i0)) / w_n
        # leaves the float range, which reads as an infinite transient, not a numpy warning
        g = GeneratorParams(1e300, 568.4892135027469, 0.05)
        e = Excitation.from_acceleration(1e300, 2.0 * math.pi * 120.0)
        with pytest.raises(SimulationNotSettled, match="transient is inf of the amplitude"):
            simulate(g, dead_coil(), e, SimConfig(1e-4, 0.5))

    def test_high_q_short_run_fails_to_settle(self):
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023)
        e = Excitation(6.2e-7, wn)
        with pytest.raises(SimulationNotSettled, match="settle limit"):
            simulate(g, dead_coil(), e, SimConfig(2e-5, 0.1))

    @pytest.mark.filterwarnings("error")
    def test_settle_test_alone_judges_a_high_q_run(self):
        # Q_T = 217: a run of 6 to 9.9 damping time constants settles, silently,
        # and reads the suggested 10-constant run's forced orbit, so every figure
        # but the residual is the same bits; at 5 the window opens too early
        wn = 2.0 * math.pi * 350.0
        g, c = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023), dead_coil()
        e = Excitation(6.2e-7, wn)
        cfg = SimConfig.suggest(g, c, wn)
        assert cfg.duration_s == pytest.approx(10.0 / (0.0023 * wn), rel=1e-12)

        def figures(s):
            return [getattr(s, f.name).hex() for f in fields(s)
                    if f.name != "energy_balance_residual"]

        ref = figures(simulate(g, c, e, cfg))
        for constants in (6.0, 7.0, 9.9):
            cut = SimConfig(cfg.dt_s, constants / 10.0 * cfg.duration_s)
            assert figures(simulate(g, c, e, cut)) == ref, constants
        with pytest.raises(SimulationNotSettled, match="settle limit"):
            simulate(g, c, e, SimConfig(cfg.dt_s, 0.5 * cfg.duration_s))

    def test_coarse_step_rejected(self):
        g = make_gen()
        w = natural_frequency(g)
        period = 2.0 * math.pi / w
        with pytest.raises(ValueError, match="steps"):
            simulate(g, dead_coil(), Excitation(1e-6, w), SimConfig(period / 40.0, 1.0))

    def test_step_too_coarse_for_natural_period_rejected(self):
        # 60 steps per drive period is fine for the drive, but at w = w_n / 100
        # it puts h * w_n far beyond the RK4 stability bound of 2 * sqrt(2)
        g = make_gen()
        w = natural_frequency(g) / 100.0
        period = 2.0 * math.pi / w
        cfg = SimConfig(period / 60.0, 5.0 * period)
        with pytest.raises(ValueError, match="natural"):
            simulate(g, dead_coil(), Excitation(1e-6, w), cfg)

    def test_undamped_rejected(self):
        g = make_gen(zeta_p=0.0)
        with pytest.raises(ValueError, match="damping ratio"):
            simulate(g, dead_coil(), Excitation(1e-6, 100.0), SimConfig(1e-4, 1.0))

    def test_coil_inductance_rejected(self):
        # the load-power split has no coil current state, so with L > 0 it
        # overstates load power (+100% at wL/R = 1) while amplitudes agree
        g = make_gen()
        c = CoilCircuit(turns=100, side_length_m=1e-3, flux_density_t=0.5,
                        r_coil_ohm=50.0, l_coil_h=1e-3, r_load_ohm=150.0)
        w = natural_frequency(g)
        with pytest.raises(ValueError, match="l_coil_h"):
            simulate(g, c, Excitation(1e-6, w), SimConfig.suggest(g, c, w))
        # an open circuit carries no current, so there the inductance is moot
        [(_, s_open)] = frequency_sweep_sim(g, c, [w], 3.0, open_circuit=True)
        [(_, s_dead)] = frequency_sweep_sim(g, dead_coil(), [w], 3.0)
        assert s_open.z_amp_m == s_dead.z_amp_m
        assert s_open.p_load_avg_w == 0.0

    def test_trace_is_consistent(self):
        zeta = 0.05
        wn = 2.0 * math.pi * 9500.0
        g = GeneratorParams(2.8e-5, 2.8e-5 * wn * wn, zeta)
        c = live_coil(r_load=110.0)
        e = Excitation(1e-9, wn)
        cfg = SimConfig.suggest(g, c, wn)
        s, trace = simulate(g, c, e, cfg, return_trace=True)
        assert trace.z_m[0] == 0.0 and trace.zdot_m_s[0] == 0.0
        assert np.allclose(trace.emf_v, c.coupling_v_s_per_m * trace.zdot_m_s)
        divider = c.r_load_ohm / (c.r_load_ohm + c.r_coil_ohm) ** 2
        assert np.allclose(trace.p_load_w, trace.emf_v**2 * divider)
        steps = np.diff(trace.t_s)
        assert steps.max() == pytest.approx(cfg.dt_s, rel=1e-9)
        assert s.p_load_avg_w > 0.0

    @pytest.mark.parametrize("r_load", [110.0, math.inf])
    def test_summary_load_power_is_the_trace_window_mean(self, monkeypatch, r_load):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        cfg = SimConfig.suggest(g, live_coil(r_load), wn)
        orbits = record_orbits(monkeypatch)
        s, trace = simulate(g, live_coil(r_load), e, cfg, return_trace=True)
        assert simulate(g, live_coil(r_load), e, cfg) == s
        c = live_coil(r_load)
        phi, r_series = c.coupling_v_s_per_m, r_load + c.r_coil_ohm
        share = 0.0 if r_load == math.inf else r_load / (r_series * r_series)
        x_v = orbits[0][1]
        assert s.p_load_avg_w == phi * phi * share * (0.5 * abs(x_v) ** 2)
        assert math.isclose(window_mean(trace, cfg), s.p_load_avg_w,
                            rel_tol=partial_period(cfg, e))
        if r_load == math.inf:
            assert not trace.p_load_w.any()

    @pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
    def test_bundled_load_power_is_coupling_share_times_mean_square_velocity(
            self, monkeypatch, name):
        scn = emharvest.load_catalog().scenario(name)
        g, c = scn.generator.params, scn.generator.circuit
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
        orbits = record_orbits(monkeypatch)
        s, trace = simulate(g, c, e, scn.sim, return_trace=True)
        phi, r_series = c.coupling_v_s_per_m, c.r_load_ohm + c.r_coil_ohm
        share = c.r_load_ohm / (r_series * r_series)
        [(_, x_v)] = orbits
        assert s.p_load_avg_w == phi * phi * share * (0.5 * abs(x_v) ** 2)
        assert math.isclose(window_mean(trace, scn.sim), s.p_load_avg_w,
                            rel_tol=partial_period(scn.sim, e))

    def test_huge_load_resistance_delivers_no_load_power(self):
        # (R_load + R_coil)^2 leaves the float range; the closed form reads 0 W
        scn = emharvest.load_catalog().scenario("cantilever_nominal")
        g = scn.generator.params
        c = CoilCircuit(100, 5e-3, 0.3, 50.0, 0.0, 1e200)
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
        assert evaluate_response(g, c, e).p_load_w == 0.0
        assert simulate(g, c, e, scn.sim).p_load_avg_w == 0.0

    @pytest.mark.parametrize("r_load", [110.0, math.inf])
    def test_powers_are_damping_times_mean_square_velocity(self, r_load):
        g = make_gen(zeta_p=0.05)
        c = live_coil(r_load)
        wn = natural_frequency(g)
        s = simulate(g, c, Excitation(1e-6, wn), SimConfig.suggest(g, c, wn))
        c_p = total_damping(g, c, wn)[0]
        phi = c.coupling_v_s_per_m
        share = 0.0 if r_load == math.inf else r_load / (r_load + c.r_coil_ohm) ** 2
        ms = s.v_rel_rms_m_per_s ** 2
        assert math.isclose(s.p_parasitic_avg_w, c_p * ms, rel_tol=1e-15)
        assert math.isclose(s.p_load_avg_w, phi * phi * share * ms, rel_tol=1e-15)
        assert (s.p_load_avg_w == 0.0) == (r_load == math.inf)

    @pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
    def test_bundled_summaries_hold_python_floats(self, name):
        scn = emharvest.load_catalog().scenario(name)
        g, c = scn.generator.params, scn.generator.circuit
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
        assert [type(v) for v in astuple(simulate(g, c, e, scn.sim))] == [float] * 7

    def test_energy_audit_rejects_a_wrong_integrator(self, monkeypatch):
        # z' 1% high everywhere: the work and heat integrals no longer balance
        scn = emharvest.load_catalog().scenario("cantilever_nominal")
        g, c = scn.generator.params, scn.generator.circuit
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)

        def spoiled(*args):
            named, v, sin, step, z_blocks = _rk4(*args)
            return named, v * 1.01, sin, step, z_blocks

        monkeypatch.setattr(sim, "_rk4", spoiled)
        with pytest.raises(ValueError,
                           match=r"^energy balance residual 9\.09e-03 exceeds 0\.001; reduce dt_s$"):
            simulate(g, c, e, scn.sim)

    def test_electrical_damping_lowers_amplitude(self):
        wn = 2.0 * math.pi * 9500.0
        g = GeneratorParams(2.8e-5, 2.8e-5 * wn * wn, 0.0028)
        e = Excitation(1e-9, wn)
        cfg = SimConfig.suggest(g, live_coil(), wn)
        s_open = simulate(g, dead_coil(), e, cfg)
        s_loaded = simulate(g, live_coil(), e, cfg)
        assert s_loaded.z_amp_m < s_open.z_amp_m


def per_step_rk4(n_samples, dt, forcing, w, two_zw, wn2, at):
    """The per-step form of sim._rk4: math.sin at every step, states kept in
    whole-run lists, its own drive np.sin(w t), the step map of
    sim._rk4_map, whose forced orbit simulate reads, z with _cis's phase at
    each named sample, and (z, z') as one block.  The closed form must
    reproduce z and z' within 1e-11 of their largest value (RK4_REL)."""
    t = np.arange(n_samples) * dt
    sin = math.sin
    half = 0.5 * dt
    sixth = dt / 6.0
    z = 0.0
    v = 0.0
    zs = [0.0]
    vs = [0.0]
    for i in range(len(t) - 1):
        t0 = i * dt
        f0 = forcing * sin(w * t0)
        fm = forcing * sin(w * (t0 + half))
        f1 = forcing * sin(w * (t0 + dt))
        a1 = f0 - two_zw * v - wn2 * z
        z2 = z + half * v
        v2 = v + half * a1
        a2 = fm - two_zw * v2 - wn2 * z2
        z3 = z + half * v2
        v3 = v + half * a2
        a3 = fm - two_zw * v3 - wn2 * z3
        z4 = z + dt * v3
        v4 = v + dt * a3
        a4 = f1 - two_zw * v4 - wn2 * z4
        z += sixth * (v + 2.0 * (v2 + v3) + v4)
        v += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        zs.append(z)
        vs.append(v)
    step = sim._rk4_map(dt, forcing, w, two_zw, wn2)
    z, v = np.asarray(zs), np.asarray(vs)
    named = [(z[s], sim._cis(step[0], step[1], s)) for s in at]
    return named, v, np.sin(w * t), step, iter([(z, v)])


def whole_run(rk4, *args):
    """z and z' at every sample of rk4's run, from its (z, z') blocks drained;
    their z' is the run's returned z' bit for bit."""
    _, v, _, _, blocks = rk4(*args, ())
    z, zdot = (np.concatenate(column) for column in zip(*blocks))
    assert zdot.tobytes() == v.tobytes()
    return z, zdot


def assert_streams(blocks, trace):
    """The blocks hold five columns of at most one _rk4 block each, which
    together are the trace's columns bit for bit."""
    blocks = list(blocks)
    assert all(len(b) == 5 and 0 < len(b[0]) <= sim._BLOCK_STEPS for b in blocks)
    for column, f in zip(zip(*blocks), fields(trace)):
        assert np.concatenate(column).tobytes() == getattr(trace, f.name).tobytes(), f.name


# how far the closed-form RK4 may sit from the per-step loop, relative to the
# largest |z| or |z'| of the run: the two round differently, and the loop's
# rounding grows with the step count
RK4_REL = 1e-11


def assert_near_per_step(zv, ref_zv):
    for arr, ref in zip(zv, ref_zv):
        assert np.max(np.abs(arr - ref)) <= RK4_REL * np.max(np.abs(ref))


class TestBlockedDrive:
    @staticmethod
    def _run(monkeypatch, rk4, g, c, e, cfg):
        """simulate with rk4 as its evaluator (the step map, and with it the
        forced orbit, is sim._rk4_map's either way): the (z, z') it produced
        and simulate's (summary, trace), or None if the run does not settle."""
        seen = []

        def recording(*args):
            named, v, sin, step, blocks = rk4(*args)
            seen.append((np.concatenate([z for z, _ in blocks]), v))
            return named, v, sin, step, iter([seen[-1]])

        monkeypatch.setattr(sim, "_rk4", recording)
        try:
            result = simulate(g, c, e, cfg, return_trace=True)
        except SimulationNotSettled:
            result = None
        [zv] = seen
        return zv, result

    # one partial block, a block short, exact, one over, two blocks and a step
    @pytest.mark.parametrize("n_steps", [11, 4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("open_circuit", [False, True])
    def test_trace_and_summary_equal_per_step_form(self, monkeypatch, n_steps, open_circuit):
        g = make_gen()
        c = replace(live_coil(), r_load_ohm=math.inf) if open_circuit else live_coil()
        w = 1.1 * natural_frequency(g)
        dt = 2.0 * math.pi / w / 64.0
        cfg = SimConfig(dt, n_steps * dt)
        assert cfg.n_steps == n_steps
        e = Excitation(1e-6, w)
        ref_zv, ref = self._run(monkeypatch, per_step_rk4, g, c, e, cfg)
        new_zv, new = self._run(monkeypatch, _rk4, g, c, e, cfg)
        assert_near_per_step(new_zv, ref_zv)
        if n_steps < 64:  # under a drive period: the transient is the whole response
            assert ref is None and new is None
            return
        (ref_s, ref_tr), (new_s, new_tr) = ref, new
        assert_near_per_step((new_tr.z_m, new_tr.zdot_m_s), (ref_tr.z_m, ref_tr.zdot_m_s))
        for f in fields(ref_s):
            new_v, ref_v = getattr(new_s, f.name), getattr(ref_s, f.name)
            if f.name == "energy_balance_residual":  # a small difference of large integrals
                assert abs(new_v - ref_v) <= RK4_REL
            else:
                assert math.isclose(new_v, ref_v, rel_tol=RK4_REL), f.name

    @pytest.mark.parametrize("n_steps", [11, 4095, 4096, 4097])
    def test_run_is_the_start_of_a_longer_run(self, n_steps):
        # each sample depends on its index alone, bit for bit, across blocks
        g = make_gen()
        wn = natural_frequency(g)
        w = 1.1 * wn
        dt = 2.0 * math.pi / w / 64.0
        args = (dt, 1e-6 * w * w, w, 2.0 * 0.05 * wn, wn * wn)
        z_long, v_long = whole_run(_rk4, 8194, *args)
        z, v = whole_run(_rk4, n_steps + 1, *args)
        assert z.tobytes() == z_long[:n_steps + 1].tobytes()
        assert v.tobytes() == v_long[:n_steps + 1].tobytes()
        assert z[0] == v[0] == 0.0


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    zeta=st.floats(1e-4, 1.0 - 1e-12),
    ratio=st.floats(0.5, 2.0),
    steps_per_period=st.floats(50.0, 200.0),
    n_steps=st.integers(11, 10_000),
    wn=st.floats(1.0, 1e5),
)
def test_closed_form_rk4_matches_per_step_loop(zeta, ratio, steps_per_period, n_steps, wn):
    w = ratio * wn
    dt = 2.0 * math.pi / max(w, wn) / steps_per_period
    args = (n_steps + 1, dt, 1e-6 * w * w, w, 2.0 * zeta * wn, wn * wn)
    assert_near_per_step(whole_run(_rk4, *args), whole_run(per_step_rk4, *args))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    zeta=st.floats(1e-2, 0.5),
    ratio=st.floats(0.5, 2.0),
    steps_per_period=st.floats(50.0, 200.0),
)
def test_summary_is_the_settled_per_step_loop(zeta, ratio, steps_per_period):
    # the per-step loop from rest, fitted with a sinusoid over its last two
    # drive periods, which open once its transient is e^-32 (1.3e-14) of where it began
    g = make_gen(zeta_p=zeta)
    wn = natural_frequency(g)
    w = ratio * wn
    dt = 2.0 * math.pi / max(w, wn) / steps_per_period
    zeta_t = total_damping(g, dead_coil(), w)[2]
    i_tail = math.ceil(32.0 / (zeta_t * wn * dt))
    n_steps = i_tail + math.ceil(4.0 * math.pi / (w * dt))
    cfg = SimConfig(dt, n_steps * dt)
    assert cfg.n_steps == n_steps
    e = Excitation(1e-6, w)
    s = simulate(g, dead_coil(), e, cfg)
    z, v = whole_run(per_step_rk4, n_steps + 1, dt, e.amplitude_m * w * w, w, 2.0 * zeta_t * wn,
                     wn * wn)
    tail = np.arange(i_tail, n_steps + 1)
    design = np.column_stack([np.sin(w * tail * dt), np.cos(w * tail * dt)])
    (za, zb), (va, vb) = np.linalg.lstsq(design, np.column_stack([z[tail], v[tail]]),
                                         rcond=None)[0].T
    assert math.isclose(s.z_amp_m, math.hypot(za, zb), rel_tol=1e-11)
    assert math.isclose(s.phase_rad, math.atan2(-zb, za), rel_tol=1e-11)
    assert math.isclose(s.v_rel_rms_m_per_s, math.hypot(va, vb) / math.sqrt(2.0), rel_tol=1e-11)
    assert 0.0 <= s.phase_rad <= math.pi


_SETTLING = """
[generator.bench]
mass_kg = 1e-3
stiffness_n_per_m = 568.4892135027469
zeta_parasitic = 0.05
turns = 100
side_length_m = 1e-3
flux_density_t = 0.5
r_coil_ohm = 50
r_load_ohm = 150

[scenario.run]
generator = bench
accel_m_s2 = 2.0
freq_hz = 120
dt_s = 1e-4
duration_s = {duration!r}
"""


def test_settle_limit_is_the_transient_at_the_window_start(tmp_path, capsys):
    # the exact start-up transient hypot(r, r' / w_n) / A of the catalog run,
    # sample by sample: a window that opens on the last sample at least 0.1%
    # above the settle limit exits 4, one that opens on the next sample at
    # least 0.1% below it runs
    path = tmp_path / "settling.ini"
    path.write_text(_SETTLING.format(duration=1.0))
    scn = emharvest.load_catalog(path).scenario("run")
    g, c, dt = scn.generator.params, scn.generator.circuit, scn.sim.dt_s
    e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
    w, wn = e.omega_rad_per_s, natural_frequency(g)
    amp, _, ring, ring_dot = exact_ringing(np.arange(5000) * dt, e.amplitude_m * w * w, w,
                                           total_damping(g, c, w)[2], wn)
    size = np.hypot(ring, ring_dot / wn) / amp
    above = int(np.flatnonzero(size >= 1.001 * sim._SETTLE_LIMIT)[-1])
    below = above + int(np.flatnonzero(size[above:] <= 0.999 * sim._SETTLE_LIMIT)[0])
    assert 1000 < above < below < 2500
    for i0, code in ((above, 4), (below, 0)):
        n_steps = math.ceil(i0 / sim._SETTLE_FRACTION)  # the window opens on sample i0
        assert int(sim._SETTLE_FRACTION * n_steps) == i0
        path.write_text(_SETTLING.format(duration=n_steps * dt))
        assert main(["simulate", "--config", str(path), "--scenario", "run"]) == code
        err = capsys.readouterr().err
        assert ("settle limit" in err) == (code == 4)


def q_design(q_t, loaded, wn=2.0 * math.pi * 100.0):
    """A generator and circuit with total damping 1/(2 q_t): parasitic damping
    alone on an open circuit, or half of it electrical on a 50 + 50 ohm circuit."""
    mass, zeta_t = 1e-3, 0.5 / q_t
    c_e = 2.0 * mass * wn * zeta_t / 2.0 if loaded else 0.0
    c = CoilCircuit(1, math.sqrt(c_e * 100.0), 1.0, 50.0,
                    r_load_ohm=50.0 if loaded else math.inf)
    return make_gen(mass, wn, zeta_t / 2.0 if loaded else zeta_t), c


@pytest.mark.filterwarnings("error")
def test_suggested_runs_settle_with_margin(monkeypatch):
    # 10 damping time constants leave at most _SETTLE_LIMIT / 10 of the amplitude
    # at the default window start: the settle figure simulate tests, from _rk4's
    # named sample at i0 (8.7e-4 at worst, at Q_T = 1.2 and w / w_n = 2; a
    # Q_T = 1.2 run at w / w_n = 0.5 spans 1.9 drive periods)
    runs = []

    def recording(*args):
        out = _rk4(*args)
        runs.append((args[-1][0], out))
        return out

    monkeypatch.setattr(sim, "_rk4", recording)
    worst = 0.0
    for q_t, loaded, ratio in itertools.product((1.2, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0,
                                                 3000.0),
                                                (True, False), np.linspace(0.5, 2.0, 13)):
        g, c = q_design(q_t, loaded)
        wn = natural_frequency(g)
        s = simulate(g, c, Excitation(1e-6, ratio * wn), SimConfig.suggest(g, c, ratio * wn))
        i0, (((z_i0, q0), _), v, _, step, _) = runs.pop()
        x_z, x_v = step[5]
        figure = math.hypot(z_i0 - (x_z * q0).imag, (v[i0] - (x_v * q0).imag) / wn) / abs(x_z)
        assert figure <= sim._SETTLE_LIMIT / 10.0, (q_t, loaded, ratio)
        assert s.energy_balance_residual < sim._ENERGY_RESIDUAL_LIMIT
        worst = max(worst, figure)
    assert worst > sim._SETTLE_LIMIT / 20.0  # the margin is the rule's, not a slack grid's


def test_long_run_keeps_the_drive_phase():
    # 15,625 drive periods: a float phase w (s dt) at each block start is off
    # by up to ~1e-16 w t = 1.1e-11 rad, which a block holds for 4096 steps
    # (1.9e-11 of the peak); the per-step loop rounds each step's phase anew
    wn = 2.0 * math.pi * 100.0
    dt = 2.0 * math.pi / wn / 64.0
    args = (1_000_001, dt, 1e-6 * wn * wn, wn, 2.0 * 0.01 * wn, wn * wn)
    assert_near_per_step(whole_run(_rk4, *args), whole_run(per_step_rk4, *args))


def fraction_cis(w, dt, steps, per):
    """e^(i w dt steps / per) split as hi + lo, with the phase as a Fraction."""
    phase = Fraction(w) * Fraction(dt) * Fraction(steps, per)
    hi = float(phase)
    lo = float(phase - Fraction(hi))
    return complex(math.cos(hi) - lo * math.sin(hi), math.sin(hi) + lo * math.cos(hi))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    w=st.floats(allow_nan=False, allow_infinity=False),
    dt=st.floats(allow_nan=False, allow_infinity=False),
    steps=st.integers(0, 20_000_000),
    half=st.booleans(),
)
def test_integer_phase_equals_fraction_phase(w, dt, steps, half):
    # the half step is q^(1/2); every other call takes whole steps
    steps, per = (1, 2) if half else (steps, 1)
    (wp, wq), (dp, dq) = w.as_integer_ratio(), dt.as_integer_ratio()
    try:
        ref = fraction_cis(w, dt, steps, per)
    except OverflowError:  # a phase past the float range fails in both forms
        with pytest.raises(OverflowError):
            sim._cis(wp * dp, wq * dq, steps, per)
        return
    got = sim._cis(wp * dp, wq * dq, steps, per)
    assert got.real == ref.real and got.imag == ref.imag


def test_drive_keeps_the_exact_phase():
    # the 1M-sample grid of test_long_run_keeps_the_drive_phase: np.sin(w * t)
    # is up to 1.6e-11 off the exact phase here (the rounding of w (i dt)),
    # where the drive's block phase times its q^j table stays within 3.3e-16
    wn = 2.0 * math.pi * 100.0
    dt = 2.0 * math.pi / wn / 64.0
    n = 1_000_001
    sin = sim._rk4(n, dt, 1e-6 * wn * wn, wn, 2.0 * 0.01 * wn, wn * wn, ())[2]
    assert sin.shape == (n,)
    (wp, wq), (dp, dq) = wn.as_integer_ratio(), dt.as_integer_ratio()

    def exact(i):
        return sim._cis(wp * dp, wq * dq, int(i))

    rng = np.random.default_rng(7)
    for i in np.concatenate((rng.integers(0, n, 2000), [n - 1])):
        assert abs(sin[i] - exact(i).imag) <= 4e-16
    for start in range(0, n, sim._BLOCK_STEPS):  # each block starts on _cis's own bits
        assert sin[start] == exact(start).imag


# the bundled window starts (100000 and 42666), then, by run length, a window
# at a block start (24 x 4096) and one at a doubling level
@pytest.mark.parametrize("name, i0", [("cantilever_nominal", None), ("lateral_nominal", None),
                                      ("cantilever_nominal", 98304),
                                      ("cantilever_nominal", 2048)],
                         ids=["cantilever_nominal", "lateral_nominal",
                              "cantilever_nominal-i0=98304", "cantilever_nominal-i0=2048"])
def test_each_exact_phase_is_computed_once_per_run(monkeypatch, name, i0):
    # the integrator, the settle test, the audit and the trace, drained, share
    # one set of phases, with or without a trace
    scn = emharvest.load_catalog().scenario(name)
    g, c = scn.generator.params, scn.generator.circuit
    e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
    cfg = scn.sim
    if i0 is not None:
        cfg = replace(cfg, duration_s=i0 // 4 * 5 * cfg.dt_s)  # 2560 or 122880 steps
        assert int(sim._SETTLE_FRACTION * cfg.n_steps) == i0
    cis, calls = sim._cis, []

    def counting(num, den, steps, per=1):
        calls.append((num, den, steps, per))
        return cis(num, den, steps, per)

    monkeypatch.setattr(sim, "_cis", counting)
    for return_trace in (False, True):
        del calls[:]
        try:
            run = simulate(g, c, e, cfg, return_trace)
        except SimulationNotSettled:  # an early window: the phases are counted all the same
            assert i0 is not None and i0 < 98304
        else:
            assert not return_trace or len(run[1].z_m) == cfg.n_steps + 1
        assert calls and len(set(calls)) == len(calls), return_trace


def random_run(rng, n):
    """_rk4's arguments for a random underdamped run of n samples."""
    wn = 10.0 ** rng.uniform(0.0, 5.0)
    w = rng.uniform(0.5, 2.0) * wn
    dt = 2.0 * math.pi / max(w, wn) / rng.uniform(50.0, 200.0)
    return n, dt, 1e-6 * w * w, w, 2.0 * rng.uniform(1e-4, 0.99) * wn, wn * wn


def named_samples(rng, n):
    """Samples to name in a run of n: the first and last, block starts and
    ends, and a few anywhere, in increasing order."""
    m = sim._BLOCK_STEPS
    edges = [s for k in range(1, n // m + 1) for s in (k * m - 1, k * m, k * m + 1)]
    picks = [0, n - 1, *rng.integers(0, n, 2)]
    if edges:
        picks += list(rng.choice(edges, min(len(edges), 3), replace=False))
    return tuple(sorted(int(s) for s in picks if s < n))


def two_row_rk4(n_samples, dt, forcing, w, two_zw, wn2):
    """sim._rk4's block loop as it was before it streamed z: from the same
    tables, z and z' written over every block of one whole-run buffer, and
    the drive in its own array.  What _rk4 returns and streams must equal it
    bit for bit."""
    step = sim._rk4_map(dt, forcing, w, two_zw, wn2)
    m = 1
    while m < min(n_samples, sim._BLOCK_STEPS):
        m *= 2
    *rows, qt = sim._tables(step, m)

    def state(r, j):
        e0, e1, im, re = rows[r]
        return (x[r] + (e0[j] * x[0] + e1[j] * x[1])) + (q.real * im[j] + q.imag * re[j])

    zv = np.zeros((2, -(-(n_samples - 1) // m) * m + 1))
    sin = np.empty(n_samples)
    z0 = 0.0
    for start in range(0, n_samples, m):
        q = sim._cis(step[0], step[1], start)
        sin[start:start + m] = (q * qt[:n_samples - start]).imag
        x = (z0, zv[1, start])
        if start < n_samples - 1:
            for r in (0, 1):
                zv[r, start:start + m + 1] = state(r, slice(None))
            z0 = state(0, m)
    return zv[0, :n_samples], zv[1, :n_samples], sin, step


# a sample, two, a block short, exact, one over, two blocks and a step, three
# blocks and a step; then random lengths
@pytest.mark.parametrize("n", [2, 3, 4095, 4096, 4097, 8193, 12289, None])
def test_trace_free_run_is_the_two_row_run(n):
    # z' and the drive bit for bit, z at each named sample and over the drained
    # blocks as in the z row, with the drive's own phase there, and the drained
    # blocks' z' as the z' row, a lone last sample's included: 8 x 19 runs
    rng = np.random.default_rng(n or 0)
    for _ in range(19):
        args = random_run(rng, n or int(rng.integers(2, 13000)))
        at = named_samples(rng, args[0])
        z, v, sin, step = two_row_rk4(*args)
        named, v_at, sin_at, step_at, z_blocks = _rk4(*args, at)
        assert v_at.tobytes() == v.tobytes() and sin_at.tobytes() == sin.tobytes()
        assert step_at == step and len(named) == len(at)
        num, den = step[:2]
        for s, (z_s, q_s) in zip(at, named):
            assert np.float64(z_s).tobytes() == z[s].tobytes()
            assert q_s.imag == sin[s]
            assert abs(q_s - sim._cis(num, den, s)) <= 1e-15
        zs, zdots = zip(*z_blocks)
        assert np.concatenate(zs).tobytes() == z.tobytes()
        assert np.concatenate(zdots).tobytes() == v.tobytes()


@pytest.mark.parametrize("n", [3, 4097, 12289])
def test_trace_free_run_evaluates_z_only_at_block_ends_and_named_samples(monkeypatch, n):
    # the block loop forms z' over whole blocks and z at single columns only;
    # z and again z' over a block are formed only when the blocks are read,
    # once each; the one whole-run buffer holds z' and the drive
    m = min(sim._BLOCK_STEPS, 1 << (n - 1).bit_length())
    at = (0, m, n - 1) if n > m else (0, n - 1)
    calls, sizes = [], []
    state, zeros = sim._state, np.zeros

    def recording_state(row, r, x, q, j):
        calls.append((r, j))
        return state(row, r, x, q, j)

    def recording_zeros(shape, *args, **kwargs):
        sizes.append(shape)
        return zeros(shape, *args, **kwargs)

    args = random_run(np.random.default_rng(n), n)
    monkeypatch.setattr(sim, "_state", recording_state)
    monkeypatch.setattr(np, "zeros", recording_zeros)
    _, v, sin, _, z_blocks = _rk4(*args, at)
    expected = []
    for start in range(0, n, m):
        expected += [(0, s - start) for s in at if start <= s < start + m]
        if start < n - 1:
            expected += [(1, slice(None)), (0, m)]
    assert calls == expected
    # the P^j and R_j tables, then the buffer of z' and the drive
    assert sizes == [(2, 2, m + 1), (2, m + 1), (2, -(-(n - 1) // m) * m + 1)]
    assert v.base is sin.base is not None
    del calls[:]
    assert sum(len(z) for z, _ in z_blocks) == n
    assert calls == [(r, slice(min(m, n - start))) for start in range(0, n, m) for r in (0, 1)]


@pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
def test_trace_free_summary_is_the_traced_summary(name):
    scn = emharvest.load_catalog().scenario(name)
    g, c = scn.generator.params, scn.generator.circuit
    e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
    plain = simulate(g, c, e, scn.sim)
    traced, trace = simulate(g, c, e, scn.sim, return_trace=True)
    streamed, blocks = simulate(g, c, e, scn.sim, return_trace="blocks")
    assert [v.hex() for v in astuple(plain)] == [v.hex() for v in astuple(traced)]
    assert streamed == traced
    assert_streams(blocks, trace)


def test_trace_allocates_forty_bytes_per_sample():
    # a Trace is five float64 columns and nothing else outlives the run's peak:
    # one more whole-run temporary (8 bytes per sample, 1.6 MB here) fails this
    g, c = make_gen(), live_coil()
    w = natural_frequency(g)
    dt = 2.0 * math.pi / w / 64.0
    cfg = SimConfig(dt, 200_000 * dt)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, trace = simulate(g, c, Excitation(1e-6, w), cfg, return_trace=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(trace.t_s) == cfg.n_steps + 1
    assert peak <= 40 * (cfg.n_steps + 1) + 256 * 1024


def test_stream_holds_less_than_one_whole_run_column():
    # once the stream's first block is read, the run holds its tables, that
    # block and each block's start: the buffer of z' and the drive (16 bytes
    # per sample) has been freed, and no whole-run array is left (0.43 MB of
    # the 1.0 MB here on the cantilever run's 125,001 samples)
    scn = emharvest.load_catalog().scenario("cantilever_nominal")
    g, c = scn.generator.params, scn.generator.circuit
    e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
    simulate(g, c, e, scn.sim)  # any cache a first run fills, outside the count
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, blocks = simulate(g, c, e, scn.sim, return_trace="blocks")
        first = next(blocks)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(first[0]) == sim._BLOCK_STEPS
    assert held < 8 * (scn.sim.n_steps + 1), held


# (4097, 4096) and (12289, 4096): the last sample starts a block of its own,
# which has a drive but no state to write; i0 is a window start, where the
# run's drive is that of the run cut there
@pytest.mark.parametrize("n, i0", [(1, 0), (11, 8), (4096, 4095), (4097, 0), (8193, 4097),
                                   (4097, 4096), (12289, 4096)])
def test_drive_covers_every_sample_of_short_and_ragged_runs(n, i0):
    w, dt = 2.0 * math.pi * 100.0, 1e-4
    args = (dt, 1e-6 * w * w, w, 2.0 * 0.05 * w, w * w)
    sin = sim._rk4(n, *args, ())[2]
    (wp, wq), (dp, dq) = w.as_integer_ratio(), dt.as_integer_ratio()
    exact = np.array([sim._cis(wp * dp, wq * dq, i) for i in range(n)])
    # a few roundings: q^j is a product of up to log2(m) table factors
    assert np.max(np.abs(sin - exact.imag)) <= 1e-15
    assert sim._rk4(i0 + 1, *args, ())[2].tobytes() == sin[:i0 + 1].tobytes()


def exact_ringing(t, forcing, w, zeta, wn):
    """For z'' + 2 zeta wn z' + wn^2 z = forcing sin(w t) from rest, in closed
    form: the steady amplitude A and lag, and the damped ringing at w_d that
    cancels the steady sinusoid A sin(w t - lag) at t = 0,
    r = exp(-zeta wn t) (A sin(lag) cos(w_d t) + c2 sin(w_d t)), with r'."""
    amp = forcing / math.hypot(wn * wn - w * w, 2.0 * zeta * wn * w)
    lag = math.atan2(2.0 * zeta * wn * w, wn * wn - w * w)
    wd = wn * math.sqrt(1.0 - zeta * zeta)
    c1 = amp * math.sin(lag)
    c2 = (zeta * wn * c1 - amp * w * math.cos(lag)) / wd  # z'(0) = 0
    decay, cos, sin = np.exp(-zeta * wn * t), np.cos(wd * t), np.sin(wd * t)
    ring = decay * (c1 * cos + c2 * sin)
    ring_dot = decay * ((wd * c2 - zeta * wn * c1) * cos - (wd * c1 + zeta * wn * c2) * sin)
    return amp, lag, ring, ring_dot


def exact_from_rest(t, forcing, w, zeta, wn):
    """z(t) from rest (exact_ringing) and its steady amplitude A."""
    amp, lag, ring, _ = exact_ringing(t, forcing, w, zeta, wn)
    return amp * np.sin(w * t - lag) + ring, amp


class TestExactTransient:
    """The RK4 trace, transient included, against the exact from-rest
    response, which shares no arithmetic with _rk4 or evaluate_response."""

    @staticmethod
    def _bundled(name):
        """A bundled scenario's (g, c, e, cfg, zeta_T) and the exact response
        z on its sample grid, with the steady amplitude A."""
        scn = emharvest.load_catalog().scenario(name)
        g, c = scn.generator.params, scn.generator.circuit
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
        w, wn = e.omega_rad_per_s, natural_frequency(g)
        zeta = total_damping(g, c, w)[2]
        t = np.arange(scn.sim.n_steps + 1) * scn.sim.dt_s
        z, amp = exact_from_rest(t, e.amplitude_m * w * w, w, zeta, wn)
        return g, c, e, scn.sim, zeta, z, amp

    @pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
    def test_rk4_trace_within_its_phase_error_of_exact(self, name):
        g, c, e, cfg, zeta, z, amp = self._bundled(name)
        _, trace = simulate(g, c, e, cfg, return_trace=True)
        # RK4's phase error 2 Q_T (w h)^4 / 120 sets the whole deviation
        # (1.000005x and 1.00004x of it on the two scenarios)
        q_t = 0.5 / zeta
        phase_error = 2.0 * q_t * (e.omega_rad_per_s * cfg.dt_s) ** 4 / 120.0
        assert np.max(np.abs(trace.z_m - z)) <= 1.01 * phase_error * amp

    @pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
    def test_window_peak_is_the_closed_form_amplitude(self, name):
        g, c, e, cfg, zeta, z, _ = self._bundled(name)
        i0 = int(sim._SETTLE_FRACTION * cfg.n_steps)
        # what is left of the transient when the measurement window opens
        left = math.exp(-zeta * natural_frequency(g) * i0 * cfg.dt_s)
        expected = evaluate_response(g, c, e).z_amplitude_m
        assert np.max(z[i0:]) == pytest.approx(expected, rel=left)


class TestFrequencySweep:
    def test_single_point_equals_simulate(self):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        [(w_out, s_sweep)] = frequency_sweep_sim(g, dead_coil(), [wn], 3.0)
        e = Excitation.from_acceleration(3.0, wn, "peak")
        s_direct = simulate(g, dead_coil(), e, SimConfig.suggest(g, dead_coil(), wn))
        assert w_out == wn
        assert s_sweep.z_amp_m == s_direct.z_amp_m
        assert s_sweep.phase_rad == s_direct.phase_rad

    def test_points_at_and_below_resonance_share_one_power_table(self, monkeypatch):
        # suggest takes a whole N steps per natural period, n at or below w_n and
        # ceil(n w / w_n) above, and zeta_t does not follow w (L = 0): the 9 points at
        # or below w_n have one step matrix, and the 8 above one per N
        g = make_gen(zeta_p=0.02)
        wn = natural_frequency(g)
        omegas = [wn * (1.0 + 0.05 * (j - 8) / 8) for j in range(17)]
        assert omegas[8] == wn
        counts = [round(2.0 * math.pi / wn / SimConfig.suggest(g, live_coil(), w).dt_s)
                  for w in omegas]
        assert counts == [64] * 9 + [65, 65, 66, 66, 66, 67, 67, 68]
        tables, seen = sim._tables, []
        monkeypatch.setattr(sim, "_tables", lambda *a: seen.append(tables(*a)) or seen[-1])
        sim._powers.cache_clear()
        shared = frequency_sweep_sim(g, live_coil(), omegas, 3.0)
        info = sim._powers.cache_info()
        assert (info.misses, info.hits, info.currsize) == (5, 12, 1)
        e00 = [z_row[0] for z_row, _, _ in seen]  # each point's E_j[0, 0], a view of E
        bases = {}
        for n, e in zip(counts, e00):
            bases.setdefault(n, set()).add(id(e.base))
        assert list(map(len, bases.values())) == [1] * 5  # one E per N ...
        assert len(set().union(*bases.values())) == 5  # ... and a new one for each
        with pytest.raises(ValueError):
            e00[0][1] = 0.0  # shared, so read-only

        def rebuilt(*args, **kwargs):
            sim._powers.cache_clear()
            return simulate(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate", rebuilt)
        alone = frequency_sweep_sim(g, live_coil(), omegas, 3.0)
        assert sim._powers.cache_info().hits == 0
        assert [[x.hex() for x in astuple(s)] for _, s in shared] == [
            [x.hex() for x in astuple(s)] for _, s in alone]

    def test_open_circuit_is_keyword_only(self):
        # a fifth positional argument is refused: bound to open_circuit, a truthy
        # SimConfig would silently open the circuit
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        for extra in (SimConfig.suggest(g, dead_coil(), wn), True):
            with pytest.raises(TypeError):
                frequency_sweep_sim(g, dead_coil(), [wn], 3.0, extra)

    def test_amplitude_rises_towards_resonance(self):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        omegas = [wn * r for r in (0.5, 0.6, 0.7, 0.8, 0.9)]
        points = frequency_sweep_sim(g, dead_coil(), omegas, 3.0)
        amps = [s.z_amp_m for _, s in points]
        assert all(b > a for a, b in zip(amps, amps[1:]))

    def test_open_circuit_has_no_electrical_damping(self):
        wn = 2.0 * math.pi * 9500.0
        g = GeneratorParams(2.8e-5, 2.8e-5 * wn * wn, 0.0028)
        [(_, s)] = frequency_sweep_sim(
            g, live_coil(), [wn], 3.5, open_circuit=True
        )
        amp, _ = displacement_response(g, 0.0028, Excitation.from_acceleration(3.5, wn, "peak"))
        assert s.z_amp_m == pytest.approx(amp, rel=5e-3)
        assert s.emf_rms_v > 0.0
        assert s.p_load_avg_w == 0.0

    @pytest.mark.parametrize("omegas", [[], [100.0, 100.0], [200.0, 100.0]])
    def test_bad_axis_rejected(self, omegas):
        with pytest.raises(ValueError):
            frequency_sweep_sim(make_gen(), dead_coil(), omegas, 3.0)

    @pytest.mark.parametrize("accel", [-1.0, math.nan, math.inf])
    def test_bad_acceleration_rejected_before_any_point(self, monkeypatch, accel):
        # a sweep-wide argument, checked once as the axis is: no point runs, and
        # no point's frequency is blamed
        monkeypatch.setattr(sim, "simulate", None)
        with pytest.raises(ValueError) as err:
            frequency_sweep_sim(make_gen(), dead_coil(), [100.0, 200.0], accel)
        assert type(err.value) is ValueError
        assert str(err.value) == f"accel_m_s2 must be >= 0 and finite, got {accel}"

    W_N = 2.0 * math.pi * 350.0

    @pytest.mark.parametrize("zeta_p, omega, time_constants, cause, message", [
        # a suggested run of one damping time constant is far too short to settle:
        # 0.449 of the amplitude is left when the window opens
        (0.0023, W_N, 1.0, SimulationNotSettled, "0.449 of the amplitude"),
        # SimConfig.suggest fails at the point: no run settles undamped, and
        # Q_T = 4e4 takes 22,918,312 suggested steps
        (0.0, W_N, None, ValueError, "undamped run never settles"),
        (0.5 / 4e4, W_N, None, ValueError, "over the 20000000-step ceiling"),
        # the point's drive fails: omega^2 leaves the float range
        (0.0023, 1e160, None, ValueError, r"omega_rad_per_s\*\*2 out of range"),
    ], ids=["not-settled", "undamped", "over-step-ceiling", "drive-out-of-range"])
    def test_per_point_failure_carries_frequency(self, recwarn, monkeypatch, zeta_p, omega,
                                                 time_constants, cause, message):
        if time_constants is not None:
            monkeypatch.setattr(sim, "_SETTLE_TIME_CONSTANTS", time_constants)
        g = GeneratorParams(4.4e-4, 4.4e-4 * self.W_N * self.W_N, zeta_p)
        with pytest.raises(SweepPointError, match=message) as err:
            frequency_sweep_sim(g, dead_coil(), [omega], 3.0)
        assert err.value.omega_rad_per_s == omega
        assert type(err.value.cause) is cause
        assert err.value.__cause__ is err.value.cause
        # a run's length is the settle test's alone to judge: nothing is warned about
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_half_power_q_round_trip(self):
        # open-circuit EMF sweep across the resonance of a Q=216 device,
        # then Q recovered from the half-power bandwidth
        zeta = 0.0023148148148148147
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, zeta)
        freqs = [346.0 + 0.5 * i for i in range(17)]
        points = frequency_sweep_sim(
            g,
            live_coil(),
            [2.0 * math.pi * f for f in freqs],
            1.0,
            open_circuit=True,
        )
        curve = SweepCurve(
            freqs_hz=tuple(freqs),
            magnitudes=tuple(s.emf_rms_v for _, s in points),
            response_unit="V",
            excitation_acceleration_m_s2=1.0,
            acceleration_tag="peak",
        )
        q, f_res = extract_q_half_power(curve)
        assert q == pytest.approx(216.0, rel=0.02)
        assert f_res == pytest.approx(350.0, rel=1e-3)

    @pytest.mark.parametrize("name", ["cantilever_nominal", "lateral_nominal"])
    def test_measurement_procedure_on_simulated_sweeps(self, name):
        # the paper's procedure (criteria 1 and 6) on the RK4 route, over the catalog's
        # 81-point range: the loaded emf curve's half-power Q against 1/(2 zeta_T)
        # (-0.53% cantilever, -0.05% lateral), and zeta_p from the loaded and
        # open-circuit Qs (+0.48%, +0.05%); zeta_e, a small difference of two Qs
        # (+2.27% cantilever), is not gated
        scn = emharvest.load_catalog().scenario(name)
        g, c = scn.generator.params, scn.generator.circuit
        freqs = tuple(scn.freq_sweep.values())
        omegas = [2.0 * math.pi * f for f in freqs]

        def q_of(open_circuit):
            points = frequency_sweep_sim(g, c, omegas, scn.accel_m_s2,
                                         open_circuit=open_circuit)
            emf = tuple(s.emf_rms_v for _, s in points)
            return extract_q_half_power(SweepCurve(freqs, emf, "V", scn.accel_m_s2, "peak"))[0]

        q_loaded, q_open = q_of(False), q_of(True)
        zeta_t = total_damping(g, c, natural_frequency(g))[2]
        assert q_loaded == pytest.approx(0.5 / zeta_t, rel=0.01)
        assert decompose_damping(q_loaded, q_open).zeta_p == pytest.approx(
            g.zeta_parasitic, rel=0.01)


# loaded runs whose 25,000-sample measurement window is long enough for a
# threaded BLAS to split a dot product; prints every summary field's bits
_WINDOW_RUNS = """
import dataclasses, math
from emharvest.model import CoilCircuit, Excitation, GeneratorParams
from emharvest.sim import SimConfig, simulate
g = GeneratorParams(1e-3, 568.4892135027469, 0.05)
c = CoilCircuit(turns=100, side_length_m=1e-3, flux_density_t=0.5,
                r_coil_ohm=50.0, r_load_ohm=150.0)
for f_hz in (80.0, 100.0):
    w = 2.0 * math.pi * f_hz
    e = Excitation.from_acceleration(2.0, w, "peak")
    s = simulate(g, c, e, SimConfig(dt_s=2e-5, duration_s=1.0))
    print([x.hex() for x in dataclasses.astuple(s)])
"""


def test_summary_bits_do_not_depend_on_blas_threads():
    src = str(pathlib.Path(emharvest.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _WINDOW_RUNS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 2


def test_readme_python_blocks_run_in_order(capsys):
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # the second block uses the first one's g, c, w and e
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 2
