import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import emharvest
from emharvest import sim
from emharvest.analysis import SweepCurve, extract_q_half_power
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    displacement_response,
    evaluate_response,
    natural_frequency,
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
            dict(dt_s=1e-4, duration_s=1.0, settle_fraction=1.0),
            dict(dt_s=1e-4, duration_s=1.0, settle_fraction=-0.1),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_suggest_resolves_both_periods(self):
        g = make_gen(wn=2.0 * math.pi * 100.0)
        for w_drive in (2.0 * math.pi * 25.0, 2.0 * math.pi * 400.0):
            cfg = SimConfig.suggest(g, None, w_drive)
            assert cfg.dt_s <= 2.0 * math.pi / w_drive / 50.0
            assert cfg.dt_s <= 2.0 * math.pi / natural_frequency(g) / 50.0

    def test_suggest_duration_covers_settling(self):
        g = make_gen(zeta_p=0.0023)
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, None, wn)
        assert cfg.duration_s >= 10.0 / (0.0023 * wn)

    def test_suggest_rejects_undamped(self):
        g = make_gen(zeta_p=0.0)
        with pytest.raises(ValueError, match="never settles"):
            SimConfig.suggest(g, None, 100.0)

    def test_suggest_holds_high_q_phase_within_bound(self):
        # Q_T = 1000: 64 steps per period left the phase 1.54e-3 rad off
        g = make_gen(zeta_p=5e-4)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, None, wn))
        assert abs(s.phase_rad - evaluate_response(g, dead_coil(), e).phase_rad) < 1e-3

    @pytest.mark.parametrize("q_t, steps", [(100.0, 64), (640.0, 64), (1000.0, 72), (1e4, 127)])
    def test_suggest_step_count_follows_q(self, q_t, steps):
        # 2 Q_T (w dt)^4 / 120 <= 1e-3 rad; at Q_T = 1e4 a 64-step run fails its
        # own energy audit, so this is checked by arithmetic, without running it
        g = make_gen(zeta_p=1.0 / (2.0 * q_t))
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, None, wn)
        assert round(2.0 * math.pi / wn / cfg.dt_s) == steps
        assert 2.0 * q_t * (wn * cfg.dt_s) ** 4 / 120.0 <= 1e-3

    def test_suggest_rejects_coarse_stepping(self):
        for steps in (10, math.nan, math.inf):
            with pytest.raises(ValueError, match="steps_per_period"):
                SimConfig.suggest(make_gen(), None, 100.0, steps_per_period=steps)

    # constructed only: a run this long would hold ~80 bytes per step
    @pytest.mark.parametrize("dt", [1e-300, 1e-9])
    def test_rejects_steps_above_ceiling(self, dt):
        with pytest.raises(ValueError, match=r"duration_s / dt_s .*duration_s=2\.5 with dt_s="):
            SimConfig(dt, 2.5)

    def test_ceiling_admits_its_own_step_count(self):
        assert SimConfig(1.0, float(sim._MAX_STEPS)).n_steps == sim._MAX_STEPS
        with pytest.raises(ValueError, match="duration_s / dt_s"):
            SimConfig(1.0, float(sim._MAX_STEPS + 1))


class TestSimulate:
    def test_resonant_amplitude_matches_closed_form(self):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, None, wn))
        assert s.z_amp_m == pytest.approx(1e-6 / (2.0 * 0.05), rel=5e-3)
        assert s.phase_rad == pytest.approx(math.pi / 2.0, abs=DEG)

    def test_below_resonance_matches_closed_form(self):
        g = make_gen(zeta_p=0.01)
        w = 0.5 * natural_frequency(g)
        e = Excitation(1e-6, w)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, None, w))
        expect, _ = displacement_response(g, 0.01, e)
        assert s.z_amp_m == pytest.approx(expect, rel=5e-3)

    def test_zero_excitation_all_zero(self):
        g = make_gen()
        e = Excitation(0.0, natural_frequency(g))
        s = simulate(g, dead_coil(), e, SimConfig(1e-4, 0.5))
        assert s.z_amp_m == 0.0
        assert s.v_rel_rms_m_per_s == 0.0
        assert s.emf_rms_v == 0.0
        assert s.p_load_avg_w == 0.0
        assert s.p_parasitic_avg_w == 0.0
        assert s.energy_balance_residual == 0.0

    @pytest.mark.parametrize("zeta", [0.002, 0.0063245553203367585, 0.02, 0.0632455532033676, 0.2])
    @pytest.mark.parametrize("ratio", [0.5, 0.875, 1.25, 1.625, 2.0])
    def test_oracle_grid_amplitude_and_phase(self, zeta, ratio):
        g = make_gen(zeta_p=zeta)
        w = ratio * natural_frequency(g)
        e = Excitation(1e-6, w)
        s = simulate(g, dead_coil(), e, SimConfig.suggest(g, None, w))
        amp, phase = displacement_response(g, zeta, e)
        assert s.z_amp_m == pytest.approx(amp, rel=5e-3)
        assert abs(s.phase_rad - phase) < DEG

    def test_energy_balance_is_tight(self):
        g = make_gen(zeta_p=0.01)
        wn = natural_frequency(g)
        s = simulate(g, dead_coil(), Excitation(1e-6, wn), SimConfig.suggest(g, None, wn))
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
            cfg = SimConfig(dt_s=dt, duration_s=0.35, settle_fraction=0.75)
            _, trace = simulate(g, dead_coil(), e, cfg, return_trace=True)
            i0 = int(0.75 * round(0.35 / dt))
            t, z = trace.t_s[i0:], trace.z_m[i0:]
            design = np.column_stack([np.sin(w * t), np.cos(w * t)])
            coef, *_ = np.linalg.lstsq(design, z, rcond=None)
            return abs(math.hypot(coef[0], coef[1]) - exact)

        assert fitted_error(64) / fitted_error(128) >= 8.0

    def test_high_q_short_run_warns_then_fails_to_settle(self):
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023)
        e = Excitation(6.2e-7, wn)
        with pytest.warns(UserWarning, match="settling guideline"):
            with pytest.raises(SimulationNotSettled, match="drifting"):
                simulate(g, dead_coil(), e, SimConfig(2e-5, 0.1, 0.5))

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
    def test_summary_load_power_is_the_trace_window_mean(self, r_load):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        e = Excitation(1e-6, wn)
        cfg = SimConfig.suggest(g, live_coil(r_load), wn)
        s, trace = simulate(g, live_coil(r_load), e, cfg, return_trace=True)
        assert simulate(g, live_coil(r_load), e, cfg) == s
        i0 = int(cfg.settle_fraction * cfg.n_steps)
        assert s.p_load_avg_w == float(np.mean(trace.p_load_w[i0:]))
        if r_load == math.inf:
            assert not trace.p_load_w.any()

    def test_huge_load_resistance_delivers_no_load_power(self):
        # (R_load + R_coil)^2 leaves the float range; the closed form reads 0 W
        scn = emharvest.load_catalog().scenario("cantilever_nominal")
        g = scn.generator.params
        c = CoilCircuit(100, 5e-3, 0.3, 50.0, 0.0, 1e200)
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)
        assert evaluate_response(g, c, e).p_load_w == 0.0
        assert simulate(g, c, e, scn.sim).p_load_avg_w == 0.0

    def test_energy_audit_rejects_a_wrong_integrator(self, monkeypatch):
        # z' 1% high everywhere: the work and heat integrals no longer balance
        scn = emharvest.load_catalog().scenario("cantilever_nominal")
        g, c = scn.generator.params, scn.generator.circuit
        e = Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * scn.freq_hz)

        def spoiled(*args):
            z, v = _rk4(*args)
            return z, v * 1.01

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


def per_step_rk4(t, dt, forcing, w, two_zw, wn2):
    """The per-step form of sim._rk4: math.sin at every step, states kept in
    whole-run lists.  The blocked loop must reproduce it bit for bit."""
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
    return np.asarray(zs), np.asarray(vs)


class TestBlockedDrive:
    MISMATCH = (
        "blocked RK4 trace differs from the per-step math.sin form; "
        "np.sin and math.sin do not give the same bits on this build"
    )

    @staticmethod
    def _run(monkeypatch, rk4, g, c, e, cfg):
        """simulate with rk4 as its integrator: the (z, z') it produced and
        simulate's (summary, trace), or None if the run cannot settle."""
        seen = []

        def recording(*args):
            seen.append(rk4(*args))
            return seen[-1]

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
        for ref_arr, new_arr in zip(ref_zv, new_zv):
            assert new_arr.tobytes() == ref_arr.tobytes(), self.MISMATCH
        if n_steps < 64:  # under a drive period: no two peaks to settle on
            assert ref is None and new is None
            return
        (ref_s, ref_tr), (new_s, new_tr) = ref, new
        assert new_tr.z_m.tobytes() == ref_tr.z_m.tobytes(), self.MISMATCH
        assert new_tr.zdot_m_s.tobytes() == ref_tr.zdot_m_s.tobytes(), self.MISMATCH
        assert new_s == ref_s, self.MISMATCH


class TestFrequencySweep:
    def test_single_point_equals_simulate(self):
        g = make_gen(zeta_p=0.05)
        wn = natural_frequency(g)
        cfg = SimConfig.suggest(g, None, wn)
        [(w_out, s_sweep)] = frequency_sweep_sim(g, dead_coil(), [wn], 3.0, cfg)
        e = Excitation.from_acceleration(3.0, wn, "peak")
        s_direct = simulate(g, dead_coil(), e, cfg)
        assert w_out == wn
        assert s_sweep.z_amp_m == s_direct.z_amp_m
        assert s_sweep.phase_rad == s_direct.phase_rad

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

    def test_per_point_failure_carries_frequency(self):
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023)
        cfg = SimConfig(2e-5, 0.1, 0.5)  # far too short to settle
        with pytest.warns(UserWarning):
            with pytest.raises(SweepPointError) as err:
                frequency_sweep_sim(g, dead_coil(), [wn], 3.0, cfg)
        assert err.value.omega_rad_per_s == wn
        assert isinstance(err.value.cause, SimulationNotSettled)

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
    s = simulate(g, c, e, SimConfig(dt_s=2e-5, duration_s=1.0, settle_fraction=0.5))
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
