import math

import numpy as np
import pytest

from emharvest.analysis import SweepCurve, extract_q_half_power
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    displacement_response,
    natural_frequency,
)
from emharvest.sim import (
    SimConfig,
    SimulationNotSettled,
    SweepPointError,
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

    def test_suggest_rejects_coarse_stepping(self):
        with pytest.raises(ValueError, match="steps_per_period"):
            SimConfig.suggest(make_gen(), None, 100.0, steps_per_period=10)


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

    def test_electrical_damping_lowers_amplitude(self):
        wn = 2.0 * math.pi * 9500.0
        g = GeneratorParams(2.8e-5, 2.8e-5 * wn * wn, 0.0028)
        e = Excitation(1e-9, wn)
        cfg = SimConfig.suggest(g, live_coil(), wn)
        s_open = simulate(g, dead_coil(), e, cfg)
        s_loaded = simulate(g, live_coil(), e, cfg)
        assert s_loaded.z_amp_m < s_open.z_amp_m


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
