import inspect
import math
import random
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from emharvest.model import (
    CoilCircuit,
    DampingDecomposition,
    Excitation,
    GeneratorParams,
    ResponsePoint,
    base_amplitude_from_acceleration,
    check_displacement_limit,
    compose_q_factors,
    damping_coefficient_from_ratio,
    damping_ratio_from_coefficient,
    displacement_response,
    dissipated_power,
    em_damping_coefficient,
    evaluate_response,
    load_power,
    load_voltage_from_power,
    max_avg_load_power,
    max_resonant_power,
    natural_frequency,
    optimal_load,
    total_damping,
)


def make_gen(mass=1.0, wn=1.0, zeta_p=0.0, limit=None):
    return GeneratorParams(
        mass_kg=mass,
        stiffness_n_per_m=mass * wn * wn,
        zeta_parasitic=zeta_p,
        displacement_limit_m=limit,
    )


class TestGeneratorParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mass_kg=0.0, stiffness_n_per_m=1.0, zeta_parasitic=0.0),
            dict(mass_kg=-1.0, stiffness_n_per_m=1.0, zeta_parasitic=0.0),
            dict(mass_kg=1.0, stiffness_n_per_m=0.0, zeta_parasitic=0.0),
            dict(mass_kg=1.0, stiffness_n_per_m=1.0, zeta_parasitic=-0.1),
            dict(mass_kg=1.0, stiffness_n_per_m=1.0, zeta_parasitic=1.0),
            dict(
                mass_kg=1.0,
                stiffness_n_per_m=1.0,
                zeta_parasitic=0.0,
                displacement_limit_m=0.0,
            ),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorParams(**kwargs)

    @pytest.mark.parametrize("field", ["mass_kg", "stiffness_n_per_m", "zeta_parasitic",
                                       "displacement_limit_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(mass_kg=1.0, stiffness_n_per_m=1.0, zeta_parasitic=0.0,
                      displacement_limit_m=1e-3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            GeneratorParams(**kwargs)

    @pytest.mark.parametrize("mass, stiffness", [(1e300, 1e-100), (1e-100, 1e300)])
    def test_rejects_k_over_m_outside_float_range(self, mass, stiffness):
        # k/m underflows to 0 (w_n = 0) or overflows to inf
        with pytest.raises(ValueError, match="stiffness_n_per_m / mass_kg"):
            GeneratorParams(mass, stiffness, 0.0)

    def test_limit_optional(self):
        g = GeneratorParams(1.0, 1.0, 0.1)
        assert g.displacement_limit_m is None


class TestNaturalFrequency:
    @pytest.mark.parametrize(
        "mass, k, expect",
        [
            (1.0, 1.0, 1.0),
            (4.0, 1.0, 0.5),
            (4.4e-4, 2127.8867088748652, 2199.114857512855),
        ],
    )
    def test_values(self, mass, k, expect):
        g = GeneratorParams(mass, k, 0.0)
        assert natural_frequency(g) == pytest.approx(expect, rel=1e-12)

    def test_matches_350_hz(self):
        g = GeneratorParams(4.4e-4, 2127.8867088748652, 0.0)
        assert natural_frequency(g) / (2.0 * math.pi) == pytest.approx(350.0, rel=1e-12)


class TestDisplacementResponse:
    @pytest.mark.parametrize("zeta", [0.001, 0.0023, 0.05, 0.3])
    def test_resonance_closed_form(self, zeta):
        g = make_gen(wn=2.0 * math.pi * 100.0)
        e = Excitation(amplitude_m=1e-6, omega_rad_per_s=natural_frequency(g))
        amp, phase = displacement_response(g, zeta, e)
        assert amp == pytest.approx(1e-6 / (2.0 * zeta), rel=1e-12)
        assert phase == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_half_natural_frequency(self):
        g = make_gen(wn=300.0)
        e = Excitation(amplitude_m=2e-6, omega_rad_per_s=150.0)
        amp, _ = displacement_response(g, 0.01, e)
        assert amp == pytest.approx(2e-6 * 0.3333037076537358, rel=1e-12)

    def test_q350_device_reaches_217_um(self):
        wn = 2.0 * math.pi * 350.0
        g = make_gen(mass=4.4e-4, wn=wn)
        e = Excitation(amplitude_m=6.203337774020682e-07, omega_rad_per_s=wn)
        amp, _ = displacement_response(g, 1.0 / 700.0, e)
        assert amp == pytest.approx(2.1711682209072386e-04, rel=1e-12)

    def test_undamped_off_resonance_is_finite(self):
        g = make_gen(wn=10.0)
        amp, phase = displacement_response(g, 0.0, Excitation(1e-3, 5.0))
        assert amp == pytest.approx(1e-3 * 0.25 / 0.75, rel=1e-12)
        assert phase == 0.0

    def test_undamped_at_resonance_rejected(self):
        g = make_gen(wn=10.0)
        with pytest.raises(ValueError, match="unbounded"):
            displacement_response(g, 0.0, Excitation(1e-3, 10.0))

    def test_underflowed_damping_at_resonance_rejected(self):
        # 2 zeta w_n w underflows to 0, which is as unbounded as zeta = 0
        g = make_gen(wn=0.1)
        with pytest.raises(ValueError, match="unbounded"):
            displacement_response(g, math.ulp(0.0), Excitation(1e-3, natural_frequency(g)))

    @pytest.mark.parametrize("zeta", [0.01, 0.1, 0.5])
    def test_phase_monotone_and_half_pi_at_resonance(self, zeta):
        wn = 2.0 * math.pi * 50.0
        g = make_gen(wn=wn)
        phases = [
            displacement_response(g, zeta, Excitation(1e-6, w))[1]
            for w in [wn * (0.2 + 0.05 * i) for i in range(57)]
        ]
        assert all(b >= a for a, b in zip(phases, phases[1:]))
        assert displacement_response(g, zeta, Excitation(1e-6, wn))[1] == pytest.approx(
            math.pi / 2.0, abs=1e-12
        )
        assert phases[0] < 0.3
        assert phases[-1] > 2.5

    @pytest.mark.parametrize("zeta", [0.01, 0.02, 0.05])
    def test_amplitude_peak_sits_just_above_resonance(self, zeta):
        # the true maximum of the relative-motion amplitude is at
        # wn/sqrt(1 - 2 zeta^2), an upward offset of about zeta^2*wn
        wn = 1000.0
        g = make_gen(wn=wn)
        ws = [wn * (0.995 + 1e-5 * i) for i in range(1500)]
        amps = [displacement_response(g, zeta, Excitation(1e-6, w))[0] for w in ws]
        w_peak = ws[amps.index(max(amps))]
        assert w_peak == pytest.approx(wn / math.sqrt(1.0 - 2.0 * zeta * zeta), rel=2e-5)
        assert abs(w_peak - wn) <= 1.25 * zeta * zeta * wn


class TestDissipatedPower:
    @pytest.mark.parametrize(
        "mass, zeta, amp, wn",
        [
            (1e-3, 0.01, 1e-6, 2.0 * math.pi * 100.0),
            (4.4e-4, 0.0023, 6.2e-7, 2.0 * math.pi * 350.0),
            (0.085, 0.1, 1e-4, 2.0 * math.pi * 50.0),
            (1e-3, 1.5, 1e-6, 2.0 * math.pi * 100.0),
        ],
    )
    def test_equals_resonant_power_at_wn(self, mass, zeta, amp, wn):
        g = make_gen(mass=mass, wn=wn)
        e = Excitation(amp, natural_frequency(g))
        assert dissipated_power(g, zeta, e) == pytest.approx(
            max_resonant_power(g, zeta, e), rel=1e-12
        )

    def test_frozen_off_resonance_value(self):
        g = make_gen(mass=1e-3, wn=2.0 * math.pi * 100.0)
        e = Excitation(1e-6, 0.9 * 2.0 * math.pi * 100.0)
        assert dissipated_power(g, 0.01, e) == pytest.approx(
            3.6191536756545643e-08, rel=1e-12
        )

    def test_vanishes_at_low_frequency(self):
        g = make_gen(wn=1000.0)
        assert dissipated_power(g, 0.05, Excitation(1e-3, 1e-3)) < 1e-25

    def test_zero_damping_rejected(self):
        g = make_gen(wn=10.0)
        with pytest.raises(ValueError):
            dissipated_power(g, 0.0, Excitation(1e-6, 5.0))


class TestMaxResonantPower:
    def test_linear_in_mass(self):
        wn = 2.0 * math.pi * 100.0
        p1 = max_resonant_power(make_gen(1.0, wn), 0.01, Excitation(1e-6, wn))
        p2 = max_resonant_power(make_gen(2.0, wn), 0.01, Excitation(1e-6, wn))
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_cubic_in_frequency(self):
        p1 = max_resonant_power(make_gen(1.0, 100.0), 0.01, Excitation(1e-6, 100.0))
        p2 = max_resonant_power(make_gen(1.0, 200.0), 0.01, Excitation(1e-6, 200.0))
        assert p2 == pytest.approx(8.0 * p1, rel=1e-12)

    def test_off_resonance_rejected(self):
        g = make_gen(wn=100.0)
        with pytest.raises(ValueError, match="natural frequency"):
            max_resonant_power(g, 0.01, Excitation(1e-6, 99.0))

    def test_zero_damping_rejected(self):
        g = make_gen(wn=100.0)
        with pytest.raises(ValueError):
            max_resonant_power(g, 0.0, Excitation(1e-6, 100.0))


class TestLoadPower:
    def test_no_transduction_no_power(self):
        g = make_gen(wn=100.0)
        assert load_power(g, 0.01, 0.0, Excitation(1e-6, 100.0)) == 0.0

    @pytest.mark.parametrize("zeta_p", [1e-4, 1e-3, 1e-2, 1e-1])
    def test_maximized_at_matched_damping(self, zeta_p):
        g = make_gen(wn=100.0)
        e = Excitation(1e-6, 100.0)
        scan = [zeta_p * (0.02 * i) for i in range(1, 101)]
        powers = [load_power(g, zeta_p, ze, e) for ze in scan]
        best = scan[powers.index(max(powers))]
        assert best == pytest.approx(zeta_p, rel=0.021)

    def test_matched_damping_closed_form(self):
        wn = 2.0 * math.pi * 350.0
        g = make_gen(mass=4.4e-4, wn=wn)
        e = Excitation(6.2e-7, wn)
        zp = 0.0023
        assert load_power(g, zp, zp, e) == pytest.approx(
            g.mass_kg * e.amplitude_m**2 * wn**3 / (16.0 * zp), rel=1e-12
        )

    def test_degenerate_damping_rejected(self):
        g = make_gen(wn=100.0)
        with pytest.raises(ValueError):
            load_power(g, 0.0, 0.0, Excitation(1e-6, 100.0))


class TestResonantPowerBits:
    # the range check around them must not move a finite result by one bit
    @pytest.mark.parametrize("seed", range(5))
    def test_in_range_results_equal_the_power_formulas(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            g = make_gen(mass=10.0 ** rng.uniform(-6, 1), wn=10.0 ** rng.uniform(0, 5))
            wn = natural_frequency(g)
            e = Excitation(10.0 ** rng.uniform(-9, -3), wn)
            zp, ze = 10.0 ** rng.uniform(-4, -1), 10.0 ** rng.uniform(-4, -1)
            rc, rl = rng.uniform(0.0, 100.0), rng.uniform(100.0, 1e4)
            y = e.amplitude_m
            assert max_resonant_power(g, zp, e) == g.mass_kg * y**2 * wn**3 / (4.0 * zp)
            assert load_power(g, zp, ze, e) == (
                g.mass_kg * ze * y**2 * wn**3 / (4.0 * (zp + ze) ** 2)
            )
            assert max_avg_load_power(g, zp, e, rc, rl) == (
                g.mass_kg * wn**3 * y**2 / (16.0 * zp) * (1.0 - rc / rl)
            )
            assert e.acceleration_m_s2 == wn**2 * y


class TestCoilCircuit:
    # r_load_ohm = inf stays allowed: it is the open circuit
    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("side_length_m", "flux_density_t", "r_coil_ohm", "l_coil_h")
         for v in (math.nan, math.inf, -math.inf)]
        + [("r_load_ohm", math.nan), ("r_load_ohm", -math.inf)],
    )
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(turns=1, side_length_m=1e-3, flux_density_t=0.5,
                      r_coil_ohm=1.0, l_coil_h=0.0, r_load_ohm=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            CoilCircuit(**kwargs)

    # a bool passes isinstance(x, int), but True is no turn count
    @pytest.mark.parametrize("turns", [True, 1.5, "10"])
    def test_rejects_non_integer_turns(self, turns):
        with pytest.raises(ValueError, match="turns must be an integer"):
            CoilCircuit(turns, 1e-2, 0.5, 10.0)


class TestEmDampingCoefficient:
    def test_no_turns_no_damping(self):
        c = CoilCircuit(turns=0, side_length_m=1e-3, flux_density_t=0.5,
                        r_coil_ohm=100.0, r_load_ohm=100.0)
        assert em_damping_coefficient(c, 1000.0) == 0.0

    def test_planar_coil_value(self):
        c = CoilCircuit(turns=600, side_length_m=2.4e-3, flux_density_t=0.29,
                        r_coil_ohm=100.0, r_load_ohm=110.0)
        assert em_damping_coefficient(c, 2.0 * math.pi * 9500.0) == pytest.approx(
            8.304274285714285e-04, rel=1e-12
        )

    def test_inductance_reduces_damping(self):
        kwargs = dict(turns=600, side_length_m=2.4e-3, flux_density_t=0.29,
                      r_coil_ohm=100.0, r_load_ohm=110.0)
        c0 = CoilCircuit(l_coil_h=0.0, **kwargs)
        c1 = CoilCircuit(l_coil_h=1e-3, **kwargs)
        w = 2.0 * math.pi * 9500.0
        assert em_damping_coefficient(c1, w) < em_damping_coefficient(c0, w)

    def test_open_circuit_gives_zero(self):
        c = CoilCircuit(turns=600, side_length_m=2.4e-3, flux_density_t=0.29,
                        r_coil_ohm=100.0, r_load_ohm=math.inf)
        assert em_damping_coefficient(c, 1000.0) == 0.0


class TestDampingConversions:
    def test_zero_coefficient(self):
        assert damping_ratio_from_coefficient(0.0, make_gen(wn=100.0)) == 0.0

    @pytest.mark.parametrize("zeta", [1e-4, 0.0023, 0.05, 0.7])
    def test_round_trip(self, zeta):
        g = make_gen(mass=4.4e-4, wn=2199.0)
        c = damping_coefficient_from_ratio(zeta, g)
        assert damping_ratio_from_coefficient(c, g) == pytest.approx(zeta, rel=1e-12)

    def test_frozen_value(self):
        g = GeneratorParams(4.4e-4, 2127.66444, 0.0)
        assert damping_ratio_from_coefficient(4.45e-3, g) == pytest.approx(
            0.0022995989912770265, rel=1e-9
        )


class TestOptimalLoad:
    def test_no_coupling_matches_coil(self):
        c = CoilCircuit(turns=0, side_length_m=0.0, flux_density_t=0.0,
                        r_coil_ohm=93.0, r_load_ohm=1.0)
        assert optimal_load(c, 4.45e-3) == 93.0

    def test_frozen_value(self):
        c = CoilCircuit(turns=1, side_length_m=0.1, flux_density_t=1.0,
                        r_coil_ohm=93.0, r_load_ohm=1.0)
        assert optimal_load(c, 4.45e-3) == pytest.approx(95.24719101123596, rel=1e-12)

    def test_quadratic_in_coupling(self):
        c1 = CoilCircuit(turns=1, side_length_m=0.1, flux_density_t=1.0,
                         r_coil_ohm=93.0, r_load_ohm=1.0)
        c2 = CoilCircuit(turns=2, side_length_m=0.1, flux_density_t=1.0,
                         r_coil_ohm=93.0, r_load_ohm=1.0)
        added1 = optimal_load(c1, 4.45e-3) - 93.0
        added2 = optimal_load(c2, 4.45e-3) - 93.0
        assert added2 == pytest.approx(4.0 * added1, rel=1e-12)

    def test_zero_parasitic_rejected(self):
        c = CoilCircuit(turns=1, side_length_m=0.1, flux_density_t=1.0,
                        r_coil_ohm=93.0, r_load_ohm=1.0)
        with pytest.raises(ValueError):
            optimal_load(c, 0.0)


class TestMaxAvgLoadPower:
    def test_equal_resistances_kill_output(self):
        g = make_gen(wn=100.0)
        assert max_avg_load_power(g, 0.01, Excitation(1e-6, 100.0), 50.0, 50.0) == 0.0

    def test_lossless_coil_limit(self):
        wn = 2.0 * math.pi * 350.0
        g = make_gen(mass=4.4e-4, wn=wn)
        e = Excitation(6.2e-7, wn)
        assert max_avg_load_power(g, 0.0023, e, 0.0, 100.0) == pytest.approx(
            g.mass_kg * wn**3 * e.amplitude_m**2 / (16.0 * 0.0023), rel=1e-12
        )

    def test_frozen_value(self):
        wn = 2.0 * math.pi * 120.0
        g = GeneratorParams(1e-3, 568.4892135027469, 0.0)
        e = Excitation(2e-6, natural_frequency(g))
        assert max_avg_load_power(g, 0.005, e, 50.0, 150.0) == pytest.approx(
            1.4287692294282152e-05, rel=1e-10
        )

    def test_zero_load_rejected(self):
        g = make_gen(wn=100.0)
        with pytest.raises(ValueError):
            max_avg_load_power(g, 0.01, Excitation(1e-6, 100.0), 50.0, 0.0)

    def test_load_below_coil_resistance_rejected(self):
        # the formula would give -2.5e-08 W here
        g = GeneratorParams(1e-3, 10.0, 0.01)
        e = Excitation(1e-6, natural_frequency(g))
        with pytest.raises(ValueError, match="r_load_ohm - r_coil_ohm"):
            max_avg_load_power(g, 0.01, e, 50.0, 10.0)


class TestLoadPowerCoherence:
    @pytest.mark.parametrize(
        "mass, f_hz, zeta_p, coupling, r_coil",
        [
            (4.4e-4, 350.0, 0.0023148148148148147, 0.1610673364846651, 93.0),
            (1.0, 1.0, 0.05, 0.2, 1.0),
            (2.8e-5, 9500.0, 0.0028, 0.4176, 100.0),
        ],
    )
    def test_delivered_power_at_optimal_load(self, mass, f_hz, zeta_p, coupling, r_coil):
        # at R_L = optimal_load, the ideal-coil delivered power formula and
        # the extracted-power formula times the resistive divider agree
        wn = 2.0 * math.pi * f_hz
        g = GeneratorParams(mass, mass * wn * wn, zeta_p)
        e = Excitation(1e-6, natural_frequency(g))
        c_p = damping_coefficient_from_ratio(zeta_p, g)
        c = CoilCircuit(turns=1, side_length_m=coupling, flux_density_t=1.0,
                        r_coil_ohm=r_coil, r_load_ohm=1.0)
        r_opt = optimal_load(c, c_p)
        c_at_opt = CoilCircuit(turns=1, side_length_m=coupling, flux_density_t=1.0,
                               r_coil_ohm=r_coil, r_load_ohm=r_opt)
        zeta_e = damping_ratio_from_coefficient(
            em_damping_coefficient(c_at_opt, natural_frequency(g)), g
        )
        extracted = load_power(g, zeta_p, zeta_e, e)
        delivered = extracted * r_opt / (r_opt + r_coil)
        best = max_avg_load_power(g, zeta_p, e, r_coil, r_opt)
        assert delivered == pytest.approx(best, rel=1e-9)


class TestComposeQFactors:
    def test_measured_decomposition(self):
        d = compose_q_factors(q_total=181.0, q_open_circuit=216.0)
        assert d.q_electrical == pytest.approx(1117.0285714285715, rel=1e-12)
        assert d.zeta_e == pytest.approx(0.0004476161244117045, rel=1e-12)
        assert d.zeta_p == pytest.approx(0.0023148148148148147, rel=1e-12)
        assert d.zeta_t == pytest.approx(0.0027624309392265192, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q_total=181.0, q_open_circuit=216.0),
            dict(q_total=181.0, q_electrical=1117.0285714285715),
            dict(q_open_circuit=216.0, q_electrical=1117.0285714285715),
        ],
    )
    def test_identity_holds_exactly(self, kwargs):
        d = compose_q_factors(**kwargs)
        assert 1.0 / d.q_total == pytest.approx(
            1.0 / d.q_open_circuit + 1.0 / d.q_electrical, rel=1e-12
        )
        assert d.zeta_p == 1.0 / (2.0 * d.q_open_circuit)
        assert d.zeta_e == 1.0 / (2.0 * d.q_electrical)
        assert d.zeta_t == 1.0 / (2.0 * d.q_total)

    def test_double_open_circuit_q(self):
        d = compose_q_factors(q_total=100.0, q_open_circuit=200.0)
        assert d.q_electrical == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q_open_circuit=216.0),
            dict(q_total=181.0, q_open_circuit=216.0, q_electrical=1117.0),
            dict(q_open_circuit=216.0, q_electrical=math.inf),
            dict(q_total=216.0, q_open_circuit=216.0),
            dict(q_total=220.0, q_open_circuit=216.0),
            dict(q_total=-5.0, q_open_circuit=216.0),
        ],
    )
    def test_rejects_bad_combinations(self, kwargs):
        with pytest.raises(ValueError):
            compose_q_factors(**kwargs)


class TestExcitation:
    def test_peak_base_amplitude_at_350_hz(self):
        y = base_amplitude_from_acceleration(3.0, 2.0 * math.pi * 350.0)
        assert y == pytest.approx(6.203337774020682e-07, rel=1e-12)

    def test_peak_base_amplitude_at_9500_hz(self):
        y = base_amplitude_from_acceleration(3.5, 2.0 * math.pi * 9500.0)
        assert y == pytest.approx(9.823383455628316e-10, rel=1e-12)

    def test_zero_acceleration(self):
        assert base_amplitude_from_acceleration(0.0, 100.0) == 0.0

    def test_rms_conversion_scales_by_sqrt2(self):
        w = 2.0 * math.pi * 350.0
        peak = Excitation.from_acceleration(3.0, w, "peak")
        rms = Excitation.from_acceleration(3.0, w, "rms")
        assert rms.amplitude_m == pytest.approx(
            math.sqrt(2.0) * peak.amplitude_m, rel=1e-12
        )

    def test_acceleration_property_round_trip(self):
        e = Excitation.from_acceleration(3.0, 2.0 * math.pi * 350.0, "peak")
        assert e.acceleration_m_s2 == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("tag", ["PEAK", "rms ", "amplitude", ""])
    def test_unknown_convention_rejected(self, tag):
        with pytest.raises(ValueError, match="convention"):
            Excitation.from_acceleration(1.0, 100.0, tag)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            Excitation(-1e-6, 100.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1e-6, math.nan), (1e-6, math.inf)])
    def test_non_finite_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            Excitation(*args)

    @pytest.mark.parametrize("accel", [math.nan, math.inf])
    def test_non_finite_acceleration_rejected(self, accel):
        with pytest.raises(ValueError, match="accel_m_s2"):
            Excitation.from_acceleration(accel, 100.0)

    @pytest.mark.parametrize("func, accel, omega", [
        (Excitation.from_acceleration, 0.5, 1e-320),  # w**2 underflows to 0
        (Excitation.from_acceleration, 1e-9, 1.7e308),  # w**2 overflows
        (base_amplitude_from_acceleration, 1.0, 1.7e308),
        (base_amplitude_from_acceleration, 1.0, 1e-160),  # A / w**2 overflows
    ])
    def test_omega_squared_outside_float_range_rejected(self, func, accel, omega):
        with pytest.raises(ValueError):
            func(accel, omega)

    def test_zero_frequency_rejected_before_dividing(self):
        with pytest.raises(ValueError, match="omega_rad_per_s must be > 0"):
            Excitation.from_acceleration(3.0, 0.0)

    def test_overflowing_amplitude_gets_the_constructor_message(self):
        # 1.7e308 * sqrt(2) overflows to inf: the amplitude check words the error
        with pytest.raises(ValueError, match=r"^amplitude_m must be >= 0 and finite, got inf$"):
            Excitation.from_acceleration(1.7e308, 100.0, "rms")

    @pytest.mark.parametrize("accel, convention", [(3.0, "peak"), (3.0, "rms"), (0.0, "peak")])
    def test_from_acceleration_builds_the_constructor_record(self, accel, convention):
        w = 2.0 * math.pi * 350.0
        peak = accel * math.sqrt(2.0) if convention == "rms" else accel
        e = Excitation.from_acceleration(accel, w, convention)
        ref = Excitation(peak / w**2, w)
        assert type(e) is Excitation
        assert vars(e) == vars(ref)
        assert e == ref and hash(e) == hash(ref)
        for name in ("amplitude_m", "omega_rad_per_s"):
            with pytest.raises(FrozenInstanceError):
                setattr(e, name, 1.0)


class TestLoadVoltage:
    def test_measured_point(self):
        assert load_voltage_from_power(2.85e-6, 100.0) == pytest.approx(
            0.016881943016134132, rel=1e-12
        )

    def test_trivial_points(self):
        assert load_voltage_from_power(0.0, 47.0) == 0.0
        assert load_voltage_from_power(1.0, 1.0) == 1.0

    def test_bad_load_rejected(self):
        with pytest.raises(ValueError):
            load_voltage_from_power(1.0, 0.0)


class TestDisplacementLimit:
    def test_small_amplitude_passes(self):
        g = make_gen(wn=100.0, limit=240e-6)
        check = check_displacement_limit(g, 164e-9)
        assert check.passed
        assert check.margin_m == pytest.approx(240e-6 - 164e-9, rel=1e-12)

    def test_over_travel_fails(self):
        g = make_gen(wn=100.0, limit=240e-6)
        check = check_displacement_limit(g, 241e-6)
        assert not check.passed
        assert check.margin_m < 0.0

    def test_no_limit_always_passes(self):
        check = check_displacement_limit(make_gen(wn=100.0), 1.0)
        assert check.passed
        assert check.margin_m is None

    def test_negative_amplitude_rejected(self):
        # an amplitude is a magnitude: a negative one would pass any travel limit
        with pytest.raises(ValueError, match="predicted_z_m"):
            check_displacement_limit(make_gen(wn=100.0, limit=240e-6), -1.0)


class TestResponsePoint:
    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            ResponsePoint(1e-6, 1.0, -1e-9, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_load_above_total(self):
        with pytest.raises(ValueError):
            ResponsePoint(1e-6, 1.0, 1e-9, 2e-9, 1e-9, 0.0, 0.0)

    def test_rejects_phase_out_of_range(self):
        with pytest.raises(ValueError):
            ResponsePoint(1e-6, 3.5, 0.0, 0.0, 0.0, 0.0, 0.0)


# Field values away from every default, so a field that __init__ does not
# store (and that would read its class default) shows.
_CONTRACT_SAMPLES = [
    (CoilCircuit, dict(turns=600, side_length_m=6.5e-4, flux_density_t=0.5,
                       r_coil_ohm=50.0, l_coil_h=1e-3, r_load_ohm=100.0)),
    (Excitation, dict(amplitude_m=2e-6, omega_rad_per_s=620.0)),
    (ResponsePoint, dict(z_amplitude_m=1e-5, phase_rad=1.0, p_dissipated_w=3e-4,
                         p_load_w=1e-4, p_total_electrical_w=2e-4, v_load_rms_v=0.1,
                         emf_rms_v=0.2)),
]


class TestHandWrittenInit:
    """The hot records write their own __init__; it must keep the dataclass contract."""

    @pytest.mark.parametrize("cls, kwargs", _CONTRACT_SAMPLES,
                             ids=[cls.__name__ for cls, _ in _CONTRACT_SAMPLES])
    def test_keeps_dataclass_contract(self, cls, kwargs):
        params = list(inspect.signature(cls.__init__).parameters.values())[1:]
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is MISSING else f.default)
            for f in fields(cls)
        ]
        assert list(kwargs) == [f.name for f in fields(cls)]
        obj = cls(**kwargs)
        assert vars(obj) == kwargs
        assert cls(*kwargs.values()) == obj
        assert hash(cls(**kwargs)) == hash(obj)
        for name, value in kwargs.items():
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, value)
            new = value // 2 if isinstance(value, int) else value / 2
            changed = replace(obj, **{name: new})
            assert vars(changed) == {**kwargs, name: new}
            assert replace(changed, **{name: value}) == obj


class TestDampingDecompositionType:
    def test_rejects_inconsistent_triple(self):
        with pytest.raises(ValueError):
            DampingDecomposition(
                q_total=100.0,
                q_open_circuit=150.0,
                q_electrical=900.0,
                zeta_p=1.0 / 300.0,
                zeta_e=1.0 / 1800.0,
                zeta_t=1.0 / 200.0,
            )


class TestEvaluateResponse:
    def _setup(self, r_load):
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023148148148148147)
        c = CoilCircuit(turns=600, side_length_m=6.547452702628663e-4,
                        flux_density_t=0.41, r_coil_ohm=93.0, r_load_ohm=r_load)
        e = Excitation(6.203337774020682e-07, natural_frequency(g))
        return g, c, e

    def test_resistive_split_is_consistent(self):
        g, c, e = self._setup(100.0)
        rp = evaluate_response(g, c, e)
        assert rp.p_load_w == pytest.approx(
            rp.p_total_electrical_w * 100.0 / 193.0, rel=1e-12
        )
        zeta_e = damping_ratio_from_coefficient(
            em_damping_coefficient(c, e.omega_rad_per_s), g
        )
        assert rp.p_total_electrical_w == pytest.approx(
            load_power(g, g.zeta_parasitic, zeta_e, e), rel=1e-12
        )
        assert rp.v_load_rms_v == pytest.approx(
            math.sqrt(rp.p_load_w * 100.0), rel=1e-12
        )

    def test_undamped_open_circuit_at_resonance_rejected(self):
        g, c, _ = self._setup(math.inf)
        g = GeneratorParams(g.mass_kg, g.stiffness_n_per_m, 0.0)
        with pytest.raises(ValueError, match="unbounded at exact resonance"):
            evaluate_response(g, c, Excitation(1e-6, natural_frequency(g)))

    def test_open_circuit_reports_emf_only(self):
        g, c, e = self._setup(math.inf)
        rp = evaluate_response(g, c, e)
        assert rp.p_load_w == 0.0
        assert rp.p_total_electrical_w == 0.0
        expected_emf = (
            c.coupling_v_s_per_m * rp.z_amplitude_m * e.omega_rad_per_s / math.sqrt(2.0)
        )
        assert rp.v_load_rms_v == pytest.approx(expected_emf, rel=1e-12)

    @pytest.mark.parametrize("r_load", [100.0, math.inf])
    def test_emf_is_coupling_times_velocity(self, r_load):
        g, c, e = self._setup(r_load)
        w = 0.99 * e.omega_rad_per_s
        rp = evaluate_response(g, c, Excitation(e.amplitude_m, w))
        assert rp.emf_rms_v == pytest.approx(
            c.coupling_v_s_per_m * rp.z_amplitude_m * w / math.sqrt(2.0), rel=1e-12
        )

    def test_total_damping_splits_parasitic_and_electrical(self):
        g, c, e = self._setup(100.0)
        c_p, c_e, zeta_t = total_damping(g, c, e.omega_rad_per_s)
        assert c_p == damping_coefficient_from_ratio(g.zeta_parasitic, g)
        assert c_e == em_damping_coefficient(c, e.omega_rad_per_s)
        assert zeta_t == pytest.approx(
            g.zeta_parasitic + damping_ratio_from_coefficient(c_e, g), rel=1e-14
        )

    def test_zero_base_amplitude_gives_zero_block(self):
        g, c, _ = self._setup(100.0)
        rp = evaluate_response(g, c, Excitation(0.0, natural_frequency(g)))
        assert rp.z_amplitude_m == 0.0
        assert rp.p_load_w == 0.0
        assert rp.v_load_rms_v == 0.0

    def test_overdamped_design_is_evaluated(self):
        # zeta_t ~ 1.3: the steady-state closed form holds past critical damping
        g = GeneratorParams(1e-3, 568.489, 0.01)
        c = CoilCircuit(2000, 1e-2, 1.0, 50.0, r_load_ohm=150.0)
        e = Excitation(1e-6, 2.0 * math.pi * 120.0)
        zeta_t = total_damping(g, c, e.omega_rad_per_s)[2]
        assert zeta_t > 1.0
        rp = evaluate_response(g, c, e)
        assert (rp.z_amplitude_m, rp.phase_rad) == displacement_response(g, zeta_t, e)
        assert rp.p_dissipated_w == dissipated_power(g, zeta_t, e)
        assert rp.p_total_electrical_w <= rp.p_dissipated_w

    @pytest.mark.parametrize(
        "circuit, w",
        [(CoilCircuit(1, 1e-2, 1.06e-103, 0.0, r_load_ohm=1.0), 10.0),
         (CoilCircuit(1, 1e-4, 1.0, 0.0, r_load_ohm=1.0), 10.000000000023025)],
        ids=["zeta-1e-207-at-resonance", "q-1e8-near-resonance"],
    )
    def test_extreme_q_keeps_power_ordering(self, circuit, w):
        # once a ZeroDivisionError and a 1.6e-11 overshoot of the electrical
        # power over the dissipated power; every power now shares one amplitude
        rp = evaluate_response(GeneratorParams(0.1, 10.0, 0.0), circuit, Excitation(1e-3, w))
        assert rp.p_load_w <= rp.p_total_electrical_w * (1.0 + 1e-12)
        assert rp.p_total_electrical_w <= rp.p_dissipated_w * (1.0 + 1e-12)
