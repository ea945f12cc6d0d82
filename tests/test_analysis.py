import math

import pytest

from emharvest.analysis import (
    CatalogRow,
    DeviceRecord,
    LoadSweep,
    SweepCurve,
    _parabola_vertex,
    compare_catalog,
    decompose_damping,
    estimate_mass_displacement,
    extract_q_half_power,
    find_optimal_load,
    normalize_power,
    power_density,
)
from emharvest.model import (
    CoilCircuit,
    Excitation,
    GeneratorParams,
    damping_coefficient_from_ratio,
    displacement_response,
    evaluate_response,
    natural_frequency,
    optimal_load,
)

PMG7 = DeviceRecord(
    name="pmg7",
    volume_mm3=41300.0,
    active_mass_kg=0.085,
    resonant_frequency_hz=50.0,
    measured_power_w=3e-3,
    measured_at_acceleration_m_s2=0.5,
)
CANTILEVER = DeviceRecord(
    name="cantilever_micro",
    volume_mm3=60.0,
    active_mass_kg=4.4e-4,
    resonant_frequency_hz=350.0,
    measured_power_w=2.85e-6,
    measured_at_acceleration_m_s2=3.0,
)
LATERAL = DeviceRecord(
    name="lateral_micro",
    volume_mm3=68.0,
    active_mass_kg=2.8e-5,
    resonant_frequency_hz=9500.0,
    measured_power_w=122e-9,
    measured_at_acceleration_m_s2=3.5,
)


def synthetic_curve(zeta, f0=350.0, points=241, span_bandwidths=5.0):
    wn = 2.0 * math.pi * f0
    g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, zeta)
    bw = 2.0 * zeta * f0
    freqs = [
        f0 - span_bandwidths * bw + 2.0 * span_bandwidths * bw * i / (points - 1)
        for i in range(points)
    ]
    mags = [
        displacement_response(g, zeta, Excitation(1e-6, 2.0 * math.pi * f))[0]
        for f in freqs
    ]
    return SweepCurve(tuple(freqs), tuple(mags), "m", 1.0, "peak")


class TestSweepCurve:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(freqs_hz=(1.0, 2.0, 3.0), magnitudes=(1.0, 2.0)),
            dict(freqs_hz=(1.0, 2.0, 3.0, 4.0), magnitudes=(1.0, 2.0, 3.0, 4.0)),
            dict(
                freqs_hz=(1.0, 2.0, 2.0, 4.0, 5.0),
                magnitudes=(1.0, 2.0, 3.0, 2.0, 1.0),
            ),
            dict(
                freqs_hz=(1.0, 2.0, 3.0, 4.0, 5.0),
                magnitudes=(1.0, 2.0, -3.0, 2.0, 1.0),
            ),
        ],
    )
    def test_rejects_bad_axes(self, kwargs):
        with pytest.raises(ValueError):
            SweepCurve(
                response_unit="V",
                excitation_acceleration_m_s2=1.0,
                **kwargs,
            )

    def test_rejects_bad_acceleration_tag(self):
        with pytest.raises(ValueError, match="acceleration_tag"):
            SweepCurve(
                (1.0, 2.0, 3.0, 4.0, 5.0),
                (1.0, 2.0, 3.0, 2.0, 1.0),
                "V",
                1.0,
                "amplitude",
            )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "freq_hz,z_amp_m,emf_rms_v,p_load_w\n"
            "340,1e-6,0.1,1e-9\n"
            "345,2e-6,0.2,2e-9\n"
            "350,9e-6,0.9,9e-9\n"
            "355,2e-6,0.2,2e-9\n"
            "360,1e-6,0.1,1e-9\n"
        )
        curve = SweepCurve.from_csv(str(path), 1.0)
        assert curve.freqs_hz == (340.0, 345.0, 350.0, 355.0, 360.0)
        assert curve.magnitudes == (0.1, 0.2, 0.9, 0.2, 0.1)
        assert curve.response_unit == "V"
        displacement = SweepCurve.from_csv(str(path), 1.0, response_column="z_amp_m")
        assert displacement.magnitudes == (1e-6, 2e-6, 9e-6, 2e-6, 1e-6)
        assert displacement.response_unit == "m"

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq_hz,other\n1,2\n")
        with pytest.raises(ValueError, match="emf_rms_v"):
            SweepCurve.from_csv(str(path), 1.0)

    @pytest.mark.parametrize(
        "row, match",
        [("3", r"line 4, column emf_rms_v: the row is too short"),
         ("3,big", r"line 4, column emf_rms_v: 'big' is not a number"),
         (",0.9", r"line 4, column freq_hz: '' is not a number")],
        ids=["short-row", "word", "empty-cell"],
    )
    def test_csv_bad_row_names_file_line_and_column(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"freq_hz,emf_rms_v\n1,0.1\n2,0.5\n{row}\n4,0.5\n5,0.1\n")
        with pytest.raises(ValueError, match=f"bad.csv, {match}"):
            SweepCurve.from_csv(str(path), 1.0)

    def test_csv_nan_cell_rejected(self, tmp_path):
        # a NaN magnitude used to be skipped by the half-power walk (Q ~ 0.73)
        path = tmp_path / "nan.csv"
        path.write_text(
            "freq_hz,emf_rms_v\n1,0.1\n2,0.5\n3,nan\n4,0.5\n5,0.1\n"
        )
        with pytest.raises(ValueError, match="magnitudes"):
            SweepCurve.from_csv(str(path), 1.0)


class TestExtractQHalfPower:
    def test_recovers_measured_q(self):
        q, f_res = extract_q_half_power(synthetic_curve(0.0023))
        assert q == pytest.approx(216.0, rel=0.02)
        assert f_res == pytest.approx(350.0, rel=1e-4)

    @pytest.mark.parametrize("zeta", [0.001, 0.0023, 0.01, 0.05])
    def test_round_trip_within_two_percent(self, zeta):
        q, _ = extract_q_half_power(synthetic_curve(zeta))
        assert q == pytest.approx(1.0 / (2.0 * zeta), rel=0.02)

    def test_triangle_peak_interpolation(self):
        curve = SweepCurve(
            (98.0, 99.0, 100.0, 101.0, 102.0),
            (0.2, 0.5, 1.0, 0.5, 0.2),
            "V",
            1.0,
            "peak",
        )
        q, f_res = extract_q_half_power(curve)
        assert f_res == pytest.approx(100.0, rel=1e-12)
        assert q == pytest.approx(85.35533905932697, rel=1e-12)

    def test_plateau_uses_widest_midpoint(self):
        curve = SweepCurve(
            (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0),
            (0.1, 0.5, 1.0, 1.0, 1.0, 0.5, 0.1),
            "V",
            1.0,
            "peak",
        )
        q, f_res = extract_q_half_power(curve)
        assert f_res == pytest.approx(40.0, rel=1e-12)
        assert q == pytest.approx(1.2612038749637415, rel=1e-12)

    def test_flat_curve_rejected(self):
        curve = SweepCurve(
            (1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 1.0, 1.0, 1.0, 1.0), "V", 1.0, "peak"
        )
        with pytest.raises(ValueError, match="dominant peak"):
            extract_q_half_power(curve)

    def test_peak_at_endpoint_rejected(self):
        curve = SweepCurve(
            (1.0, 2.0, 3.0, 4.0, 5.0), (5.0, 4.0, 3.0, 2.0, 1.0), "V", 1.0, "peak"
        )
        with pytest.raises(ValueError, match="dominant peak"):
            extract_q_half_power(curve)

    def test_unbracketed_bandwidth_rejected(self):
        curve = SweepCurve(
            (1.0, 2.0, 3.0, 4.0, 5.0), (0.8, 0.9, 1.0, 0.9, 0.8), "V", 1.0, "peak"
        )
        with pytest.raises(ValueError, match="not bracketed"):
            extract_q_half_power(curve)


# no interior maximum to refine toward: the middle point comes back
@pytest.mark.parametrize("points, vertex", [
    ((0.0, 0.0, 1.0, 1.0, 2.0, 2.0), (1.0, 1.0)),
    ((0.0, 1.0, 1.0, 0.0, 2.0, 1.0), (1.0, 0.0)),
], ids=["collinear", "convex"])
def test_parabola_vertex_falls_back_to_the_middle_point(points, vertex):
    assert _parabola_vertex(*points) == vertex


class TestDecomposeDamping:
    def test_measured_values(self):
        d = decompose_damping(181.0, 216.0)
        assert d.q_electrical == pytest.approx(1117.0285714285715, rel=1e-12)
        assert d.zeta_e == pytest.approx(0.0004476161244117045, rel=1e-12)
        assert d.zeta_p == pytest.approx(0.0023148148148148147, rel=1e-12)

    def test_ratios_sum_to_total(self):
        d = decompose_damping(181.0, 216.0)
        assert d.zeta_p + d.zeta_e == pytest.approx(d.zeta_t, rel=1e-12)

    def test_double_open_q(self):
        d = decompose_damping(105.0, 210.0)
        assert d.q_electrical == pytest.approx(210.0, rel=1e-12)

    @pytest.mark.parametrize("pair", [(100.0, 100.0), (216.0, 181.0), (0.0, 216.0)])
    def test_degenerate_pairs_rejected(self, pair):
        with pytest.raises(ValueError):
            decompose_damping(*pair)


class TestEstimateMassDisplacement:
    def test_lateral_device(self):
        assert estimate_mass_displacement(164.0, 1e-9) == pytest.approx(
            164e-9, rel=1e-12
        )

    def test_cantilever_device(self):
        assert estimate_mass_displacement(350.0, 0.62e-6) == pytest.approx(
            217e-6, rel=1e-12
        )

    def test_zero_base(self):
        assert estimate_mass_displacement(350.0, 0.0) == 0.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_mass_displacement(0.0, 1e-9)
        with pytest.raises(ValueError):
            estimate_mass_displacement(164.0, -1e-9)


class TestLoadSweep:
    @pytest.mark.parametrize(
        "rs, pl, pt",
        [
            ((1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
            ((1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
            ((0.0, 1.0, 2.0), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0)),
            ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (1.0, 2.0, 2.5)),
            ((1.0, 2.0, 3.0), (1.0, -2.0, 3.0), (1.0, 2.0, 3.0)),
        ],
    )
    def test_rejects_bad_columns(self, rs, pl, pt):
        with pytest.raises(ValueError):
            LoadSweep(rs, pl, pt)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "load.csv"
        path.write_text(
            "r_load_ohm,p_load_w,p_total_w\n10,1e-6,3e-6\n100,2e-6,3e-6\n1000,1e-6,3e-6\n"
        )
        ls = LoadSweep.from_csv(str(path))
        assert ls.r_load_ohm == (10.0, 100.0, 1000.0)
        assert ls.p_load_w == (1e-6, 2e-6, 1e-6)

    @pytest.mark.parametrize(
        "row, match",
        [("100,2e-6", r"line 3, column p_total_w: the row is too short"),
         ("100,2e-6,x", r"line 3, column p_total_w: 'x' is not a number")],
        ids=["short-row", "word"],
    )
    def test_csv_bad_row_names_file_line_and_column(self, tmp_path, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"r_load_ohm,p_load_w,p_total_w\n10,1e-6,3e-6\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv, {match}"):
            LoadSweep.from_csv(str(path))

    def test_csv_repeated_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r_load_ohm,p_load_w,p_total_w,p_load_w\n10,1e-6,3e-6,2e-6\n")
        with pytest.raises(ValueError, match="repeated column.*p_load_w"):
            LoadSweep.from_csv(str(path))

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "load.csv"
        path.write_text("r_load_ohm,p_total_w,p_load_w\n\n10,3e-6,1e-6\n\n100,3e-6,2e-6\n")
        ls = LoadSweep.from_csv(str(path))
        assert ls.r_load_ohm == (10.0, 100.0)
        assert ls.p_load_w == (1e-6, 2e-6)

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r_load_ohm,p_load_w\n10,1e-6\n")
        with pytest.raises(ValueError, match="p_total_w"):
            LoadSweep.from_csv(str(path))


class TestFindOptimalLoad:
    def test_synthetic_sweep_peaks_near_coil_resistance(self):
        # with parasitic damping well above electrical, the optimum sits
        # close to the coil resistance
        wn = 2.0 * math.pi * 350.0
        g = GeneratorParams(4.4e-4, 4.4e-4 * wn * wn, 0.0023148148148148147)
        e = Excitation(6.2e-7, natural_frequency(g))
        coil = CoilCircuit(turns=1, side_length_m=0.1, flux_density_t=1.0,
                           r_coil_ohm=93.0, r_load_ohm=1.0)
        n = 61
        rs = [10.0 * (1000.0 / 10.0) ** (i / (n - 1)) for i in range(n)]
        pl, pt = [], []
        for r in rs:
            rp = evaluate_response(
                g, CoilCircuit(turns=1, side_length_m=0.1, flux_density_t=1.0,
                               r_coil_ohm=93.0, r_load_ohm=r), e
            )
            pl.append(rp.p_load_w)
            pt.append(rp.p_total_electrical_w)
        r_opt, p_max = find_optimal_load(LoadSweep(tuple(rs), tuple(pl), tuple(pt)))
        c_p = damping_coefficient_from_ratio(g.zeta_parasitic, g)
        assert r_opt == pytest.approx(optimal_load(coil, c_p), rel=0.01)
        assert abs(r_opt - 93.0) / 93.0 < 0.05
        assert p_max == pytest.approx(max(pl), rel=1e-3)

    def test_equal_maxima_take_lower_resistance(self):
        ls = LoadSweep(
            (10.0, 100.0, 1000.0, 10000.0, 100000.0),
            (1.0, 2.0, 1.0, 2.0, 1.0),
            (2.0, 2.0, 2.0, 2.0, 2.0),
        )
        r_opt, p_max = find_optimal_load(ls)
        assert r_opt == pytest.approx(100.0, rel=1e-12)
        assert p_max == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "pl",
        [(1.0, 2.0, 3.0, 4.0, 5.0), (5.0, 4.0, 3.0, 2.0, 1.0)],
    )
    def test_boundary_maximum_rejected(self, pl):
        ls = LoadSweep((1.0, 2.0, 3.0, 4.0, 5.0), pl, (9.0,) * 5)
        with pytest.raises(ValueError, match="not bracketed"):
            find_optimal_load(ls)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3"):
            find_optimal_load(LoadSweep((1.0, 2.0), (1.0, 2.0), (3.0, 3.0)))


class TestNormalizePower:
    def test_pmg7_rescale(self):
        assert normalize_power(3e-3, 0.5, 3.0) == pytest.approx(0.108, rel=1e-12)

    def test_lateral_rescale(self):
        assert normalize_power(122e-9, 3.5, 3.0) == pytest.approx(
            8.963265306122448e-08, rel=1e-12
        )

    def test_identity(self):
        assert normalize_power(1.7e-6, 3.0, 3.0) == 1.7e-6

    def test_round_trip_is_identity(self):
        p = 2.85e-6
        there = normalize_power(p, 3.0, 0.5)
        back = normalize_power(there, 0.5, 3.0)
        assert back == pytest.approx(p, rel=1e-12)

    def test_bad_accelerations_rejected(self):
        with pytest.raises(ValueError):
            normalize_power(1.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            normalize_power(1.0, 3.0, -1.0)


class TestPowerDensity:
    def test_cantilever(self):
        assert power_density(CANTILEVER, 3.0) == pytest.approx(47.5, rel=1e-12)

    def test_pmg7(self):
        assert power_density(PMG7, 3.0) == pytest.approx(2615.01210653753, rel=1e-12)

    def test_lateral(self):
        assert power_density(LATERAL, 3.0) == pytest.approx(
            1.31812725090036, rel=1e-12
        )

    def test_zero_power_device(self):
        dead = DeviceRecord("dead", 10.0, 1e-3, 100.0, 0.0, 1.0)
        assert power_density(dead, 3.0) == 0.0


class TestCompareCatalog:
    def test_ranks_three_devices(self):
        rows = compare_catalog([LATERAL, CANTILEVER, PMG7], 3.0)
        assert [r.name for r in rows] == ["pmg7", "cantilever_micro", "lateral_micro"]
        assert rows[0].power_density_nw_mm3 == pytest.approx(2615.01210653753, rel=1e-12)
        assert rows[1].power_density_nw_mm3 == pytest.approx(47.5, rel=1e-12)
        assert rows[2].power_density_nw_mm3 == pytest.approx(1.31812725090036, rel=1e-12)
        assert rows[0].raw_power_w == 3e-3
        assert rows[0].normalized_power_w == pytest.approx(0.108, rel=1e-12)

    def test_single_record(self):
        rows = compare_catalog([CANTILEVER], 3.0)
        assert len(rows) == 1
        assert isinstance(rows[0], CatalogRow)

    def test_tied_density_sorts_by_name(self):
        twin_b = DeviceRecord("b_twin", 10.0, 1e-3, 100.0, 1e-6, 1.0)
        twin_a = DeviceRecord("a_twin", 10.0, 1e-3, 100.0, 1e-6, 1.0)
        rows = compare_catalog([twin_b, twin_a], 3.0)
        assert [r.name for r in rows] == ["a_twin", "b_twin"]

    def test_order_invariant_to_global_acceleration_rescale(self):
        originals = [PMG7, CANTILEVER, LATERAL]
        rescaled = [
            DeviceRecord(
                name=d.name,
                volume_mm3=d.volume_mm3,
                active_mass_kg=d.active_mass_kg,
                resonant_frequency_hz=d.resonant_frequency_hz,
                measured_power_w=d.measured_power_w,
                measured_at_acceleration_m_s2=2.0 * d.measured_at_acceleration_m_s2,
            )
            for d in originals
        ]
        order_a = [r.name for r in compare_catalog(originals, 3.0)]
        order_b = [r.name for r in compare_catalog(rescaled, 3.0)]
        assert order_a == order_b

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compare_catalog([], 3.0)

    def test_overflowing_density_rejected(self):
        # finite inputs whose normalized power overflows used to rank as inf
        loud = DeviceRecord("loud", 1.0, 1e-3, 100.0, 1e300, 1e-300)
        with pytest.raises(ValueError, match="normalized_power_w"):
            compare_catalog([loud], 3.0)


class TestDeviceRecord:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("volume_mm3", 0.0),
            ("active_mass_kg", -1.0),
            ("resonant_frequency_hz", 0.0),
            ("measured_power_w", -1e-9),
            ("measured_at_acceleration_m_s2", 0.0),
            ("volume_mm3", math.inf),
            ("resonant_frequency_hz", math.nan),
            ("measured_power_w", math.nan),
            ("measured_power_w", math.inf),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        kwargs = dict(
            name="x",
            volume_mm3=10.0,
            active_mass_kg=1e-3,
            resonant_frequency_hz=100.0,
            measured_power_w=1e-6,
            measured_at_acceleration_m_s2=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            DeviceRecord(**kwargs)
