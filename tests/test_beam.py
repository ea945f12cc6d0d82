import math

import pytest

from emharvest.beam import (
    BeamSpec,
    MaterialProps,
    bending_stiffness,
    effective_mass,
    frequency_table,
    resonant_frequency,
)

SILICON = MaterialProps("silicon", 169e9, 2330.0)
STEEL = MaterialProps("stainless_302", 193e9, 7860.0)


def make_beam(length=5e-3, width=2e-3, thickness=150e-6, material=SILICON,
              tip_mass=4.4e-4):
    return BeamSpec(length, width, thickness, material, tip_mass)


class TestTypes:
    @pytest.mark.parametrize("field", ["youngs_modulus_pa", "density_kg_m3"])
    def test_material_rejects_nonpositive(self, field):
        kwargs = dict(name="x", youngs_modulus_pa=1e9, density_kg_m3=1000.0)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            MaterialProps(**kwargs)

    @pytest.mark.parametrize("field", ["youngs_modulus_pa", "density_kg_m3"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_material_rejects_non_finite(self, field, value):
        kwargs = dict(name="x", youngs_modulus_pa=1e9, density_kg_m3=1000.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            MaterialProps(**kwargs)

    @pytest.mark.parametrize(
        "field", ["length_m", "width_m", "thickness_m", "tip_mass_kg"]
    )
    def test_beam_rejects_nonpositive(self, field):
        kwargs = dict(length_m=5e-3, width_m=2e-3, thickness_m=150e-6,
                      material=SILICON, tip_mass_kg=4.4e-4)
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            BeamSpec(**kwargs)

    def test_beam_rejects_thickness_above_width(self):
        with pytest.raises(ValueError, match="width"):
            make_beam(width=100e-6, thickness=150e-6)


class TestStiffnessAndMass:
    def test_frozen_values(self):
        b = make_beam()
        assert bending_stiffness(b) == pytest.approx(2281.499999999999, rel=1e-12)
        assert effective_mass(b) == pytest.approx(0.00044082382142857145, rel=1e-12)

    def test_halving_length_multiplies_stiffness_by_8(self):
        k1 = bending_stiffness(make_beam(length=5e-3))
        k2 = bending_stiffness(make_beam(length=2.5e-3))
        assert k2 == pytest.approx(8.0 * k1, rel=1e-12)

    def test_effective_mass_uses_first_mode_fraction(self):
        b = make_beam()
        beam_mass = 2330.0 * 5e-3 * 2e-3 * 150e-6
        assert effective_mass(b) == pytest.approx(
            4.4e-4 + 33.0 / 140.0 * beam_mass, rel=1e-12
        )


class TestResonantFrequency:
    def test_frozen_value(self):
        assert resonant_frequency(make_beam()) == pytest.approx(
            362.07441749552885, rel=1e-12
        )

    def test_heavy_tip_drives_frequency_down(self):
        freqs = [
            resonant_frequency(make_beam(tip_mass=m))
            for m in (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
        ]
        assert all(b < a for a, b in zip(freqs, freqs[1:]))
        assert freqs[-1] < 0.05 * freqs[0]

    @pytest.mark.parametrize("scale", [2.0, 3.0])
    def test_thickness_power_law_under_tip_dominance(self, scale):
        # tip mass at least 100x the beam mass: f grows as thickness^(3/2)
        base = make_beam(thickness=20e-6, tip_mass=4.4e-4)
        thick = make_beam(thickness=20e-6 * scale, tip_mass=4.4e-4)
        assert base.tip_mass_kg > 100.0 * (2330.0 * 5e-3 * 2e-3 * 20e-6 * scale)
        ratio = resonant_frequency(thick) / resonant_frequency(base)
        assert ratio == pytest.approx(scale**1.5, rel=0.01)

    def test_equal_density_orders_by_modulus(self):
        stiff = MaterialProps("stiff", 200e9, 5000.0)
        soft = MaterialProps("soft", 50e9, 5000.0)
        f_stiff = resonant_frequency(make_beam(material=stiff))
        f_soft = resonant_frequency(make_beam(material=soft))
        assert f_stiff / f_soft == pytest.approx(math.sqrt(200.0 / 50.0), rel=1e-12)


class TestFrequencyTable:
    def test_rows_increase_with_thickness(self):
        grid = frequency_table(
            make_beam(), [50e-6, 100e-6, 150e-6, 200e-6], [SILICON, STEEL]
        )
        for col in range(2):
            column = [row[col] for row in grid]
            assert all(b > a for a, b in zip(column, column[1:]))

    def test_equal_density_modulus_ordering_everywhere(self):
        stiff = MaterialProps("stiff", 200e9, 5000.0)
        soft = MaterialProps("soft", 50e9, 5000.0)
        grid = frequency_table(make_beam(), [50e-6, 100e-6, 200e-6], [soft, stiff])
        for row in grid:
            assert row[1] > row[0]

    def test_single_cell_matches_direct_call(self):
        grid = frequency_table(make_beam(), [150e-6], [SILICON])
        assert grid == [[resonant_frequency(make_beam())]]

    @pytest.mark.parametrize("ts", [[], [100e-6, 100e-6], [200e-6, 100e-6]])
    def test_bad_thickness_axis_rejected(self, ts):
        with pytest.raises(ValueError):
            frequency_table(make_beam(), ts, [SILICON])

    def test_no_materials_rejected(self):
        with pytest.raises(ValueError, match="materials"):
            frequency_table(make_beam(), [100e-6], [])

    def test_cell_invariants_still_enforced(self):
        # each cell is a BeamSpec, so a thickness above the width gets its message
        with pytest.raises(ValueError, match=r"^thickness_m \(0\.00015\) must not exceed "
                                             r"width_m \(0\.0001\)$"):
            frequency_table(make_beam(width=100e-6, thickness=50e-6),
                            [50e-6, 150e-6], [SILICON])
