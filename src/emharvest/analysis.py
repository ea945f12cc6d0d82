"""Measurement post-processing: Q extraction, damping split, load optimum,
and acceleration-normalized device comparison.

Works on plain swept data (frequency or load resistance curves, measured or
synthetic) and on catalog records of published devices.  Interpolation is
deliberately local: linear for threshold crossings, three-point parabolic
for peak refinement, log-resistance domain for load sweeps.  No global
curve fitting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import groupby, repeat
from operator import eq

from .model import (
    _CONVENTIONS, DampingDecomposition, _check_increasing, _check_magnitudes, compose_q_factors,
)

__all__ = [
    "SweepCurve",
    "LoadSweep",
    "DeviceRecord",
    "CatalogRow",
    "extract_q_half_power",
    "decompose_damping",
    "estimate_mass_displacement",
    "find_optimal_load",
    "normalize_power",
    "power_density",
    "compare_catalog",
]

_HALF_POWER = 1.0 / math.sqrt(2.0)


def _read_columns(path: str, names: tuple[str, ...]) -> list[tuple[float, ...]]:
    """The named columns of a headed CSV file as float tuples.  A missing or
    repeated column, short row or non-number cell is a ValueError naming where."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in names if header.count(name) != 1]
        if missing:
            raise ValueError(f"{path}: missing or repeated column(s) {', '.join(missing)}")
        where = [(name, header.index(name)) for name in names]
        cols: list[list[float]] = [[] for _ in names]
        for row in reader:
            if not row:
                continue  # a blank line
            for col, (name, i) in zip(cols, where):
                try:
                    col.append(float(row[i]))
                except (IndexError, ValueError):
                    fault = (f"{row[i]!r} is not a number" if i < len(row)
                             else "the row is too short")
                    raise ValueError(
                        f"{path}, line {reader.line_num}, column {name}: {fault}"
                    ) from None
    return [tuple(col) for col in cols]


@dataclass(frozen=True)
class SweepCurve:
    """A response magnitude versus drive frequency, at one base acceleration.

    response_unit tags what the magnitudes are ("V" for voltage sweeps,
    "m" for displacement sweeps); the Q math is unit-agnostic.
    """

    freqs_hz: tuple[float, ...]
    magnitudes: tuple[float, ...]
    response_unit: str
    excitation_acceleration_m_s2: float
    acceleration_tag: str = "rms"

    def __post_init__(self) -> None:
        if len(self.freqs_hz) != len(self.magnitudes):
            raise ValueError("freqs_hz and magnitudes must have equal length")
        if len(self.freqs_hz) < 5:
            raise ValueError(f"need at least 5 sweep points, got {len(self.freqs_hz)}")
        _check_increasing("freqs_hz", self.freqs_hz)
        _check_magnitudes(
            (("excitation_acceleration_m_s2", self.excitation_acceleration_m_s2),),
            zip(repeat("freqs_hz"), self.freqs_hz),
        )
        _check_magnitudes(nonnegative=zip(repeat("magnitudes"), self.magnitudes))
        if self.acceleration_tag not in _CONVENTIONS:
            raise ValueError(
                f"acceleration_tag must be in {_CONVENTIONS}, got {self.acceleration_tag!r}"
            )

    @classmethod
    def from_csv(
        cls,
        path: str,
        excitation_acceleration_m_s2: float,
        response_column: str = "emf_rms_v",
        acceleration_tag: str = "rms",
    ) -> "SweepCurve":
        """Load a frequency-sweep CSV (freq_hz plus named response column)."""
        freqs, mags = _read_columns(path, ("freq_hz", response_column))
        unit = "m" if response_column.endswith("_m") else "V"
        return cls(
            freqs_hz=freqs,
            magnitudes=mags,
            response_unit=unit,
            excitation_acceleration_m_s2=excitation_acceleration_m_s2,
            acceleration_tag=acceleration_tag,
        )


@dataclass(frozen=True)
class LoadSweep:
    """Delivered and total electrical power versus load resistance."""

    r_load_ohm: tuple[float, ...]
    p_load_w: tuple[float, ...]
    p_total_w: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.r_load_ohm)
        if len(self.p_load_w) != n or len(self.p_total_w) != n:
            raise ValueError("all three columns must have equal length")
        _check_magnitudes(zip(repeat("r_load_ohm"), self.r_load_ohm))
        _check_increasing("r_load_ohm", self.r_load_ohm)
        _check_magnitudes(nonnegative=zip(repeat("p_load_w"), self.p_load_w))
        _check_magnitudes(nonnegative=zip(repeat("p_total_w"), self.p_total_w))
        for pl, pt in zip(self.p_load_w, self.p_total_w):
            if pl > pt * (1.0 + 1e-12):
                raise ValueError(f"p_load_w {pl} exceeds p_total_w {pt}")

    @classmethod
    def from_csv(cls, path: str) -> "LoadSweep":
        """Load a load-sweep CSV (r_load_ohm, p_load_w, p_total_w)."""
        return cls(*_read_columns(path, ("r_load_ohm", "p_load_w", "p_total_w")))


@dataclass(frozen=True)
class DeviceRecord:
    """One published device: geometry, mass, and a measured operating point."""

    name: str
    volume_mm3: float
    active_mass_kg: float
    resonant_frequency_hz: float
    measured_power_w: float
    measured_at_acceleration_m_s2: float

    def __post_init__(self) -> None:
        _check_magnitudes((
            ("volume_mm3", self.volume_mm3), ("active_mass_kg", self.active_mass_kg),
            ("resonant_frequency_hz", self.resonant_frequency_hz),
            ("measured_at_acceleration_m_s2", self.measured_at_acceleration_m_s2),
        ), (("measured_power_w", self.measured_power_w),))


@dataclass(frozen=True)
class CatalogRow:
    """One line of a ranked device comparison."""

    name: str
    volume_mm3: float
    raw_power_w: float
    normalized_power_w: float
    power_density_nw_mm3: float

    def __post_init__(self) -> None:
        _check_magnitudes(nonnegative=(
            ("normalized_power_w", self.normalized_power_w),
            ("power_density_nw_mm3", self.power_density_nw_mm3),
        ))


def _parabola_vertex(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float
) -> tuple[float, float]:
    """Vertex of the parabola through three points with distinct abscissae.

    Falls back to the middle point when the three are collinear or convex
    (no interior maximum to refine toward).
    """
    d1 = (y1 - y0) / (x1 - x0)
    d2 = (y2 - y1) / (x2 - x1)
    a2 = (d2 - d1) / (x2 - x0)
    if not a2 < 0.0:
        return x1, y1
    xv = 0.5 * (x0 + x1) - d1 / (2.0 * a2)
    yv = y0 + d1 * (xv - x0) + a2 * (xv - x0) * (xv - x1)
    return xv, yv


def _peak_region(mags: tuple[float, ...]) -> tuple[int, int]:
    """Inclusive start and end indices of the first widest run of maximum values."""
    best_start = best_len = start = 0
    for at_peak, run in groupby(mags, partial(eq, max(mags))):
        n = len(list(run))
        if at_peak and n > best_len:
            best_start, best_len = start, n
        start += n
    return best_start, best_start + best_len - 1


def extract_q_half_power(s: SweepCurve) -> tuple[float, float]:
    """Quality factor and resonant frequency by the half-power bandwidth.

    The resonant frequency comes from a parabolic refinement around the
    discrete maximum (plateaued maxima use the plateau midpoint); Q is
    f_res over the span between the two 1/sqrt(2)-of-peak crossings, each
    found by linear interpolation walking outward from the peak.
    """
    mags = s.magnitudes
    freqs = s.freqs_hz
    lo, hi = _peak_region(mags)
    if lo == 0 or hi == len(mags) - 1:
        raise ValueError("no dominant peak: maximum response sits at a sweep endpoint")
    if hi > lo:
        f_res = 0.5 * (freqs[lo] + freqs[hi])
        peak_val = mags[lo]
    else:
        f_res, peak_val = _parabola_vertex(
            freqs[lo - 1], mags[lo - 1],
            freqs[lo], mags[lo],
            freqs[lo + 1], mags[lo + 1],
        )
    threshold = peak_val * _HALF_POWER

    def cross(i_from: int, step: int) -> float:
        i = i_from
        while 0 <= i + step < len(mags):
            j = i + step
            if mags[j] < threshold <= mags[i]:
                # linear interpolation between samples j and i
                frac = (threshold - mags[j]) / (mags[i] - mags[j])
                return freqs[j] + frac * (freqs[i] - freqs[j])
            i = j
        raise ValueError(
            "bandwidth not bracketed: half-power level never crossed "
            f"{'below' if step < 0 else 'above'} the peak"
        )

    f_left = cross(lo, -1)
    f_right = cross(hi, +1)
    return f_res / (f_right - f_left), f_res


def decompose_damping(q_loaded: float, q_open: float) -> DampingDecomposition:
    """Split a loaded Q into parasitic and electrical parts.

    The open-circuit measurement carries only parasitic losses, so the
    electrical-only factor follows from the parallel composition of the
    two; q_open must exceed q_loaded or the electrical damping would come
    out negative.
    """
    _check_magnitudes((("q_loaded", q_loaded), ("q_open", q_open)))
    return compose_q_factors(q_total=q_loaded, q_open_circuit=q_open)


def estimate_mass_displacement(q_loaded: float, y_base_m: float) -> float:
    """Resonant proof-mass amplitude Q*Y from base amplitude Y."""
    _check_magnitudes((("q_loaded", q_loaded),), (("y_base_m", y_base_m),))
    return q_loaded * y_base_m


def find_optimal_load(ls: LoadSweep) -> tuple[float, float]:
    """Load resistance and power at the delivered-power maximum.

    The discrete maximum (first of equals, i.e. the lowest resistance) is
    refined with a parabola in log-resistance.  A maximum at either sweep
    end cannot be refined and is reported as an error instead of a guess.
    """
    if len(ls.r_load_ohm) < 3:
        raise ValueError(f"need at least 3 sweep points, got {len(ls.r_load_ohm)}")
    p = ls.p_load_w
    i_max = p.index(max(p))
    if i_max == 0 or i_max == len(p) - 1:
        raise ValueError("optimum not bracketed: maximum power at a sweep endpoint")
    x0, x1, x2 = (math.log(ls.r_load_ohm[j]) for j in (i_max - 1, i_max, i_max + 1))
    xv, pv = _parabola_vertex(x0, p[i_max - 1], x1, p[i_max], x2, p[i_max + 1])
    return math.exp(xv), pv


def normalize_power(p_w: float, a_measured_m_s2: float, a_target_m_s2: float) -> float:
    """Rescale a measured power to a different base acceleration.

    At fixed frequency the resonant power of the lumped model grows with
    acceleration squared, so the rescaling is (a_target / a_measured)^2.
    """
    _check_magnitudes(
        (("a_measured_m_s2", a_measured_m_s2), ("a_target_m_s2", a_target_m_s2)),
        (("p_w", p_w),),
    )
    ratio = a_target_m_s2 / a_measured_m_s2
    return p_w * ratio * ratio


def power_density(d: DeviceRecord, a_target_m_s2: float) -> float:
    """Acceleration-normalized power density in nW per mm^3."""
    p_norm = normalize_power(
        d.measured_power_w, d.measured_at_acceleration_m_s2, a_target_m_s2
    )
    return p_norm * 1e9 / d.volume_mm3


def compare_catalog(
    records: list[DeviceRecord], a_target_m_s2: float
) -> list[CatalogRow]:
    """Rank devices by normalized power density, best first.

    Equal densities fall back to name order so the report is deterministic.
    """
    if not records:
        raise ValueError("catalog is empty")
    rows = []
    for d in records:
        p_norm = normalize_power(
            d.measured_power_w, d.measured_at_acceleration_m_s2, a_target_m_s2
        )
        # power_density's expression, on the one normalized power
        rows.append(CatalogRow(d.name, d.volume_mm3, d.measured_power_w, p_norm,
                               p_norm * 1e9 / d.volume_mm3))
    rows.sort(key=lambda r: (-r.power_density_nw_mm3, r.name))
    return rows
