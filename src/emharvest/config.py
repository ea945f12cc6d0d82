"""INI catalog loading: materials, device records, generator assemblies,
and named run scenarios.

Grammar: one entity per section, section names are "<kind>.<name>" with
kind in {material, device, generator, scenario}; keys mirror the dataclass
fields of the entity.  A scenario either references a generator section by
name (generator = <name>) or carries the full generator key set inline.
All problems (missing file, bad number, dangling reference, violated
domain invariant) surface as ConfigError with the section and key named.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources

from .analysis import DeviceRecord
from .beam import MaterialProps
from .model import _CONVENTIONS, CoilCircuit, GeneratorParams, _check_magnitudes
from .sim import SimConfig

__all__ = [
    "ConfigError",
    "GeneratorAssembly",
    "SweepRange",
    "Scenario",
    "Catalog",
    "load_catalog",
]


class ConfigError(Exception):
    """Invalid or unresolvable configuration input."""


@dataclass(frozen=True)
class GeneratorAssembly:
    """Mechanical parameters plus coil circuit for one generator."""

    name: str
    params: GeneratorParams
    circuit: CoilCircuit


@dataclass(frozen=True)
class SweepRange:
    """An inclusive 1-D sweep: start, stop, point count, axis scaling."""

    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        _check_magnitudes(nonnegative=(("start", self.start), ("stop", self.stop)))
        if self.points < 1:
            raise ValueError(f"points must be >= 1, got {self.points}")
        if self.points == 1:
            if self.stop != self.start:
                raise ValueError("a one-point range needs stop == start")
        elif not self.stop > self.start:
            raise ValueError(
                f"range is empty or reversed: start={self.start}, stop={self.stop}"
            )
        if self.scale not in ("linear", "log"):
            raise ValueError(f"scale must be linear|log, got {self.scale!r}")
        if self.scale == "log" and self.start == 0.0:
            raise ValueError("log-scaled range needs start > 0")

    def values(self) -> list[float]:
        if self.points == 1:
            return [self.start]
        if self.scale == "log":
            la, lb = math.log(self.start), math.log(self.stop)
            step = (lb - la) / (self.points - 1)
            vals = [math.exp(la + i * step) for i in range(self.points)]
            # pin the endpoints against round-off
            vals[0], vals[-1] = self.start, self.stop
            return vals
        step = (self.stop - self.start) / (self.points - 1)
        vals = [self.start + i * step for i in range(self.points)]
        vals[-1] = self.stop
        return vals


@dataclass(frozen=True)
class Scenario:
    """A runnable configuration: generator, excitation, and run options."""

    name: str
    generator: GeneratorAssembly
    accel_m_s2: float
    accel_tag: str
    freq_hz: float
    freq_sweep: SweepRange | None = None
    load_sweep: SweepRange | None = None
    sim: SimConfig | None = None

    def __post_init__(self) -> None:
        _check_magnitudes((("freq_hz", self.freq_hz),), (("accel_m_s2", self.accel_m_s2),))
        if self.accel_tag not in _CONVENTIONS:
            raise ValueError(f"accel_tag must be in {_CONVENTIONS}, got {self.accel_tag!r}")


@dataclass(frozen=True)
class Catalog:
    """Everything loaded from one config file, keyed by entity name."""

    materials: dict[str, MaterialProps]
    devices: dict[str, DeviceRecord]
    generators: dict[str, GeneratorAssembly]
    scenarios: dict[str, Scenario]

    def scenario(self, name: str) -> Scenario:
        if name not in self.scenarios:
            raise ConfigError(
                f"unknown scenario {name!r}; available: "
                + ", ".join(sorted(self.scenarios) or ["(none)"])
            )
        return self.scenarios[name]

    def generator(self, name: str) -> GeneratorAssembly:
        if name not in self.generators:
            raise ConfigError(
                f"unknown generator {name!r}; available: "
                + ", ".join(sorted(self.generators) or ["(none)"])
            )
        return self.generators[name]


_MISSING = object()


class _Section:
    """One INI section with typed, error-reporting accessors."""

    def __init__(self, name: str, raw: configparser.SectionProxy):
        self.name = name
        self.raw = raw

    def _fetch(self, key: str, default):
        if key in self.raw:
            return self.raw[key]
        if default is _MISSING:
            raise ConfigError(f"[{self.name}] missing required key {key!r}")
        return None

    def get_str(self, key: str, default=_MISSING) -> str | None:
        val = self._fetch(key, default)
        return default if val is None else val.strip()

    def get_float(self, key: str, default=_MISSING) -> float | None:
        val = self._fetch(key, default)
        if val is None:
            return default
        try:
            return float(val)
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key} = {val!r} is not a number") from err

    def get_int(self, key: str, default=_MISSING) -> int | None:
        val = self._fetch(key, default)
        if val is None:
            return default
        try:
            return int(val)
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {key} = {val!r} is not an integer") from err

    def build(self, factory, /, **kwargs):
        """Run a dataclass constructor, recasting its errors as ConfigError."""
        try:
            return factory(**kwargs)
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {err}") from err


def _parse_material(sec: _Section, name: str) -> MaterialProps:
    return sec.build(
        MaterialProps,
        name=name,
        youngs_modulus_pa=sec.get_float("youngs_modulus_pa"),
        density_kg_m3=sec.get_float("density_kg_m3"),
    )


def _parse_device(sec: _Section, name: str) -> DeviceRecord:
    return sec.build(
        DeviceRecord,
        name=name,
        volume_mm3=sec.get_float("volume_mm3"),
        active_mass_kg=sec.get_float("active_mass_kg"),
        resonant_frequency_hz=sec.get_float("resonant_frequency_hz"),
        measured_power_w=sec.get_float("measured_power_w"),
        measured_at_acceleration_m_s2=sec.get_float("measured_at_acceleration_m_s2"),
        flux_density_t=sec.get_float("flux_density_t", None),
        r_coil_ohm=sec.get_float("r_coil_ohm", None),
        notes=sec.get_str("notes", "") or "",
    )


def _parse_generator(sec: _Section, name: str) -> GeneratorAssembly:
    params = sec.build(
        GeneratorParams,
        mass_kg=sec.get_float("mass_kg"),
        stiffness_n_per_m=sec.get_float("stiffness_n_per_m"),
        zeta_parasitic=sec.get_float("zeta_parasitic"),
        displacement_limit_m=sec.get_float("displacement_limit_m", None),
    )
    circuit = sec.build(
        CoilCircuit,
        turns=sec.get_int("turns"),
        side_length_m=sec.get_float("side_length_m"),
        flux_density_t=sec.get_float("flux_density_t"),
        r_coil_ohm=sec.get_float("r_coil_ohm"),
        l_coil_h=sec.get_float("l_coil_h", 0.0),
        r_load_ohm=sec.get_float("r_load_ohm"),
    )
    return GeneratorAssembly(name=name, params=params, circuit=circuit)


def _parse_sweep(sec: _Section, prefix: str, default_scale: str) -> SweepRange | None:
    start = sec.get_float(f"{prefix}_start", None)
    stop = sec.get_float(f"{prefix}_stop", None)
    points = sec.get_int(f"{prefix}_points", None)
    present = [v is not None for v in (start, stop, points)]
    if not any(present):
        return None
    if not all(present):
        raise ConfigError(
            f"[{sec.name}] sweep needs all of {prefix}_start, {prefix}_stop, "
            f"{prefix}_points"
        )
    scale = sec.get_str(f"{prefix}_scale", default_scale) or default_scale
    return sec.build(SweepRange, start=start, stop=stop, points=points, scale=scale)


def _parse_scenario(
    sec: _Section, name: str, generators: dict[str, GeneratorAssembly]
) -> Scenario:
    gen_ref = sec.get_str("generator", None)
    if gen_ref is not None:
        if gen_ref not in generators:
            raise ConfigError(
                f"[{sec.name}] references unknown generator {gen_ref!r}; "
                "available: " + ", ".join(sorted(generators) or ["(none)"])
            )
        assembly = generators[gen_ref]
    else:
        assembly = _parse_generator(sec, name=f"{name} (inline)")

    sim = None
    dt = sec.get_float("dt_s", None)
    duration = sec.get_float("duration_s", None)
    if (dt is None) != (duration is None):
        raise ConfigError(f"[{sec.name}] dt_s and duration_s must be given together")
    if dt is not None:
        sim = sec.build(
            SimConfig,
            dt_s=dt,
            duration_s=duration,
            settle_fraction=sec.get_float("settle_fraction", 0.8),
        )

    return sec.build(
        Scenario,
        name=name,
        generator=assembly,
        accel_m_s2=sec.get_float("accel_m_s2"),
        accel_tag=sec.get_str("accel_tag", "peak") or "peak",
        freq_hz=sec.get_float("freq_hz"),
        freq_sweep=_parse_sweep(sec, "freq", "linear"),
        load_sweep=_parse_sweep(sec, "load", "log"),
        sim=sim,
    )


def _parse_text(text: str, origin: str) -> Catalog:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as err:
        raise ConfigError(f"{origin}: {err}") from err

    materials: dict[str, MaterialProps] = {}
    devices: dict[str, DeviceRecord] = {}
    generators: dict[str, GeneratorAssembly] = {}
    scenario_secs: list[tuple[_Section, str]] = []

    for section in cp.sections():
        kind, dot, name = section.partition(".")
        if not dot or not name:
            raise ConfigError(
                f"section [{section}] must be named <kind>.<name> with kind in "
                "material|device|generator|scenario"
            )
        sec = _Section(section, cp[section])
        if kind == "material":
            materials[name] = _parse_material(sec, name)
        elif kind == "device":
            devices[name] = _parse_device(sec, name)
        elif kind == "generator":
            generators[name] = _parse_generator(sec, name)
        elif kind == "scenario":
            scenario_secs.append((sec, name))  # generators may come later
        else:
            raise ConfigError(f"section [{section}] has unknown kind {kind!r}")

    scenarios = {
        name: _parse_scenario(sec, name, generators) for sec, name in scenario_secs
    }
    return Catalog(
        materials=materials,
        devices=devices,
        generators=generators,
        scenarios=scenarios,
    )


def load_catalog(path: str | None = None) -> Catalog:
    """Load a catalog file; with path=None the bundled catalog is used."""
    if path is None:
        text = (
            resources.files("emharvest").joinpath("data/catalog.ini").read_text()
        )
        return _parse_text(text, "bundled catalog")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return _parse_text(text, path)
