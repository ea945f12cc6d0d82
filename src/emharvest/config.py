"""INI catalog loading: materials, device records, generator assemblies,
and named run scenarios.

Grammar: one entity per section, section names are "<kind>.<name>" with
kind in {material, device, generator, scenario}; keys are the dataclass
fields of the entity, and a field with a default is optional.  A scenario
either references a generator section by name (generator = <name>) or
carries the full generator key set inline.
All problems (missing file, bad number, dangling reference, a key the
section does not read, violated domain invariant) surface as ConfigError
with the section and key named.
"""

from __future__ import annotations

import configparser
import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields
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

# the longest sweep a catalog may ask for; the bundled scenarios use <= 81
_MAX_POINTS = 1_000_000


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
        if not 1 <= self.points <= _MAX_POINTS:
            raise ValueError(f"points must be in [1, {_MAX_POINTS}], got {self.points}")
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
        return _lookup("scenario", name, self.scenarios)

    def generator(self, name: str) -> GeneratorAssembly:
        return _lookup("generator", name, self.generators)


def _lookup(kind: str, name: str, table: dict, where: str = ""):
    """table[name], or a ConfigError listing the names that do exist."""
    if name not in table:
        raise ConfigError(
            f"{where}unknown {kind} {name!r}; available: "
            + ", ".join(sorted(table) or ["(none)"])
        )
    return table[name]


@functools.cache
def _keys(cls) -> tuple[tuple[str, type, object], ...]:
    """(name, kind, default) per field of cls: int and str fields are read
    as such, any other as float; MISSING marks a required key."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name] if hints[f.name] in (int, str) else float, f.default)
        for f in fields(cls)
    )


class _Section:
    """One INI section: a typed accessor that records the keys it reads."""

    def __init__(self, name: str, raw: configparser.SectionProxy):
        self.name = name
        self.raw = raw
        self.read: set[str] = set()

    def get(self, key: str, kind=float, default=MISSING):
        """key's value as kind (float, int or str); required unless defaulted."""
        self.read.add(key)
        if key not in self.raw:
            if default is MISSING:
                raise ConfigError(f"[{self.name}] missing required key {key!r}")
            return default
        val = self.raw[key]
        try:
            return kind(val)
        except ValueError as err:
            what = "an integer" if kind is int else "a number"
            raise ConfigError(f"[{self.name}] {key} = {val!r} is not {what}") from err

    def reject_unread(self) -> None:
        if unread := sorted(self.raw.keys() - self.read):
            raise ConfigError(
                f"[{self.name}] unknown or unused key(s): " + ", ".join(unread)
            )

    def build(self, cls, /, **given):
        """cls(**given), each other field read from the key of its name;
        the dataclass's errors are recast as ConfigError."""
        for key, kind, default in _keys(cls):
            if key not in given:
                given[key] = self.get(key, kind, default)
        try:
            return cls(**given)
        except ValueError as err:
            raise ConfigError(f"[{self.name}] {err}") from err


def _parse_generator(sec: _Section, name: str) -> GeneratorAssembly:
    params = sec.build(GeneratorParams)
    # required here, although CoilCircuit defaults it to 1 ohm
    circuit = sec.build(CoilCircuit, r_load_ohm=sec.get("r_load_ohm"))
    return GeneratorAssembly(name=name, params=params, circuit=circuit)


def _parse_sweep(sec: _Section, prefix: str, default_scale: str) -> SweepRange | None:
    start = sec.get(f"{prefix}_start", float, None)
    stop = sec.get(f"{prefix}_stop", float, None)
    points = sec.get(f"{prefix}_points", int, None)
    present = [v is not None for v in (start, stop, points)]
    if not any(present):
        return None
    if not all(present):
        raise ConfigError(
            f"[{sec.name}] sweep needs all of {prefix}_start, {prefix}_stop, "
            f"{prefix}_points"
        )
    scale = sec.get(f"{prefix}_scale", str, default_scale)
    return sec.build(SweepRange, start=start, stop=stop, points=points, scale=scale)


def _parse_scenario(
    sec: _Section, name: str, generators: dict[str, GeneratorAssembly]
) -> Scenario:
    gen_ref = sec.get("generator", str, None)
    if gen_ref is not None:
        assembly = _lookup("generator", gen_ref, generators, f"[{sec.name}] ")
    else:
        assembly = _parse_generator(sec, name=f"{name} (inline)")

    return sec.build(
        Scenario,
        name=name,
        generator=assembly,
        # the catalog's default; Scenario has none
        accel_tag=sec.get("accel_tag", str, "peak"),
        freq_sweep=_parse_sweep(sec, "freq", "linear"),
        load_sweep=_parse_sweep(sec, "load", "log"),
        sim=sec.build(SimConfig) if "dt_s" in sec.raw or "duration_s" in sec.raw else None,
    )


def _parse_text(text: str, origin: str) -> Catalog:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as err:
        raise ConfigError(f"{origin}: {err}") from err
    if cp.defaults():
        raise ConfigError(
            f"{origin}: a [DEFAULT] section would add its keys to every section"
        )

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
            materials[name] = sec.build(MaterialProps, name=name)
        elif kind == "device":
            devices[name] = sec.build(DeviceRecord, name=name)
        elif kind == "generator":
            generators[name] = _parse_generator(sec, name)
        elif kind == "scenario":
            scenario_secs.append((sec, name))  # generators may come later
            continue
        else:
            raise ConfigError(f"section [{section}] has unknown kind {kind!r}")
        sec.reject_unread()

    scenarios = {}
    for sec, name in scenario_secs:
        scenarios[name] = _parse_scenario(sec, name, generators)
        sec.reject_unread()
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
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return _parse_text(text, path)
