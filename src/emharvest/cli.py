"""Command-line front end: scenario reports, sweep/trace CSVs, beam tables,
and catalog comparison.

All numeric output uses scientific notation with 9 significant digits and
plain ASCII separators, so identical inputs give byte-identical files.

Exit codes: 0 success, 2 configuration problem or an --out file that cannot
be written, 4 simulation that did not reach steady state, 3 any other
numerical precondition failure (including a non-finite command-line number
and arithmetic that leaves the float range).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, Sequence, TextIO

import numpy as np

from .analysis import compare_catalog
from .beam import BeamSpec, frequency_table
from .config import ConfigError, Scenario, _lookup, load_catalog
from .model import (
    _CONVENTIONS,
    CoilCircuit,
    Excitation,
    check_displacement_limit,
    damping_coefficient_from_ratio,
    evaluate_response,
    natural_frequency,
    optimal_load,
)
from .sim import SimConfig, SimulationNotSettled, simulate

__all__ = ["main"]


_NUM = "%.8e"  # _csvrows.format_rows writes exactly these bytes


def _num(x: float) -> str:
    return _NUM % x


# rows formatted per write: the trace's 125k rows never exist as one string
_BLOCK_ROWS = 4096


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The --out file, opened for writing, or stdout."""
    if out is None:
        yield sys.stdout
    else:
        try:
            fh = open(out, "w", encoding="utf-8", newline="")
        except OSError as err:
            raise ConfigError(f"--out: {err}") from err
        with fh:
            yield fh


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_csv(names: Sequence[str], columns: Sequence[Sequence[float]], out: str | None) -> None:
    """Write a CSV: the column names, then one row in the _num format per
    index of the equal-length columns.

    Rows are formatted and written a block at a time, so memory does not
    grow with the row count.  Each block goes through the vectorised
    _csvrows.format_rows, or, where that cannot prove a value, through one
    ``%`` over its flattened values; the bytes are the same either way.
    """
    from ._csvrows import format_rows  # compiled only by commands that write a CSV

    cols = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join([_NUM] * len(names)) + "\n"
    with _output(out) as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, len(cols[0]), _BLOCK_ROWS):
            block = np.column_stack([col[i:i + _BLOCK_ROWS] for col in cols])
            text = format_rows(block)
            if text is None:
                text = row * len(block) % tuple(block.ravel().tolist())
            fh.write(text)


def _load_scenario(args: argparse.Namespace) -> Scenario:
    scn = load_catalog(args.config).scenario(args.scenario)
    if args.accel_tag:
        scn = replace(scn, accel_tag=args.accel_tag)
    return scn


def _drive(scn: Scenario, f_hz: float) -> Excitation:
    """The scenario's base acceleration, driven at f_hz."""
    return Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * f_hz, scn.accel_tag)


def _cmd_model(args: argparse.Namespace) -> int:
    scn = _load_scenario(args)
    g, c = scn.generator.params, scn.generator.circuit
    e = _drive(scn, scn.freq_hz)
    rp = evaluate_response(g, c, e)
    wn = natural_frequency(g)
    lines = [
        f"scenario                : {scn.name}",
        f"generator               : {scn.generator.name}",
        f"drive frequency Hz      : {_num(scn.freq_hz)}",
        f"natural frequency Hz    : {_num(wn / (2.0 * math.pi))}",
        f"natural frequency rad/s : {_num(wn)}",
        f"base accel m/s^2 ({scn.accel_tag})  : {_num(scn.accel_m_s2)}",
        f"base amplitude m (peak) : {_num(e.amplitude_m)}",
        f"relative amplitude m    : {_num(rp.z_amplitude_m)}",
        f"phase lag rad           : {_num(rp.phase_rad)}",
        f"dissipated power W      : {_num(rp.p_dissipated_w)}",
        f"load power W            : {_num(rp.p_load_w)}",
        f"total electrical W      : {_num(rp.p_total_electrical_w)}",
        f"load voltage V rms      : {_num(rp.v_load_rms_v)}",
    ]
    if g.zeta_parasitic > 0.0 and c.coupling_v_s_per_m > 0.0:
        c_par = damping_coefficient_from_ratio(g.zeta_parasitic, g)
        lines.append(f"optimal load ohm        : {_num(optimal_load(c, c_par))}")
    check = check_displacement_limit(g, rp.z_amplitude_m)
    if check.margin_m is None:
        lines.append("displacement limit      : none configured")
    else:
        verdict = "pass" if check.passed else "FAIL"
        lines.append(
            f"displacement limit      : {verdict} (margin m = {_num(check.margin_m)})"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scn = _load_scenario(args)
    g, c = scn.generator.params, scn.generator.circuit
    rng = scn.freq_sweep if args.kind == "frequency" else scn.load_sweep
    if rng is None:
        raise ConfigError(f"scenario {scn.name!r} defines no {args.kind} sweep range")
    rows = []
    if args.kind == "frequency":
        names = ("freq_hz", "z_amp_m", "emf_rms_v", "p_load_w")
        for f_hz in rng.values():
            rp = evaluate_response(g, c, _drive(scn, f_hz))
            rows.append((f_hz, rp.z_amplitude_m, rp.emf_rms_v, rp.p_load_w))
    else:
        e = _drive(scn, scn.freq_hz)
        names = ("r_load_ohm", "p_load_w", "p_total_w")
        for r_load in rng.values():
            circuit = CoilCircuit(c.turns, c.side_length_m, c.flux_density_t, c.r_coil_ohm,
                                  c.l_coil_h, r_load)
            rp = evaluate_response(g, circuit, e)
            rows.append((r_load, rp.p_load_w, rp.p_total_electrical_w))
    _emit_csv(names, list(zip(*rows)), args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scn = _load_scenario(args)
    g, c = scn.generator.params, scn.generator.circuit
    e = _drive(scn, scn.freq_hz)
    cfg = scn.sim if scn.sim is not None else SimConfig.suggest(g, c, e.omega_rad_per_s)
    if args.out:
        summary, trace = simulate(g, c, e, cfg, return_trace=True)
    else:
        summary = simulate(g, c, e, cfg)
        trace = None
    lines = [
        f"scenario                : {scn.name}",
        f"steps                   : {cfg.n_steps}",
        f"dt s                    : {_num(cfg.dt_s)}",
        f"duration s              : {_num(cfg.duration_s)}",
        f"relative amplitude m    : {_num(summary.z_amp_m)}",
        f"relative velocity rms   : {_num(summary.v_rel_rms_m_per_s)}",
        f"emf V rms               : {_num(summary.emf_rms_v)}",
        f"load power W            : {_num(summary.p_load_avg_w)}",
        f"parasitic power W       : {_num(summary.p_parasitic_avg_w)}",
        f"phase lag rad           : {_num(summary.phase_rad)}",
        f"energy residual         : {_num(summary.energy_balance_residual)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    if trace is not None:
        _emit_csv(
            ("t_s", "z_m", "zdot_m_s", "emf_v", "p_load_w"),
            (trace.t_s, trace.z_m, trace.zdot_m_s, trace.emf_v, trace.p_load_w),
            args.out,
        )
    return 0


def _cmd_beam(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.config)
    if args.materials:
        names = [s.strip() for s in args.materials.split(",") if s.strip()]
    else:
        names = sorted(catalog.materials)
    if not names:
        raise ConfigError("no materials: --materials names none, or the catalog has none")
    mats = [_lookup("material", n, catalog.materials) for n in names]
    try:
        thicknesses = [float(s) for s in args.thicknesses.split(",") if s.strip()]
    except ValueError as err:
        raise ConfigError(f"--thicknesses: {err}") from err
    if not thicknesses:
        raise ConfigError("--thicknesses: empty list")
    base = BeamSpec(
        length_m=args.length,
        width_m=args.width,
        thickness_m=thicknesses[0],
        material=mats[0],
        tip_mass_kg=args.tip_mass,
    )
    grid = frequency_table(base, thicknesses, mats)
    names = ["thickness_m", *(f"{m.name}_hz" for m in mats)]
    _emit_csv(names, [thicknesses, *zip(*grid)], args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.config)
    if not catalog.devices:
        raise ConfigError("catalog has no device sections")
    devices = sorted(catalog.devices.values(), key=lambda d: d.name)
    rows = compare_catalog(devices, args.target_accel)
    lines = [
        f"power density ranking at {_num(args.target_accel)} m/s^2",
        f"{'rank':<6}{'name':<20}{'volume_mm3':>16}{'raw_power_w':>16}"
        f"{'norm_power_w':>16}{'density_nw_mm3':>17}",
    ]
    for i, r in enumerate(rows, 1):
        lines.append(
            f"{i:<6}{r.name:<20}{_num(r.volume_mm3):>16}{_num(r.raw_power_w):>16}"
            f"{_num(r.normalized_power_w):>16}{_num(r.power_density_nw_mm3):>17}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emharvest",
        description="Resonant electromagnetic vibration harvester toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="catalog file (default: bundled catalog)")
    common.add_argument("--out", help="write output to this file instead of stdout")

    scenario_common = argparse.ArgumentParser(add_help=False, parents=[common])
    scenario_common.add_argument("--scenario", required=True, help="scenario name")
    scenario_common.add_argument(
        "--accel-tag",
        choices=_CONVENTIONS,
        help="override the scenario's acceleration amplitude convention",
    )

    sub.add_parser(
        "model",
        parents=[scenario_common],
        help="closed-form steady-state report for one scenario",
    ).set_defaults(run=_cmd_model)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[scenario_common],
        help="frequency or load-resistance sweep CSV",
    )
    p_sweep.add_argument("--kind", choices=("frequency", "load"), required=True)
    p_sweep.set_defaults(run=_cmd_sweep)

    sim_help = (
        "time-domain run of an underdamped design (total damping ratio < 1; "
        "model and sweep cover >= 1); --out writes the full trace CSV"
    )
    sub.add_parser(
        "simulate", parents=[scenario_common], help=sim_help, description=sim_help
    ).set_defaults(run=_cmd_simulate)

    p_beam = sub.add_parser(
        "beam",
        parents=[common],
        help="cantilever frequency table over thickness and material",
    )
    p_beam.add_argument("--length", type=float, required=True, help="beam length, m")
    p_beam.add_argument("--width", type=float, required=True, help="beam width, m")
    p_beam.add_argument(
        "--tip-mass", type=float, required=True, help="tip mass, kg", dest="tip_mass"
    )
    p_beam.add_argument(
        "--thicknesses",
        required=True,
        help="comma-separated beam thicknesses, m, strictly increasing",
    )
    p_beam.add_argument(
        "--materials",
        help="comma-separated material names (default: all, name order)",
    )
    p_beam.set_defaults(run=_cmd_beam)

    p_cmp = sub.add_parser(
        "compare",
        parents=[common],
        help="rank catalog devices by normalized power density",
    )
    p_cmp.add_argument(
        "--target-accel",
        type=float,
        default=3.0,
        dest="target_accel",
        help="base acceleration to normalize to, m/s^2 (default 3.0)",
    )
    p_cmp.set_defaults(run=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SimulationNotSettled as err:
        print(f"error: simulation did not settle: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ArithmeticError as err:
        # finite inputs whose squares or quotients leave the float range
        print(f"error: value out of floating-point range: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
