"""Command-line front end: scenario reports, sweep/trace CSVs, beam tables,
and catalog comparison.

All numeric output uses scientific notation with 9 significant digits and
plain ASCII separators, so identical inputs give byte-identical files.

Exit codes: 0 success, 2 configuration problem or an --out file or stdout that
cannot be written, 4 simulation that did not reach steady state, 3 any other
numerical precondition failure (including a non-finite command-line number
and arithmetic that leaves the float range), 141 a closed pipe on stdout or --out.
run() is the process entry: it freezes gc, so the collections at exit skip what the
imports built.  main(argv) leaves gc alone: a frozen long-lived caller keeps its garbage.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace
from typing import Iterable, Iterator, Sequence, TextIO

from .analysis import compare_catalog
from .beam import BeamSpec, frequency_table
from .config import Catalog, ConfigError, Scenario, _lookup, load_catalog
from .model import (
    _CONVENTIONS,
    CoilCircuit,
    Excitation,
    GeneratorParams,
    check_displacement_limit,
    damping_coefficient_from_ratio,
    evaluate_response,
    natural_frequency,
    optimal_load,
)
from .sim import SimConfig, SimulationNotSettled, Trace, simulate

__all__ = ["main"]


_NUM = "%.8e"  # _csvrows.write_csv writes every CSV value in this format too


def _num(x: float) -> str:
    return _NUM % x


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The --out file, opened for writing, or stdout, flushed here.  An OSError from the
    open, a write, the flush or the close is a ConfigError naming --out or stdout, but a
    closed pipe stays a BrokenPipeError; the path, perhaps a device, is never removed."""
    try:
        with (open(out, "w", encoding="utf-8", newline="") if out is not None
              else nullcontext(sys.stdout)) as fh:
            yield fh
            fh.flush()  # stdout too, which the with leaves open
    except OSError as err:
        if out is None:  # the "Note on SIGPIPE" in Python's signal docs: what is left
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # goes nowhere
        if isinstance(err, BrokenPipeError):
            raise
        raise ConfigError(f"{'stdout' if out is None else '--out'}: {err}") from err


def _check_out(out: str) -> None:
    """Refuse an --out path that no open can write, without opening it: the
    file is neither created nor truncated.  _output maps the rest: open, write, close."""
    if not out:
        raise ConfigError("--out: empty path")
    if os.path.isdir(out):
        raise ConfigError(f"--out: {out!r} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"--out: no directory {parent!r}")


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_csv(names: Sequence[str], chunks: Iterable[Sequence[Sequence[float]]],
              out: str | None) -> None:
    """Write the chunks of columns as one CSV (see _csvrows.write_csv) to --out or stdout."""
    from ._csvrows import write_csv  # numpy formatting, loaded only by commands that write a CSV
    with _output(out) as fh:
        write_csv(fh, names, chunks)


def _drive(scn: Scenario, f_hz: float) -> Excitation:
    """The scenario's base acceleration, driven at f_hz."""
    return Excitation.from_acceleration(scn.accel_m_s2, 2.0 * math.pi * f_hz, scn.accel_tag)


def _scenario(
    args: argparse.Namespace, catalog: Catalog
) -> tuple[Scenario, GeneratorParams, CoilCircuit, Excitation]:
    """The --scenario (with any --accel-tag), its generator's params and
    circuit, and its drive at freq_hz."""
    scn = catalog.scenario(args.scenario)
    if args.accel_tag:
        scn = replace(scn, accel_tag=args.accel_tag)
    return scn, scn.generator.params, scn.generator.circuit, _drive(scn, scn.freq_hz)


def _cmd_model(args: argparse.Namespace, catalog: Catalog) -> int:
    scn, g, c, e = _scenario(args, catalog)
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


def _cmd_sweep(args: argparse.Namespace, catalog: Catalog) -> int:
    scn, g, c, e = _scenario(args, catalog)
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
        names = ("r_load_ohm", "p_load_w", "p_total_w")
        for r_load in rng.values():
            rp = evaluate_response(g, replace(c, r_load_ohm=r_load), e)
            rows.append((r_load, rp.p_load_w, rp.p_total_electrical_w))
    _emit_csv(names, [list(zip(*rows))], args.out)
    return 0


def _cmd_simulate(args: argparse.Namespace, catalog: Catalog) -> int:
    scn, g, c, e = _scenario(args, catalog)
    cfg = scn.sim if scn.sim is not None else SimConfig.suggest(g, c, e.omega_rad_per_s)
    if args.out is None:
        summary = simulate(g, c, e, cfg)
    else:  # the trace first, so that an --out the open refuses leaves stdout empty
        summary, blocks = simulate(g, c, e, cfg, return_trace="blocks")
        _emit_csv([f.name for f in fields(Trace)], blocks, args.out)
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
    _emit("\n".join(lines) + "\n", None)
    return 0


def _cmd_beam(args: argparse.Namespace, catalog: Catalog) -> int:
    if args.materials is None:
        names = sorted(catalog.materials)
    else:
        names = [s.strip() for s in args.materials.split(",")]
    mats = [_lookup("material", n, catalog.materials) for n in names]
    if not mats:
        raise ConfigError("no materials: the catalog has none")
    if repeated := sorted({n for n in names if names.count(n) > 1}):
        raise ConfigError("--materials: repeated name(s): " + ", ".join(repeated))
    try:
        thicknesses = [float(s) for s in args.thicknesses.split(",")]
    except ValueError as err:
        raise ConfigError(f"--thicknesses: {err}") from err
    base = BeamSpec(
        length_m=args.length,
        width_m=args.width,
        thickness_m=thicknesses[0],
        material=mats[0],
        tip_mass_kg=args.tip_mass,
    )
    grid = frequency_table(base, thicknesses, mats)
    names = ["thickness_m", *(f"{m.name}_hz" for m in mats)]
    _emit_csv(names, [[thicknesses, *zip(*grid)]], args.out)
    return 0


def _cmd_compare(args: argparse.Namespace, catalog: Catalog) -> int:
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
    p_beam.add_argument("--materials", help="comma-separated material names (default when "
                        "omitted: every catalog material, in name order)")
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
        if args.out is not None:
            _check_out(args.out)  # before any work, for every subcommand
        return args.run(args, load_catalog(args.config))
    except BrokenPipeError:  # the reader of stdout or of an --out pipe left
        return 141  # 128 + SIGPIPE, what a shell reports for a writer that SIGPIPE ends
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


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
