"""The four benchmark workloads: seeded inputs, the op each one times, and
the independent reference every answer is checked against.

Importing this module imports emharvest (and with it numpy and scipy), so a
worker imports it inside its timed set-up.

Every op is a dict made from the seed alone.  A workload makes its inputs as
rounds: each round holds one op of every kind the workload mixes, so a run of
whole rounds always has the same mix and its percentiles do not depend on
where the run stopped.

All library calls go through module attributes (``eh.evaluate_response``,
``eh.cli.main``) so that the traced run, which rebinds those names, sees them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np

import emharvest as eh
import emharvest.cli

# The criterion-5 tolerance: simulated amplitude within 0.5% of the closed
# form; power goes with amplitude squared, so twice that.
AMP_TOL = 5e-3
POWER_TOL = 1e-2
# The CLI prints %.8e: nine significant digits, so at most 5e-9 relative.
PRINT_TOL = 1e-8

SQRT2 = math.sqrt(2.0)


class Context:
    """What every workload shares: the checkout, the child environment and
    the bundled catalog."""

    def __init__(self, root: str, env: dict[str, str], tmpdir: str):
        self.root = root
        self.env = env
        self.tmpdir = tmpdir
        self.catalog = eh.load_catalog()
        self.materials = [self.catalog.materials[n] for n in sorted(self.catalog.materials)]
        self.scenarios = sorted(self.catalog.scenarios)
        self.generators = sorted(self.catalog.generators)


def rel_err(answer, ref) -> float:
    """Relative deviation; arrays are scaled by the largest reference value."""
    if isinstance(ref, np.ndarray):
        scale = float(np.max(np.abs(ref)))
        diff = float(np.max(np.abs(answer - ref)))
        return diff / scale if scale > 0.0 else diff
    if ref == 0.0:
        return abs(answer)
    return abs(answer - ref) / abs(ref)


def check_op(w, op, out, err, refs=None) -> tuple[float, list[str]]:
    """Check one op's answers against its references.

    Returns the largest relative deviation seen and the list of problems; an
    op fails when that list is not empty.  ``refs`` replaces the workload's
    own references, which is how the self-test feeds a wrong one.
    """
    if err is not None:
        return 0.0, [f"{type(err).__name__}: {err}"]
    answers, problems = w.answers(op, out)
    if refs is None:
        refs = w.reference(op)
    worst = 0.0
    for label, (ref, tol) in refs.items():
        if label not in answers:
            problems.append(f"{label}: missing from the output")
            continue
        e = rel_err(answers[label], ref)
        worst = max(worst, e)
        if not e <= tol:
            problems.append(f"{label}: relative deviation {e:.3e} > {tol:g}")
    return worst, problems


# --------------------------------------------------------------------------
# CLI workloads


class CliOut:
    """What one CLI call produced."""

    def __init__(self, rc: int, text: str, stderr: str, out_path: str | None):
        self.rc = rc
        self.text = text
        self.stderr = stderr
        self.out_path = out_path

    def written(self) -> tuple[int, int]:
        """Rows and bytes the call wrote to stdout and to its --out file."""
        rows = self.text.count("\n")
        nbytes = len(self.text.encode())
        if self.out_path is not None and os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                data = fh.read()
            rows += data.count(b"\n")
            nbytes += len(data)
        return rows, nbytes


def _report_values(text: str) -> dict[str, float]:
    """The numbers of a `label : value` report, keyed by label."""
    vals: dict[str, float] = {}
    for line in text.splitlines():
        label, sep, rest = line.partition(" : ")
        words = rest.split()
        if not sep or not words:
            continue
        try:
            vals[label.strip()] = float(words[0])
        except ValueError:
            pass
    return vals


def _csv_values(text: str, header: str, nrows: int, problems: list[str]) -> dict[str, float]:
    """Cells of a small CSV keyed `r<row>.<column>`, after checking its shape."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        problems.append(f"header {lines[:1]!r} is not {header!r}")
        return {}
    if len(lines) - 1 != nrows:
        problems.append(f"{len(lines) - 1} rows, expected {nrows}")
    cols = header.split(",")
    vals = {}
    for i, line in enumerate(lines[1:]):
        for col, cell in zip(cols, line.split(",")):
            vals[f"r{i}.{col}"] = float(cell)
    return vals


def _table_refs(header: str, rows: list[list[float]]) -> dict:
    cols = header.split(",")
    return {
        f"r{i}.{col}": (v, PRINT_TOL)
        for i, row in enumerate(rows)
        for col, v in zip(cols, row)
    }


class CliWorkload:
    """Ops are argv lists for `python -m emharvest.cli`."""

    timing_reference = "process"  # an op is mostly interpreter start-up and import

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def _argv(self, op) -> tuple[list[str], str | None]:
        argv = list(op["argv"])
        out_path = None
        if op.get("out"):
            out_path = os.path.join(self.ctx.tmpdir, f"{op['id']}.csv")
            argv += ["--out", out_path]
        return argv, out_path

    def run(self, op) -> CliOut:
        """A fresh interpreter per op: what a CLI user waits for."""
        argv, out_path = self._argv(op)
        proc = subprocess.run(
            [sys.executable, "-m", "emharvest.cli", *argv],
            cwd=self.ctx.root,
            env=self.ctx.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return CliOut(proc.returncode, proc.stdout, proc.stderr, out_path)

    def run_inproc(self, op) -> CliOut:
        """The same call through `emharvest.cli.main`, for the traced run."""
        argv, out_path = self._argv(op)
        out, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errs):
            rc = eh.cli.main(argv)
        return CliOut(rc, out.getvalue(), errs.getvalue(), out_path)

    def answers(self, op, out: CliOut):
        if out.rc != 0:
            return {}, [f"exit code {out.rc}: {out.stderr.strip()[:200]}"]
        problems: list[str] = []
        return self._parse(op, out, problems), problems

    def _scenario(self, name: str):
        scn = self.ctx.catalog.scenario(name)
        g, c = scn.generator.params, scn.generator.circuit
        w = 2.0 * math.pi * scn.freq_hz
        e = eh.Excitation.from_acceleration(scn.accel_m_s2, w, scn.accel_tag)
        return scn, g, c, w, e


class CliCold(CliWorkload):
    """One op is one fresh CLI process that runs no RK4: `model`, both sweeps
    on both bundled scenarios, `compare` and `beam` with seeded arguments."""

    name = "cli_cold"
    nominal_round_s = 6.5

    def make_round(self, rng: random.Random, k: int) -> list[dict]:
        ops = []
        for scn in self.ctx.scenarios:
            ops.append({"kind": "model", "argv": ["model", "--scenario", scn]})
            for kind in ("frequency", "load"):
                ops.append({"kind": "sweep_" + kind,
                            "argv": ["sweep", "--kind", kind, "--scenario", scn]})
        accel = rng.uniform(0.5, 10.0)
        ops.append({"kind": "compare", "accel": accel,
                    "argv": ["compare", "--target-accel", repr(accel)]})
        width = rng.uniform(1.5e-3, 3e-3)
        beam = {
            "length": rng.uniform(3e-3, 8e-3),
            "width": width,
            "tip_mass": rng.uniform(1e-4, 1e-3),
            "thicknesses": sorted(rng.uniform(30e-6, 300e-6) for _ in range(rng.randint(3, 6))),
            "materials": rng.sample(sorted(self.ctx.catalog.materials),
                                    rng.randint(1, len(self.ctx.catalog.materials))),
        }
        ops.append({
            "kind": "beam", "beam": beam,
            "argv": ["beam", "--length", repr(beam["length"]), "--width", repr(width),
                     "--tip-mass", repr(beam["tip_mass"]),
                     "--thicknesses", ",".join(repr(t) for t in beam["thicknesses"]),
                     "--materials", ",".join(beam["materials"])],
        })
        for slot, op in enumerate(ops):
            op["slot"] = slot
        rng.shuffle(ops)
        for j, op in enumerate(ops):
            op["id"] = f"{k}-{j}"
        return ops

    def _parse(self, op, out, problems):
        kind = op["kind"]
        if kind == "model":
            return _report_values(out.text)
        if kind == "sweep_frequency":
            n = self.ctx.catalog.scenario(op["argv"][-1]).freq_sweep.points
            return _csv_values(out.text, "freq_hz,z_amp_m,emf_rms_v,p_load_w", n, problems)
        if kind == "sweep_load":
            n = self.ctx.catalog.scenario(op["argv"][-1]).load_sweep.points
            return _csv_values(out.text, "r_load_ohm,p_load_w,p_total_w", n, problems)
        if kind == "beam":
            b = op["beam"]
            header = "thickness_m," + ",".join(f"{m}_hz" for m in b["materials"])
            return _csv_values(out.text, header, len(b["thicknesses"]), problems)
        vals = {}  # compare: rank, name, then four numbers per device
        for line in out.text.splitlines()[2:]:
            rank, name, *nums = line.split()
            for col, v in zip(("volume", "raw", "norm", "density"), nums):
                vals[f"{rank}.{name}.{col}"] = float(v)
        return vals

    def reference(self, op) -> dict:
        """The same call made in-process through the library."""
        kind = op["kind"]
        if kind == "model":
            _, g, c, w, e = self._scenario(op["argv"][-1])
            rp = eh.evaluate_response(g, c, e)
            refs = {
                "natural frequency Hz": eh.natural_frequency(g) / (2.0 * math.pi),
                "base amplitude m (peak)": e.amplitude_m,
                "relative amplitude m": rp.z_amplitude_m,
                "phase lag rad": rp.phase_rad,
                "dissipated power W": rp.p_dissipated_w,
                "load power W": rp.p_load_w,
                "total electrical W": rp.p_total_electrical_w,
                "load voltage V rms": rp.v_load_rms_v,
                "optimal load ohm": eh.optimal_load(
                    c, eh.damping_coefficient_from_ratio(g.zeta_parasitic, g)),
            }
            return {k: (v, PRINT_TOL) for k, v in refs.items()}
        if kind == "sweep_frequency":
            scn, g, c, _, _ = self._scenario(op["argv"][-1])
            rows = []
            for f in scn.freq_sweep.values():
                w = 2.0 * math.pi * f
                rp = eh.evaluate_response(
                    g, c, eh.Excitation.from_acceleration(scn.accel_m_s2, w, scn.accel_tag))
                emf = c.coupling_v_s_per_m * rp.z_amplitude_m * w / SQRT2
                rows.append([f, rp.z_amplitude_m, emf, rp.p_load_w])
            return _table_refs("freq_hz,z_amp_m,emf_rms_v,p_load_w", rows)
        if kind == "sweep_load":
            scn, g, c, _, e = self._scenario(op["argv"][-1])
            rows = []
            for r in scn.load_sweep.values():
                rp = eh.evaluate_response(g, replace(c, r_load_ohm=r), e)
                rows.append([r, rp.p_load_w, rp.p_total_electrical_w])
            return _table_refs("r_load_ohm,p_load_w,p_total_w", rows)
        if kind == "beam":
            b = op["beam"]
            mats = [self.ctx.catalog.materials[m] for m in b["materials"]]
            base = eh.BeamSpec(b["length"], b["width"], b["thicknesses"][0], mats[0], b["tip_mass"])
            grid = eh.frequency_table(base, b["thicknesses"], mats)
            header = "thickness_m," + ",".join(f"{m}_hz" for m in b["materials"])
            return _table_refs(header, [[t, *f] for t, f in zip(b["thicknesses"], grid)])
        devices = sorted(self.ctx.catalog.devices.values(), key=lambda d: d.name)
        refs = {}
        for i, r in enumerate(eh.compare_catalog(devices, op["accel"]), 1):
            for col, v in zip(("volume", "raw", "norm", "density"),
                              (r.volume_mm3, r.raw_power_w, r.normalized_power_w,
                               r.power_density_nw_mm3)):
                refs[f"{i}.{r.name}.{col}"] = (v, PRINT_TOL)
        return refs


TRACE_HEADER = "t_s,z_m,zdot_m_s,emf_v,p_load_w"


class SimTrace(CliWorkload):
    """One op is one fresh CLI process running `simulate`, with or without
    `--out`, on a bundled scenario: one long RK4 run with its energy audit."""

    name = "sim_trace"
    nominal_round_s = 4.9

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self._inproc: dict[str, tuple] = {}

    def make_round(self, rng: random.Random, k: int) -> list[dict]:
        ops = [
            {"kind": "simulate", "argv": ["simulate", "--scenario", scn], "out": out, "slot": 2 * i + out}
            for i, scn in enumerate(self.ctx.scenarios)
            for out in (False, True)
        ]
        rng.shuffle(ops)
        for j, op in enumerate(ops):
            op["id"] = f"{k}-{j}"
        return ops

    def _parse(self, op, out, problems):
        vals = _report_values(out.text)
        # the closed-form cross-check reads the same printed figures
        for label in ("relative amplitude m", "load power W"):
            if label in vals:
                vals["closed form: " + label] = vals[label]
        if out.out_path is not None:
            steps = int(vals.get("steps", -1))
            with open(out.out_path, encoding="utf-8") as fh:
                header = fh.readline().rstrip("\n")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if header != TRACE_HEADER:
                problems.append(f"trace header {header!r} is not {TRACE_HEADER!r}")
            if data.shape != (steps + 1, 5):
                problems.append(f"trace has shape {data.shape}, expected ({steps + 1}, 5)")
            else:
                for i, col in enumerate(TRACE_HEADER.split(",")):
                    vals["trace." + col] = data[:, i]
        return vals

    def _library_run(self, name: str):
        if name not in self._inproc:
            scn, g, c, _, e = self._scenario(name)
            summary, trace = eh.simulate(g, c, e, scn.sim, return_trace=True)
            self._inproc[name] = (scn, summary, trace, eh.evaluate_response(g, c, e))
        return self._inproc[name]

    def reference(self, op) -> dict:
        """The in-process `simulate` for the printed figures and the trace,
        and `evaluate_response` within the criterion-5 tolerance."""
        scn, s, trace, rp = self._library_run(op["argv"][-1])
        refs = {
            "steps": float(round(scn.sim.duration_s / scn.sim.dt_s)),
            "dt s": scn.sim.dt_s,
            "duration s": scn.sim.duration_s,
            "relative amplitude m": s.z_amp_m,
            "relative velocity rms": s.v_rel_rms_m_per_s,
            "emf V rms": s.emf_rms_v,
            "load power W": s.p_load_avg_w,
            "parasitic power W": s.p_parasitic_avg_w,
            "phase lag rad": s.phase_rad,
            "energy residual": s.energy_balance_residual,
        }
        refs = {k: (v, PRINT_TOL) for k, v in refs.items()}
        refs["closed form: relative amplitude m"] = (rp.z_amplitude_m, AMP_TOL)
        refs["closed form: load power W"] = (rp.p_load_w, POWER_TOL)
        if op["out"]:
            for col, arr in zip(TRACE_HEADER.split(","),
                                (trace.t_s, trace.z_m, trace.zdot_m_s, trace.emf_v, trace.p_load_w)):
                refs["trace." + col] = (arr, PRINT_TOL)
        return refs


# --------------------------------------------------------------------------
# In-process workloads


def _draw_generator(ctx: Context, rng: random.Random) -> tuple[float, float, object]:
    """Mass and stiffness within -20%/+25% of a catalog generator."""
    base = ctx.catalog.generators[rng.choice(ctx.generators)]
    m = base.params.mass_kg * rng.uniform(0.8, 1.25)
    k = base.params.stiffness_n_per_m * rng.uniform(0.8, 1.25)
    return m, k, base.circuit


def _turns_for(c_e: float, z_mag: float, side: float, flux: float) -> int:
    """Coil turns giving electrical damping c_e = (N l B)^2 / |Z|."""
    return max(1, round(math.sqrt(c_e * z_mag) / (side * flux)))


def _build(op):
    g = eh.GeneratorParams(*op["g"])
    c = eh.CoilCircuit(*op["c"])
    return g, c


def _zeta_total(op, omega: float) -> float:
    """Total damping ratio of the lumped model, from raw parameters; the
    electrical part is (N l B)^2 / |R + j w L|."""
    m, k, zeta_p = op["g"]
    turns, side, flux, r_coil, l_coil, r_load = op["c"]
    wn = math.sqrt(k / m)
    if op.get("open"):
        return zeta_p
    phi = turns * side * flux
    c_e = phi * phi / math.hypot(r_load + r_coil, omega * l_coil)
    return zeta_p + c_e / (2.0 * m * wn)


class SimQSweep:
    """One op is one seeded design: a 17-point simulated frequency sweep over
    +-1.6 half-bandwidths, then the half-power Q, as the paper cross-checks
    the integrator against the closed form."""

    name = "sim_qsweep"
    nominal_round_s = 4.7
    timing_reference = "float_loop"  # an op is mostly the interpreted RK4 loop
    # Q_T levels 30..300, one design per level in a round: op cost grows with
    # Q (the suggested run spans 14 time constants), so every round has the
    # same cost mix.
    Q_LEVELS = tuple(30.0 * 10.0 ** (i / 4.0) for i in range(5))
    POINTS = 17
    SPAN_HALF_BANDWIDTHS = 1.6

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def make_round(self, rng: random.Random, k: int) -> list[dict]:
        ops = []
        for i, level in enumerate(self.Q_LEVELS):
            m, kk, c0 = _draw_generator(self.ctx, rng)
            wn = math.sqrt(kk / m)
            zeta_t = 1.0 / (2.0 * level * rng.uniform(0.95, 1.05))
            r_load = c0.r_load_ohm * rng.uniform(0.5, 2.0)
            loaded = (i + k) % 2 == 0  # each level alternates loaded / open circuit
            if loaded:
                zeta_p = zeta_t * rng.uniform(0.3, 0.7)
                turns = _turns_for(2.0 * m * wn * (zeta_t - zeta_p), r_load + c0.r_coil_ohm,
                                   c0.side_length_m, c0.flux_density_t)
            else:
                zeta_p = zeta_t
                turns = c0.turns
            op = {
                "id": f"{k}-{i}",
                "slot": i,
                "g": (m, kk, zeta_p),
                "c": (turns, c0.side_length_m, c0.flux_density_t, c0.r_coil_ohm, 0.0, r_load),
                "open": not loaded,
                "accel": rng.uniform(1.0, 5.0),
            }
            q = 1.0 / (2.0 * _zeta_total(op, wn))
            half = self.SPAN_HALF_BANDWIDTHS / (2.0 * q)
            n = self.POINTS - 1
            op["omegas"] = [wn * (1.0 + half * (2.0 * j / n - 1.0)) for j in range(self.POINTS)]
            ops.append(op)
        rng.shuffle(ops)
        return ops

    def run(self, op) -> dict:
        g, c = _build(op)
        points = eh.frequency_sweep_sim(g, c, op["omegas"], op["accel"], open_circuit=op["open"])
        curve = eh.SweepCurve(
            tuple(w / (2.0 * math.pi) for w in op["omegas"]),
            tuple(s.emf_rms_v for _, s in points),
            "V", op["accel"], "peak",
        )
        q, f_res = eh.extract_q_half_power(curve)
        return {"q": q, "f_res": f_res,
                "z": [s.z_amp_m for _, s in points],
                "p": [s.p_load_avg_w for _, s in points]}

    run_inproc = run

    def answers(self, op, out):
        vals = {"q": out["q"], "f_res": out["f_res"]}
        for i, (z, p) in enumerate(zip(out["z"], out["p"])):
            vals[f"z{i}"] = z
            vals[f"p{i}"] = p
        return vals, []

    def reference(self, op) -> dict:
        """Q_T = 1/(2 zeta_t) from the raw parameters within 2%, and every
        point against `evaluate_response` within the criterion-5 tolerance."""
        m, k, _ = op["g"]
        wn = math.sqrt(k / m)
        refs = {
            "q": (1.0 / (2.0 * _zeta_total(op, wn)), 0.02),
            "f_res": (wn / (2.0 * math.pi), 1e-3),
        }
        g, c = _build(op)
        if op["open"]:
            c = replace(c, r_load_ohm=math.inf)
        for i, w in enumerate(op["omegas"]):
            rp = eh.evaluate_response(g, c, eh.Excitation.from_acceleration(op["accel"], w))
            refs[f"z{i}"] = (rp.z_amplitude_m, AMP_TOL)
            if not op["open"]:
                refs[f"p{i}"] = (rp.p_load_w, POWER_TOL)
        return refs


def _golden_max(f, lo: float, hi: float, iters: int = 90) -> tuple[float, float]:
    """Maximum of a unimodal f on [lo, hi] by golden-section search."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def _beam_hz(length, width, thickness, youngs, density, tip_mass) -> float:
    """Euler-Bernoulli tip-loaded cantilever, first mode, Hz."""
    stiffness = 3.0 * youngs * width * thickness**3 / 12.0 / length**3
    mass = tip_mass + 33.0 / 140.0 * density * length * width * thickness
    return math.sqrt(stiffness / mass) / (2.0 * math.pi)


class DesignScan:
    """One op is one seeded design evaluated in closed form only: a 400-point
    frequency sweep with half-power Q, a 100-point log load sweep with its
    optimum, and one beam frequency table."""

    name = "design_scan"
    nominal_round_s = 0.05
    # an op is mostly small dataclasses and complex arithmetic; a float loop
    # slowed 1.1x where these ops slowed 1.9x, this reference 1.9x too
    timing_reference = "object_loop"
    # wL/R per design of a round: half resistive, the rest inductive
    L_RATIOS = (0.0, 0.0, 0.0, 0.0, 0.1, 0.1, 0.3, 1.0)
    FREQ_POINTS = 400
    SPAN_HALF_BANDWIDTHS = 4.0
    LOAD_POINTS = 100

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def make_round(self, rng: random.Random, k: int) -> list[dict]:
        ops = []
        for i, ratio in enumerate(self.L_RATIOS):
            m, kk, c0 = _draw_generator(self.ctx, rng)
            wn = math.sqrt(kk / m)
            q_t = 30.0 * 10.0 ** rng.uniform(0.0, 1.0)
            zeta_t = 1.0 / (2.0 * q_t)
            zeta_p = zeta_t * rng.uniform(0.3, 0.7)
            r_load = c0.r_load_ohm * rng.uniform(0.5, 2.0)
            r_total = r_load + c0.r_coil_ohm
            l_coil = ratio * r_total / wn
            turns = _turns_for(2.0 * m * wn * (zeta_t - zeta_p), math.hypot(r_total, wn * l_coil),
                               c0.side_length_m, c0.flux_density_t)
            phi = turns * c0.side_length_m * c0.flux_density_t
            r_guess = c0.r_coil_ohm + phi * phi / (2.0 * m * wn * zeta_p)
            shift = rng.uniform(0.97, 1.03)
            width = rng.uniform(1.5e-3, 3e-3)
            ops.append({
                "id": f"{k}-{i}",
                "slot": i,
                "g": (m, kk, zeta_p),
                "c": (turns, c0.side_length_m, c0.flux_density_t, c0.r_coil_ohm, l_coil, r_load),
                "wn": wn,
                "q_nominal": q_t,
                "accel": rng.uniform(1.0, 5.0),
                "r_lo": r_guess * shift / 10.0,
                "r_hi": r_guess * shift * 10.0,
                "beam": (rng.uniform(3e-3, 8e-3), width, rng.uniform(1e-4, 1e-3),
                         sorted(rng.uniform(30e-6, 300e-6) for _ in range(5))),
            })
        rng.shuffle(ops)
        return ops

    def run(self, op) -> dict:
        g, c = _build(op)
        wn, accel = op["wn"], op["accel"]
        coupling = c.coupling_v_s_per_m
        half = self.SPAN_HALF_BANDWIDTHS / (2.0 * op["q_nominal"])
        n = self.FREQ_POINTS - 1
        omegas = [wn * (1.0 + half * (2.0 * j / n - 1.0)) for j in range(self.FREQ_POINTS)]
        emf = []
        for w in omegas:
            rp = eh.evaluate_response(g, c, eh.Excitation.from_acceleration(accel, w))
            emf.append(coupling * rp.z_amplitude_m * w / SQRT2)
        q, f_res = eh.extract_q_half_power(eh.SweepCurve(
            tuple(w / (2.0 * math.pi) for w in omegas), tuple(emf), "V", accel, "peak"))

        e0 = eh.Excitation.from_acceleration(accel, wn)
        loads = np.geomspace(op["r_lo"], op["r_hi"], self.LOAD_POINTS).tolist()
        p_load, p_total = [], []
        for r in loads:
            rp = eh.evaluate_response(g, replace(c, r_load_ohm=r), e0)
            p_load.append(rp.p_load_w)
            p_total.append(rp.p_total_electrical_w)
        r_opt, p_opt = eh.find_optimal_load(eh.LoadSweep(tuple(loads), tuple(p_load), tuple(p_total)))

        length, width, tip, thicknesses = op["beam"]
        mats = self.ctx.materials
        table = eh.frequency_table(eh.BeamSpec(length, width, thicknesses[0], mats[0], tip),
                                   thicknesses, mats)
        return {"q": q, "f_res": f_res, "r_opt": r_opt, "p_opt": p_opt, "beam": table}

    run_inproc = run

    def answers(self, op, out):
        vals = {k: out[k] for k in ("q", "f_res", "r_opt", "p_opt")}
        for i, row in enumerate(out["beam"]):
            for mat, f in zip(self.ctx.materials, row):
                vals[f"beam{i}.{mat.name}"] = f
        return vals, []

    def reference(self, op) -> dict:
        """With L = 0: Q_T = 1/(2 zeta_t) from the raw parameters, resonance
        at w_n, and `optimal_load` / `max_avg_load_power`.  With L > 0 those
        resistive closed forms do not apply: Q_T comes from the damping the
        model reports at w_n (c_T = 2 P_diss / (w_n z)^2), and the load
        optimum from a golden-section search on the model's load power.
        Beam cells always come from the benchmark's own Euler-Bernoulli
        formula."""
        g, c = _build(op)
        wn = op["wn"]
        e0 = eh.Excitation.from_acceleration(op["accel"], wn)
        refs: dict = {}
        if c.l_coil_h == 0.0:
            refs["q"] = (1.0 / (2.0 * _zeta_total(op, wn)), 1e-3)
            refs["f_res"] = (wn / (2.0 * math.pi), 1e-4)
            c_p = 2.0 * g.mass_kg * wn * g.zeta_parasitic
            r_opt = eh.optimal_load(c, c_p)
            refs["r_opt"] = (r_opt, 1e-3)
            refs["p_opt"] = (eh.max_avg_load_power(g, g.zeta_parasitic, e0, c.r_coil_ohm, r_opt), 1e-3)
        else:
            rp = eh.evaluate_response(g, c, e0)
            c_total = 2.0 * rp.p_dissipated_w / (wn * rp.z_amplitude_m) ** 2
            refs["q"] = (g.mass_kg * wn / c_total, 1e-3)

            def p_load(log_r: float) -> float:
                return eh.evaluate_response(g, replace(c, r_load_ohm=math.exp(log_r)), e0).p_load_w

            log_r, p_max = _golden_max(p_load, math.log(op["r_lo"]), math.log(op["r_hi"]))
            refs["r_opt"] = (math.exp(log_r), 1e-3)
            refs["p_opt"] = (p_max, 1e-3)
        length, width, tip, thicknesses = op["beam"]
        for i, t in enumerate(thicknesses):
            for mat in self.ctx.materials:
                refs[f"beam{i}.{mat.name}"] = (
                    _beam_hz(length, width, t, mat.youngs_modulus_pa, mat.density_kg_m3, tip), 1e-9)
        return refs


WORKLOADS = {w.name: w for w in (CliCold, SimTrace, SimQSweep, DesignScan)}
