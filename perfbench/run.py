"""emharvest benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports the package from
`src/`.  The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones.  The lines before it are a readable report and one
`results` JSON line with every end-to-end figure, the seed, the
environment and which percentile `op_tail_s` is.

End-to-end figures of a timed run (an op is one unit of the workload's work):

  op_p50_rel      each op's wall time divided by the mean time of the
                  reference tasks timed just before and just after it
                  (worker.REFERENCES: a fresh `python -c "import numpy"`
                  for the CLI workloads, ~20 ms pure-Python loops for the
                  in-process ones); the median of those ratios for each op
                  kind of a round; the mean over the kinds.  "An op costs
                  this many references"
  op_p50_s        median op wall time
  op_tail_s       the highest percentile with at least ten ops beyond it
  ops_per_s       ops completed per second of op wall time
  setup_s         median over five fresh processes of the time before the
                  first op: import emharvest, load_catalog, make the inputs
  peak_rss_mb     peak resident memory of the processes doing the work (the
                  CLI children, or the in-process worker)
  fail_ratio      failed ops over attempted ops
  xcheck_rel_err  the largest relative deviation of any answer from its
                  reference

BENCHMARK.json gates op_p50_rel rather than the wall times.  On a shared
2-core VM the machine's speed drifts by 20-90% over seconds to minutes (a
fresh CLI process takes 0.62 s in one minute and 1.07 s in the next; a
design_scan op 3.5 ms or 6.8 ms), and a median over a run of 20 s, or of
60 s, moves with it.  The reference slows with the machine and runs no
emharvest code, so the ratio keeps what the program does and drops most
of the drift.  Over ten seeds of 20 s on such a VM, the spread (quartile
distance over median) of op_p50_s against op_p50_rel was 0.09 against
0.014 on cli_cold, 0.16 against 0.056 on sim_trace, 0.17 against 0.040 on
sim_qsweep and 0.08 against 0.028 on design_scan (0.50 against 0.12 in an
earlier set where design_scan still used the float loop).  What the ratio
cannot show is a change that slows the program and the reference alike,
such as another Python or numpy; compare runs made with the same
interpreter and packages.  The wall times stay in the report, with the
reference's median (reference_p50_s).  Taking each kind's median before
averaging the kinds keeps one slow outlier from moving a mixed round.
fail_ratio is 0 on a correct commit and reaches the contract line as
`failed`/`attempted`; xcheck_rel_err repeats exactly on the fixed-scenario
workloads; neither is a timing to gate.

A timed run makes whole rounds, one op of every kind per round, until
--seconds have passed; so every run has the same op mix.

Workloads (each a closed loop with one client, one thread per process):

  cli_cold     a fresh `python -m emharvest.cli` per op: `model`, both
               sweeps on both bundled scenarios, `compare` and `beam` with
               seeded arguments.  Interpreter and import are ~90% of an op
               and no RK4 runs, so cold-start work shows here and
               integrator work must not.
  sim_trace    a fresh `simulate` process per op, with and without `--out`,
               on both bundled scenarios (125,000 and 53,333 steps).  Pairs
               with and without `--out` separate the RK4 kernel and energy
               audit from trace-CSV formatting and its memory.
  sim_qsweep   in-process; an op is one seeded design (Q_T 30..300, loaded
               and open circuit) swept over 17 simulated points, then its
               half-power Q against 1/(2 zeta_t) within 2%.  Per-run
               overhead of many short runs shows here; trace output is absent.
  design_scan  in-process; an op is one seeded design in closed form only:
               400-point frequency sweep with half-power Q, 100-point log
               load sweep with its optimum, one beam frequency table.  The
               model layer does nearly all the work; sim and import none.
               wL/R is 0 for half of the designs and 0.1, 0.1, 0.3, 1 for
               the rest (25%, 12.5%, 12.5%); workloads.DesignScan.reference
               says which references apply when L > 0.

Which per-layer figure should move which end-to-end metric:

  import.*                 cli_cold op_p50_s/ops_per_s (~90% of an op),
                           sim_trace (~half), setup_s everywhere; never an
                           in-process op_p50_s
  config.load_catalog_*    cli_cold op_p50_s (<1%) and setup_s
  model.evaluate_response_*  design_scan ops_per_s/op_p50_s; not sim_*
  sim.simulate_*, sim.steps, sim.ns_per_step
                           sim_qsweep ops_per_s, sim_trace ops without
                           --out; not cli_cold or design_scan
  sim.suggest_*, sim.frequency_sweep_sim_s (self time)
                           sim_qsweep, the fixed cost of each short run
  sim.not_settled          sim_qsweep fail_ratio
  analysis.*, beam.*       design_scan (a small share)
  cli.main_s, cli.self_s (main minus its traced children), cli.rows_out,
  cli.bytes_out            sim_trace --out ops' op_p50_s and peak_rss_mb;
                           not design_scan

The traced run is in-process for every workload (`emharvest.cli.main(argv)`
for the CLI ones).  It runs rounds until --seconds have passed, each round
once untraced and once traced, and reports the difference as
trace.overhead_s.  Then it runs one traced op of each other workload, so
every layer has a measured span in every traced run; spans are written to
.perfbench_out/spans-<workload>.npz.  The import figures come from
`python -X importtime` in fresh processes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "sim_trace", "sim_qsweep", "design_scan")
SETUP_REPEATS = 5  # fresh processes whose set-up times give setup_s
DEADLINE = time.monotonic() + 170.0  # a run ends, result or not, within 180 s

END_TO_END_UNITS = {
    "op_p50_rel": "ratio",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "xcheck_rel_err": "ratio",
}


def layer_unit(name: str) -> str:
    if name == "sim.ns_per_step":
        return "ns"
    if name == "cli.bytes_out":
        return "bytes"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str]) -> tuple[int, str, str]:
    """Run a child in its own process group.  At the deadline, or if this
    process is stopped, the whole group, the CLI processes a worker started
    included, is killed and reaped."""
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{' '.join(cmd[1:])} did not finish before the deadline") from exc
            raise
    return proc.returncode, out, err


def run_worker(args, mode: str) -> dict:
    rc, out, err = run_child([sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                              "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds), "--mode", mode])
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise BenchError(f"worker ({mode}) exited {rc}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def import_layers() -> dict[str, float]:
    """Interpreter start-up and import times, medians over fresh processes."""
    starts = []
    for _ in range(5):
        t = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        starts.append(time.perf_counter() - t)
    wanted = {"numpy": "import.numpy_s", "scipy.integrate": "import.scipy_integrate_s",
              "emharvest.cli": "import.emharvest_s"}
    samples: dict[str, list[float]] = {v: [] for v in wanted.values()}
    for _ in range(3):
        _, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import emharvest.cli"])
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted:
                samples[wanted[parts[2].strip()]].append(int(parts[1]) * 1e-6)
    out = {"import.interpreter_s": statistics.median(starts)}
    for name, vals in samples.items():
        if not vals:
            raise BenchError(f"python -X importtime did not report {name}")
        out[name] = statistics.median(vals)
    return out


def environment() -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    cpu = llc = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        best = max(caches.glob("index*"), key=lambda p: int((p / "level").read_text()))
        llc = f"L{(best / 'level').read_text().strip()} {(best / 'size').read_text().strip()}"
    except (OSError, ValueError):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "last_level_cache": llc,
        "git_commit": commit,
        "note": f"wall-clock timings on a {os.cpu_count()}-core machine that may be shared with "
                "other jobs; compare runs made on the same machine only",
    }


def timed(args) -> tuple[dict, dict, dict]:
    setups = [run_worker(args, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    r = run_worker(args, "timed")
    setups.append(r["setup_s"])
    times = r["times"]
    pct, tail_s = tail(times)
    ratios: dict[int, list[float]] = {}
    refs = r["ref_times"]
    for slot, t, i in zip(r["slots"], times, r["op_ref"]):
        ratios.setdefault(slot, []).append(t / (0.5 * (refs[i] + refs[i + 1])))
    e2e = {
        "op_p50_rel": statistics.fmean(statistics.median(rs) for rs in ratios.values()),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": r["peak_rss_kb"] / 1024.0,
        "fail_ratio": r["failed"] / r["attempted"],
        "xcheck_rel_err": r["xcheck"],
    }
    detail = {"op_tail_percentile": pct, "op_samples": len(times), "rounds": r["rounds"],
              "reference": r["reference"], "reference_p50_s": statistics.median(r["ref_times"]),
              "reference_samples": len(r["ref_times"]),
              "timed_region_s": r["region_s"], "setup_samples_s": setups,
              "not_settled": r["not_settled"], "problems": r["problems"]}
    return r, e2e, detail


def traced(args) -> tuple[dict, dict, dict]:
    imports = import_layers()
    r = run_worker(args, "traced")
    layers = {**imports, **r["layers"]}
    detail = {"untraced_s": r["untraced_s"], "traced_s": r["traced_s"], "own_ops": r["own_ops"],
              "not_settled": r["not_settled"], "problems": r["problems"],
              "xcheck_rel_err": r["xcheck"]}
    return r, layers, detail


def main() -> int:
    p = argparse.ArgumentParser(description="emharvest benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds run_child's cleanup

    if not (ROOT / "src" / "emharvest" / "cli.py").is_file():
        print(f"error: no emharvest source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[key]}

    try:
        r, values, detail = traced(args) if args.trace else timed(args)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = {n: layer_unit(n) for n in values} if args.trace else END_TO_END_UNITS
    missing = set(declared) - set(values)
    wrong_unit = {n for n in declared if n in values and units[n] != declared[n]}
    if missing or wrong_unit:
        print(f"error: BENCHMARK.json {key} disagrees with the benchmark: missing {sorted(missing)},"
              f" unit differs {sorted(wrong_unit)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {r['attempted']}  failed {r['failed']}")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    for name, value in detail.items():
        if name != "problems":
            print(f"  {name:32s} {value}")
    for problem in r["problems"]:
        print(f"  FAIL {problem}")
    print(json.dumps({"results": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        "detail": detail,
    }}))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": values[n], "unit": declared[n]} for n in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
