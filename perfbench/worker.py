"""One benchmark process: set-up, then the timed or the traced loop, then the
reference checks.  Prints one JSON line.  run.py starts it; by hand:

    PYTHONPATH=src python3 perfbench/worker.py --root . --workload design_scan \
        --seed 1 --seconds 2 --mode timed

Modes: `setup` stops after set-up; `timed` runs whole rounds of the
workload's ops for about --seconds, so every run has the same op mix, and
times a reference task between ops (see REFERENCES); `traced` runs rounds
in-process twice, untraced and traced, until --seconds have passed, and
reports the per-layer figures from the spans.
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

# The reference task: fixed work that runs no emharvest code, so no change
# to the package moves it; it moves only with the speed of the machine, which
# on a shared host drifts by 20-90% over seconds to minutes.  A timed run
# times it before an op whenever its interval has passed since the last one,
# and once more after the last op; run.py divides each op's time by the mean
# of the references timed just before and just after it.  Each workload
# names the reference that slows most like its ops (workloads.py).


def _process_reference(env: dict[str, str], cwd: str) -> float:
    """A fresh interpreter that imports numpy: start-up and import."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t


def _float_loop_reference(env: dict[str, str], cwd: str) -> float:
    """~20 ms of interpreted float arithmetic, like an RK4 step loop."""
    t = time.perf_counter()
    x, v, h = 0.1, 0.0, 1e-3
    for i in range(100_000):
        a = -x - 0.01 * v + math.sin(i * h)
        x += h * v
        v += h * a
    return time.perf_counter() - t


@dataclass(frozen=True)
class _Point:
    a: float
    b: float
    c: complex


def _object_loop_reference(env: dict[str, str], cwd: str) -> float:
    """~20 ms of small frozen dataclasses, complex arithmetic, dict stores
    and tiny numpy calls, like a closed-form sweep."""
    t = time.perf_counter()
    p = _Point(1.0, 2.0, 1j)
    acc = 0.0
    store = {}
    for i in range(6000):
        w = 1.0 + i * 1e-4
        z = complex(1.0 - w * w, 0.01 * w)
        q = replace(p, a=w) if i % 8 == 0 else _Point(w, p.b, z)
        acc += abs(q.c / z) + math.sqrt(q.a) * math.cos(w)
        store[i & 127] = q
    for _ in range(30):
        arr = np.geomspace(1.0, 10.0, 100)
        acc += float(np.max(np.abs(arr - arr[::-1])))
    return time.perf_counter() - t


# reference name -> (timing function, seconds of ops between two references)
REFERENCES = {
    "process": (_process_reference, 0.5),
    "float_loop": (_float_loop_reference, 0.1),
    "object_loop": (_object_loop_reference, 0.1),
}


def _run_all(w, ops, run, on_op=None):
    """Run ops one after another; an exception is the op's answer."""
    results = []
    times = []
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        t = time.perf_counter()
        try:
            out, err = run(w, op), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, exc
        times.append(time.perf_counter() - t)
        results.append((w, op, out, err))
    return results, times


def _check_all(results) -> dict:
    import workloads as wl
    from emharvest import SimulationNotSettled, SweepPointError

    failed = not_settled = 0
    worst = 0.0
    problems: list[str] = []
    for w, op, out, err in results:
        dev, probs = wl.check_op(w, op, out, err)
        worst = max(worst, dev)
        if probs:
            failed += 1
            if len(problems) < 5:
                problems.append(f"{w.name} op {op['id']}: " + "; ".join(probs[:3]))
        if isinstance(err, (SimulationNotSettled, SweepPointError)):
            not_settled += 1
    return {"attempted": len(results), "failed": failed, "xcheck": worst,
            "not_settled": not_settled, "problems": problems}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = p.parse_args()

    tracer = None
    if args.mode == "traced":
        import emharvest.cli  # noqa: F401  (import cost is its own layer)
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads as wl

    out_dir = os.path.join(args.root, ".perfbench_out")
    tmpdir = os.path.join(out_dir, f"{args.workload}-{args.mode}-{os.getpid()}")
    os.makedirs(tmpdir)
    try:
        env = dict(os.environ)
        ctx = wl.Context(args.root, env, tmpdir)
        w = wl.WORKLOADS[args.workload](ctx)
        rng = random.Random(f"{args.workload}:{args.seed}")
        # the traced run makes further rounds as it goes, until --seconds pass;
        # a timed run makes enough for a machine 1.5 times the nominal speed
        n_rounds = 1 if args.mode == "traced" else math.ceil(1.5 * args.seconds / w.nominal_round_s) + 1
        rounds = [w.make_round(rng, k) for k in range(n_rounds)]
        setup_s = time.perf_counter() - T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if args.mode == "timed":
            fresh = isinstance(w, wl.CliWorkload)
            reference, every_s = REFERENCES[w.timing_reference]
            results, times, ref_times, op_ref = [], [], [], []
            last_ref = -math.inf

            def reference_if_due(_):
                nonlocal last_ref
                if time.perf_counter() - last_ref >= every_s:
                    ref_times.append(reference(env, args.root))
                    last_ref = time.perf_counter()
                op_ref.append(len(ref_times) - 1)

            t_start = time.perf_counter()
            for ops in rounds:
                if time.perf_counter() - t_start >= args.seconds:
                    break
                res, tms = _run_all(w, ops, type(w).run, on_op=reference_if_due)
                results += res
                times += tms
            ref_times.append(reference(env, args.root))  # the one after the last op
            region_s = time.perf_counter() - t_start
            # a CLI child has a larger peak than any reference process
            who = resource.RUSAGE_CHILDREN if fresh else resource.RUSAGE_SELF
            peak_kb = resource.getrusage(who).ru_maxrss
            report = {"setup_s": setup_s, "times": times, "reference": w.timing_reference,
                      "ref_times": ref_times, "op_ref": op_ref,
                      "region_s": region_s, "slots": [op["slot"] for _, op, _, _ in results],
                      "peak_rss_kb": peak_kb, "rounds": len(times) // len(rounds[0])}
            report.update(_check_all(results))
            print(json.dumps(report))
            return 0

        tracer.uninstall()
        run = type(w).run_inproc
        untraced, traced = [], []
        untraced_s = traced_s = 0.0
        n_ops = 0
        k = 0
        while k == 0 or untraced_s + traced_s < args.seconds:
            if k == len(rounds):
                rounds.append(w.make_round(rng, k))
            ops = rounds[k]
            # alternate which pass goes first, so warm-up favours neither
            for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
                if traced_pass:
                    tracer.install()
                    t = time.perf_counter()
                    traced += _run_all(w, ops, run, on_op=lambda i: setattr(tracer, "op_id", n_ops + i))[0]
                    traced_s += time.perf_counter() - t
                    tracer.uninstall()
                else:
                    t = time.perf_counter()
                    untraced += _run_all(w, ops, run)[0]
                    untraced_s += time.perf_counter() - t
            n_ops += len(ops)
            k += 1
        tracer.install()
        # one op of every other workload, so that every layer has spans
        probes = []
        for j, name in enumerate(n for n in wl.WORKLOADS if n != args.workload):
            other = wl.WORKLOADS[name](ctx)
            op = other.make_round(random.Random(f"{name}:{args.seed}"), 0)[0]
            op["id"] = f"probe-{op['id']}"
            tracer.op_id = n_ops + j
            probes += _run_all(other, [op], type(other).run_inproc)[0]
        tracer.uninstall()

        rows = nbytes = 0
        for _, _, out, _ in traced + probes:
            if isinstance(out, wl.CliOut):
                r, b = out.written()
                rows += r
                nbytes += b
        layers = tracer.layer_metrics()
        layers.update({
            "cli.rows_out": rows,
            "cli.bytes_out": nbytes,
            "trace.overhead_s": traced_s - untraced_s,
        })
        tracer.save(os.path.join(out_dir, f"spans-{args.workload}.npz"))
        report = {"layers": layers, "untraced_s": untraced_s, "traced_s": traced_s,
                  "own_ops": n_ops}
        report.update(_check_all(untraced + traced + probes))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
