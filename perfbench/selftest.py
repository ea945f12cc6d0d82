"""Self-test of the benchmark at minimal size.

    python3 perfbench/selftest.py

1. Every workload runs timed and traced with `--seconds 1` (one round).  The
   last line must have the contract's keys and every metric BENCHMARK.json
   names, with its unit; the `results` line must carry every end-to-end
   metric of run.END_TO_END_UNITS with its unit; no op may fail.
2. For one op of every workload the checks must pass with the true
   references and fail when every reference value is 1.5 times too large,
   and an op that raised must count as failed: the checks are live.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own entry point, for its tables)


def _last_json_lines(stdout: str) -> tuple[dict, dict]:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2])["results"], json.loads(lines[-1])


def check_outputs(spec: dict) -> list[str]:
    errors = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            results, last = _last_json_lines(proc.stdout)
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: last line has keys {sorted(last)}")
            if not (last["correct"] and last["failed"] == 0 and last["attempted"] >= 1):
                errors.append(f"{tag}: correct={last['correct']} failed={last['failed']} "
                              f"attempted={last['attempted']}")
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = last["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    errors.append(f"{tag}: metric {m['name']} printed as {got}")
            if not trace:
                for name, unit in run.END_TO_END_UNITS.items():
                    got = results["metrics"].get(name)
                    if got is None or got["unit"] != unit:
                        errors.append(f"{tag}: results line shows {name} as {got}")
    return errors


def check_live_references() -> list[str]:
    os.environ.update({k: v for k, v in run.child_env().items() if k != "PYTHONPATH"})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    errors = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmpdir:
        ctx = wl.Context(str(ROOT), run.child_env(), tmpdir)
        for name, cls in wl.WORKLOADS.items():
            w = cls(ctx)
            ops = w.make_round(random.Random(f"{name}:1"), 0)
            op = next((o for o in ops if o.get("out")), ops[0])
            out = w.run(op)
            dev, problems = wl.check_op(w, op, out, None)
            if problems:
                errors.append(f"{name}: true references fail: {problems[:3]}")
            wrong = {label: (value * 1.5, tol) for label, (value, tol) in w.reference(op).items()}
            if not wl.check_op(w, op, out, None, refs=wrong)[1]:
                errors.append(f"{name}: a reference 1.5x too large still passes")
            if not wl.check_op(w, op, None, RuntimeError("injected"))[1]:
                errors.append(f"{name}: an op that raised still passes")
            print(f"{name}: checks live (deviation with true references {dev:.2e})")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_live_references() + check_outputs(spec)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
