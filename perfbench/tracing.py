"""Spans around the public functions of each emharvest layer, recorded from
outside the package.

`Tracer.install` rebinds each traced function, in every emharvest module that
holds it, to a wrapper that records a span: name, start, end, parent span and
op id.  Spans are kept in flat arrays in memory and written out once, when
the run ends.  Nothing under the package's source changes.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# span name -> (module, attribute) of the traced function
TARGETS = {
    "config.load_catalog": ("emharvest.config", "load_catalog"),
    "model.evaluate_response": ("emharvest.model", "evaluate_response"),
    "sim.simulate": ("emharvest.sim", "simulate"),
    "sim.frequency_sweep_sim": ("emharvest.sim", "frequency_sweep_sim"),
    "analysis.extract_q_half_power": ("emharvest.analysis", "extract_q_half_power"),
    "analysis.find_optimal_load": ("emharvest.analysis", "find_optimal_load"),
    "analysis.compare_catalog": ("emharvest.analysis", "compare_catalog"),
    "beam.frequency_table": ("emharvest.beam", "frequency_table"),
    "cli.main": ("emharvest.cli", "main"),
}
SUGGEST = "sim.suggest"  # a classmethod, rebound on SimConfig itself
NAMES = (*TARGETS, SUGGEST)


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("b")
        self.parent = array("l")
        self.op = array("l")
        self.steps = 0  # integrator steps, summed from each simulate call's config
        self.failed_ops: set[int] = set()  # ops in which a run did not settle
        self.op_id = -1  # -1 marks set-up
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = NAMES.index(name)
        counts_steps = name == "sim.simulate"
        clock = time.perf_counter
        stack = self._stack
        from emharvest.sim import SimulationNotSettled, SweepPointError

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except (SimulationNotSettled, SweepPointError):
                self.failed_ops.add(self.op_id)
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
                if counts_steps:
                    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
                    self.steps += int(round(cfg.duration_s / cfg.dt_s))

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever emharvest binds it."""
        modules = [m for n, m in sys.modules.items() if n == "emharvest" or n.startswith("emharvest.")]
        for name, (modname, attr) in TARGETS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        sim_config = sys.modules["emharvest.sim"].SimConfig
        orig = sim_config.__dict__["suggest"]
        self._saved.append((sim_config, "suggest", orig))
        sim_config.suggest = classmethod(self._wrap(SUGGEST, orig.__func__))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int8),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy time and self time from the recorded spans.

        Self time is a span's duration minus that of its direct children; in
        one thread children never overlap, so that is the uncovered part.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child

        def stats(name: str) -> tuple[int, float, float]:
            sel = a["name"] == NAMES.index(name)
            return int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum())

        def per_call_us(name: str) -> float:
            n, busy, _ = stats(name)
            return busy / n * 1e6 if n else 0.0

        cat_n, cat_s, _ = stats("config.load_catalog")
        ev_n, ev_s, _ = stats("model.evaluate_response")
        sim_n, sim_s, _ = stats("sim.simulate")
        sug_n, _, _ = stats(SUGGEST)
        q_n, _, _ = stats("analysis.extract_q_half_power")
        ft_n, _, _ = stats("beam.frequency_table")
        _, main_s, main_self = stats("cli.main")
        return {
            "config.load_catalog_calls": cat_n,
            "config.load_catalog_s": cat_s,
            "model.evaluate_response_calls": ev_n,
            "model.evaluate_response_us": per_call_us("model.evaluate_response"),
            "model.evaluate_response_s": ev_s,
            "sim.simulate_calls": sim_n,
            "sim.simulate_s": sim_s,
            "sim.steps": self.steps,
            "sim.ns_per_step": sim_s / self.steps * 1e9 if self.steps else 0.0,
            "sim.suggest_calls": sug_n,
            "sim.suggest_us": per_call_us(SUGGEST),
            "sim.frequency_sweep_sim_s": stats("sim.frequency_sweep_sim")[2],
            "sim.not_settled": len(self.failed_ops),
            "analysis.extract_q_calls": q_n,
            "analysis.extract_q_us": per_call_us("analysis.extract_q_half_power"),
            "analysis.find_optimal_load_us": per_call_us("analysis.find_optimal_load"),
            "analysis.compare_catalog_us": per_call_us("analysis.compare_catalog"),
            "beam.frequency_table_calls": ft_n,
            "beam.frequency_table_us": per_call_us("beam.frequency_table"),
            "cli.main_s": main_s,
            "cli.self_s": main_self,
            "trace.spans": len(dur),
        }
