"""The closed loop: one client runs whole cycles of a workload's fixed ops.

Every op is timed from the call to its return.  Its output is checked by
the workload's oracle after the clock stops.  Kernel samples from
:mod:`hostspeed` are taken between ops, so each timing can be scaled to
reference-host units by the host speed measured around it.

A run always executes whole cycles, so the op mix and every per-op count
are the same in every run of a seed; the run ends at the first cycle
boundary after ``seconds`` have passed.  One untimed warm-up cycle comes
first, so every measured cycle starts from the same warm state.  A traced run alternates
untraced and traced cycles: the traced ones give the per-layer metrics,
and the pair gives the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from hostspeed import REFERENCE_KERNEL_S, Speedometer, pin_to_fastest_cpu
from spans import Tracer, install, layer_times


@dataclass
class Op:
    """One request of a cycle: the timed call and its oracle.

    ``check`` receives the call's return value and returns ``None`` when
    the output is correct, or a message saying what is wrong.
    """

    kind: str  # "read" or "write"
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Sample:
    kind: str
    started: float
    seconds: float
    traced: bool


def percentile(values: List[float], fraction: float) -> float:
    """Linear interpolation between the closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(worker_pids: List[int]) -> float:
    """Peak RSS of this process plus every live worker's, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.speed = Speedometer()
        self.samples: List[Sample] = []
        self.raw_setups: List[float] = []
        self.setup_scale = 1.0
        self.cpu: Optional[int] = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.cycles = 0
        self.tracer = Tracer() if trace else None
        self.counter_deltas: Dict[str, float] = {}
        self.rss_mb = 0.0

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        """Repeat the workload's set-up; keep the last instance.

        Kernel bursts are taken right before and right after each set-up;
        ``setup_s`` is the median set-up, scaled by the median of all those
        kernel samples (one burst alone is too few to steady the scale).
        """
        workload = self.workload
        if workload.one_cpu:
            self.cpu = pin_to_fastest_cpu()
        kernels: List[float] = []
        for attempt in range(workload.setup_repeats):
            if attempt:
                workload.close()
            gc.collect()
            before = len(self.speed.samples)
            self.speed.burst()
            started = time.perf_counter()
            workload.set_up()
            self.raw_setups.append(time.perf_counter() - started)
            self.speed.burst()
            kernels += [seconds for _, seconds in self.speed.samples[before:]]
        self.setup_scale = REFERENCE_KERNEL_S / statistics.median(kernels)
        workload.warm()

    # -- the loop --------------------------------------------------------------

    def execute(self) -> None:
        workload = self.workload
        ops = workload.ops()
        self._cycle(ops, traced=False, record=False)  # warm-up, untimed
        uninstall = install(self.tracer) if self.trace else None
        try:
            deadline = time.perf_counter() + self.seconds
            while True:
                traced = self.trace and self.cycles % 2 == 1
                self._cycle(ops, traced)
                self.cycles += 1
                done = time.perf_counter() >= deadline
                if done and (not self.trace or self.cycles % 2 == 0):
                    break
        finally:
            if uninstall is not None:
                uninstall()
        self.rss_mb = peak_rss_mb(workload.worker_pids())

    def _cycle(self, ops: List[Op], traced: bool, record: bool = True) -> None:
        workload = self.workload
        workload.start_cycle()
        gc.collect()  # the last cycle's garbage is not billed to this one
        before = workload.counters() if traced else None
        tracer = self.tracer
        speed = self.speed
        speed.sample()
        for op in ops:
            speed.maybe_sample()
            output = error = None
            if traced:
                tracer.begin_op(op.kind)
            started = time.perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # a failed op is counted, never hidden
                error = exc
            seconds = time.perf_counter() - started
            if traced:
                tracer.end_op()
            if record:
                self.samples.append(Sample(op.kind, started, seconds, traced))
            self.attempted += 1
            problem = f"raised {error!r}" if error is not None else op.check(output)
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{op.kind} {op.label}: {problem}")
        speed.sample()
        if traced:
            after = workload.counters()
            for key, value in after.items():
                self.counter_deltas[key] = (
                    self.counter_deltas.get(key, 0.0) + value - before.get(key, 0.0)
                )

    # -- metrics ---------------------------------------------------------------

    def _factors(self, samples: List[Sample]) -> List[float]:
        return self.speed.factors([s.started + s.seconds / 2 for s in samples])

    def _scaled(self, samples: List[Sample]) -> List[float]:
        return [s.seconds * f for s, f in zip(samples, self._factors(samples))]

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        """Every end-to-end metric, scaled (``value``) and raw (``wall``)."""
        tail = self.workload.read_tail
        result: Dict[str, Dict[str, float]] = {}
        for label, durations in (
            ("value", self._scaled(self.samples)),
            ("wall", [s.seconds for s in self.samples]),
        ):
            reads = [d for d, s in zip(durations, self.samples) if s.kind == "read"]
            writes = [d for d, s in zip(durations, self.samples) if s.kind == "write"]
            values = {
                "throughput_ops_s": len(durations) / sum(durations),
                "read_p50_ms": percentile(reads, 0.50) * 1e3,
                "read_tail_ms": percentile(reads, tail) * 1e3,
                "write_p50_ms": percentile(writes, 0.50) * 1e3,
                "write_p90_ms": percentile(writes, 0.90) * 1e3,
            }
            for name, value in values.items():
                result.setdefault(name, {})[label] = value
        setup = statistics.median(self.raw_setups)
        result["setup_s"] = {"value": setup * self.setup_scale, "wall": setup}
        result["peak_rss_mb"] = {"value": self.rss_mb, "wall": self.rss_mb}
        return result

    def tail_margins(self) -> Dict[str, int]:
        """Samples beyond each tail percentile (the rule asks for >= 10)."""
        reads = sum(1 for s in self.samples if s.kind == "read")
        writes = sum(1 for s in self.samples if s.kind == "write")
        return {
            "read_tail_ms": int(reads * (1 - self.workload.read_tail)),
            "write_p90_ms": int(writes * 0.10),
        }

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric, from the traced cycles."""
        traced = [s for s in self.samples if s.traced]
        untraced = [s for s in self.samples if not s.traced]
        scaled_traced = self._scaled(traced)
        sums = layer_times(self.tracer.roots, self._factors(traced))
        reads = sum(1 for s in traced if s.kind == "read") or 1
        writes = sum(1 for s in traced if s.kind == "write") or 1
        ops = len(traced) or 1
        counters = dict(self.counter_deltas)
        counters.update(self.tracer.counters)

        def ms(kind: str, name: str, measure: str, per: int) -> float:
            return sums.get(f"{kind}|{name}|{measure}", 0.0) * 1e3 / per

        def ratio(part: str, whole: List[str]) -> float:
            total = sum(counters.get(key, 0.0) for key in whole)
            return counters.get(part, 0.0) / total if total else 0.0

        mean_traced = sum(scaled_traced) / len(scaled_traced)
        scaled_untraced = self._scaled(untraced)
        mean_untraced = sum(scaled_untraced) / len(scaled_untraced)
        metrics = {
            "xquery.parser.self_ms_per_read": ms("read", "xquery.parser", "self", reads),
            "xquery.optimizer.self_ms_per_read": ms("read", "xquery.optimizer", "self", reads),
            "xquery.algebra.lower_ms_per_read": ms("read", "xquery.algebra.lower", "self", reads),
            "xquery.algebra.optimize_ms_per_read": ms("read", "xquery.algebra.optimize", "total", reads),
            "xquery.algebra.execute_ms_per_read": ms("read", "xquery.algebra.execute", "total", reads),
            "xquery.algebra.plan_nodes_per_read": counters.get("algebra.plan_nodes", 0.0) / reads,
            "xquery.algebra.fallback_leaf_share": ratio("algebra.fallback_leaves", ["algebra.plan_nodes"]),
            "xquery.api.compile_ms_per_read": ms("read", "xquery.api.compile", "total", reads),
            "xquery.api.compile_cache_hit_ratio": ratio("compile.hits", ["compile.calls"]),
            "xquery.evaluator.self_ms_per_read": ms("read", "xquery.evaluator", "self", reads),
            "querycalc.via_xquery.ms_per_read": ms("read", "querycalc.via_xquery", "total", reads),
            "querycalc.service.self_ms_per_read": ms("read", "querycalc.service", "self", reads),
            "querycalc.service.result_hit_ratio": ratio("service.hits", ["service.hits", "service.misses"]),
            "querycalc.service.plan_hit_ratio": ratio("service.plan_hits", ["service.plan_hits", "service.plan_misses"]),
            "querycalc.service.kept_per_write": counters.get("service.kept", 0.0) / writes,
            "querycalc.service.patched_per_write": counters.get("service.patched", 0.0) / writes,
            "querycalc.service.invalidated_per_write": counters.get("service.invalidated", 0.0) / writes,
            "serving.pool.execute_ms_per_call": (
                ms("read", "serving.pool.execute", "total", 1) / counters["pool.calls"]
                if counters.get("pool.calls") else 0.0
            ),
            "serving.pool.calls_per_read": counters.get("pool.calls", 0.0) / reads,
            "serving.pool.delta_ms_per_write": ms("write", "serving.pool.delta", "total", writes),
            "serving.pool.respawns": counters.get("pool.respawns", 0.0),
            "xquery.updates.apply_ms_per_write": ms("write", "xquery.updates.apply", "total", writes),
            "awb.xml_io.export_ms_per_write": ms("write", "awb.xml_io.export", "total", writes),
            "docgen.phase1_generate_ms": ms("read", "docgen.phase1", "total", reads),
            "docgen.phase2_omissions_ms": ms("read", "docgen.phase2", "total", reads),
            "docgen.phase3_toc_ms": ms("read", "docgen.phase3", "total", reads),
            "docgen.phase4_replace_ms": ms("read", "docgen.phase4", "total", reads),
            "docgen.phase5_strip_ms": ms("read", "docgen.phase5", "total", reads),
            "docgen.bytes_copied_per_doc": counters.get("docgen.bytes_copied", 0.0) / reads,
            "xquery.evaluator.self_ms_per_doc": ms("read", "xquery.evaluator", "self", reads),
            "xmlio.serialize_ms_per_doc": ms("read", "xmlio.serialize", "total", reads),
            "xslt.transform_ms_per_doc": ms("read", "xslt.transform", "total", reads),
            "collections.service.self_ms_per_read": ms("read", "collections.service", "self", reads),
            "collections.service.cache_hit_ratio": ratio("search.hits", ["search.hits", "search.misses"]),
            "collections.service.scatter_share": ratio("search.scatter", ["search.scatter", "search.single"]),
            "collections.worker.wait_ms_per_read": ms("read", "collections.worker", "total", reads),
            "collections.worker.requests_per_read": self._per_read_count(),
            "collections.store.put_ms_per_write": ms("write", "collections.store.put", "total", writes),
            "collections.fulltext.maintenance_ms_per_write": ms("write", "collections.fulltext", "total", writes),
            "collections.fulltext.maintenance_ops_per_write": counters.get("fulltext.maintenance_ops", 0.0) / writes,
            "gc.pause_ms_per_op": counters.get("gc.pause_ns", 0.0) * 1e-6 / ops,
            "gc.gen2_per_op": counters.get("gc.gen2", 0.0) / ops,
            "trace.overhead_pct": (mean_traced / mean_untraced - 1.0) * 100.0,
        }
        return metrics

    def _per_read_count(self) -> float:
        reads = [root for root in self.tracer.roots if root.name == "op.read"]
        if not reads:
            return 0.0
        requests = sum(
            1 for root in reads for span in root.walk() if span.name == "collections.worker"
        )
        return requests / len(reads)


def header_lines(run: Run) -> List[str]:
    workload = run.workload
    speed = run.speed
    lines = [
        f"workload {workload.name}  cpu_count {os.cpu_count()}  "
        f"python {'.'.join(map(str, sys.version_info[:3]))}  "
        f"{workload.describe()}",
        f"host kernel: raw median {speed.raw_median() * 1e3:.4f} ms  "
        f"spread (IQR/median) {speed.raw_spread():.3f}  over {len(speed.samples)} samples; "
        f"reference kernel {REFERENCE_KERNEL_S * 1e3:.4f} ms",
        f"cycles {run.cycles}  ops {run.attempted}  failed {run.failed}  "
        f"set-ups {len(run.raw_setups)}  "
        f"pinned to cpu {run.cpu if run.cpu is not None else '(none)'}",
    ]
    return lines
