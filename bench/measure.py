"""Set up, run the timed, traced and memory passes, and report."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

import checks
import tracing
import workloads
from run import PACKAGE, THREAD_VARS


END_TO_END_UNITS = {
    "setup_s": "s",
    "rank_s": "s",
    "op_s": "s",
    "peak_mib": "MiB",
    "cov_bps_250": "ratio",
    "cov_mps_250": "ratio",
}

PER_LAYER_UNITS = {
    "data.rows": "count",
    "data.bytes": "bytes",
    "pca.rank": "count",
    "metrics.pairs": "count",
    "clustering.orphan_clusters": "count",
    "clustering.error_hits": "count",
    "loop.pairs": "count",
    "harness.oracle_pairs": "count",
}


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, phase: str, index: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{phase} op {index}: " + "; ".join(problems))


def run_ops(workload, inputs, work, seconds, book, tally, phase, tracer=None, min_ops=None):
    """Operations back to back until *seconds* pass and at least ``min_ops`` ran."""
    outcomes = []
    min_ops = workload.min_ops if min_ops is None else min_ops
    start = time.perf_counter()
    while len(outcomes) < min_ops or time.perf_counter() - start < seconds:
        gc.collect()
        index = len(outcomes)
        outcome = workload.execute(inputs, index, work, tracer.unit if tracer else nullcontext)
        if not outcome.problems:
            try:
                outcome.problems += workload.verify(inputs, outcome, book)
            except Exception:  # a check that cannot run counts as a failed check
                outcome.problems.append("check raised: " + traceback.format_exc(limit=3))
        tally.add(phase, index, outcome.problems)
        outcomes.append(outcome)
    return outcomes


def _median(values) -> float:
    """Median, or NaN when every operation failed (reported as 0 with correct=false)."""
    return float(statistics.median(values)) if values else float("nan")


def host_reference_s() -> float:
    """Wall time of a fixed pure-Python loop, recorded beside the results.

    It does not touch the program: when medians move between runs of the
    same code, this shows whether the host's speed moved with them.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int, code: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(root),
        "code": code,
        "seed": seed,
    }


def end_to_end(setup_times, outcomes, memory_unit):
    """Gated end-to-end values, reported-only times, sample counts and raw samples."""
    times = {name: [o.times[name] for o in outcomes if name in o.times]
             for name in ("fit_s", "rank_s", "op_s", "sweep_seed_s")}
    # coverage is deterministic per seed: take each seed's first operation
    first = {}
    for o in outcomes:
        if o.coverage:
            first.setdefault(o.seed, o.coverage)
    values = {
        "setup_s": _median(setup_times),
        "rank_s": _median(times["rank_s"]),
        "op_s": _median(times["op_s"]),
        "peak_mib": memory_unit.peak_mib,
    }
    for name in ("cov_bps_250", "cov_mps_250"):
        values[name] = float(np.mean([c[name] for c in first.values()])) if first else float("nan")
    samples = {name: len(v) for name, v in times.items()}
    samples["setup_s"] = len(setup_times)
    # printed and recorded, not gated: see bench/BASELINE.md
    extra = {name: _median(times[name]) for name in ("fit_s", "sweep_seed_s") if times[name]}
    return values, samples, extra, times


def per_layer(tracer, untraced_outcomes, memory_tracer) -> dict:
    self_times = tracer.self_times()
    durations = tracer.unit_durations()
    ops = [u for u in tracer.units if u.kind == "op"]
    setups = [u for u in tracer.units if u.kind == "setup"]
    values = {}
    for metric in tracing.TIME_METRICS:
        values[metric] = _median([self_times[u.id][metric] for u in ops])
    # the queue workloads generate their inputs only in set-up
    values["synthetic.setup_generate_s"] = _median(
        [self_times[u.id]["synthetic.generate_s"] for u in setups]
    )
    for name in PER_LAYER_UNITS:
        values[name] = _median([u.counts.get(name, 0.0) for u in ops])
    memory_ops = [u for u in memory_tracer.units if u.kind == "op"]
    for name in tracing.PEAK_METRICS:
        values[name] = max((u.peaks.get(name, 0.0) for u in memory_ops), default=0.0)
    traced = _median([durations[u.id] for u in ops])
    untraced = _median([o.times["op_s"] for o in untraced_outcomes if "op_s" in o.times])
    values["trace.op_s"] = traced
    values["trace.untraced_op_s"] = untraced
    values["trace.layers_s"] = _median(
        [sum(v for k, v in self_times[u.id].items() if k != tracing.ROOT_METRIC) for u in ops]
    )
    values["trace.overhead_s"] = traced - untraced
    return values


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    return PER_LAYER_UNITS.get(name, "count")


def run(workload_name: str, seed: int, seconds: float, trace: bool, work_root: str) -> int:
    workload = workloads.WORKLOADS[workload_name]
    code = checks.code_digest(PACKAGE)
    env = environment(os.path.dirname(work_root), seed, code)
    work = os.path.join(work_root, f"run-{workload_name}-{seed}-{os.getpid()}")
    book = checks.DigestBook(os.path.join(work_root, "digests.json"), code)
    tally = Tally()
    tracer = tracing.Tracer(spans=True) if trace else None
    memory = tracing.Tracer(spans=False, memory=True)
    setup_times = []

    def set_up():
        gc.collect()
        start = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            with tracer.unit("setup") if tracer else nullcontext():
                inputs = workload.setup(work, seed)
        setup_times.append(time.perf_counter() - start)
        return inputs

    # Five set-ups at four points of the run: on a shared host CPU speed
    # can change from one minute to the next, and set-ups in a row would
    # all see one moment. Repeats rewrite identical files.
    host_ref = [host_reference_s()]
    try:
        inputs = set_up()
        outcomes = run_ops(workload, inputs, work, seconds, book, tally, "timed")
        set_up()
        if tracer:
            with tracer.installed():
                run_ops(workload, inputs, work, seconds, book, tally, "traced", tracer, min_ops=1)
        set_up()
        with tracing.tracemalloc_running(), memory.installed():
            run_ops(workload, inputs, work, 0, book, tally, "memory", memory, min_ops=1)
        memory_unit = memory.units[-1]
        set_up()
        set_up()
        host_ref.append(host_reference_s())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    book.save()

    values, samples, extra, raw = end_to_end(setup_times, outcomes, memory_unit)
    if trace:
        metrics = per_layer(tracer, outcomes, memory)
        tracer.dump(os.path.join(work_root, "traces", f"{workload_name}-seed{seed}.json"))
    else:
        metrics = values

    failed = len(tally.failures)
    print(f"workload {workload_name}: {workload.describe()}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        n = samples.get(name)
        suffix = f"  (median of {n})" if n else ""
        print(f"  {name:<14} {value:12.6g} {unit_of(name)}{suffix}")
    for name, value in extra.items():
        print(f"  {name:<14} {value:12.6g} s  (median of {samples[name]})")
    print(f"  {'host_ref_s':<14} {host_ref[0]:12.6g} s at start, {host_ref[1]:.6g} s at end  (fixed Python loop)")
    print(f"  {'fail_ratio':<14} {failed / tally.attempted:12.6g} ratio  ({failed} failed / {tally.attempted} attempted)")
    for reason in tally.failures:
        print(f"  FAILED {reason}")
    if trace:
        print("per-layer (traced run):")
        for name, value in metrics.items():
            print(f"  {name:<28} {value:14.6g} {unit_of(name)}")
        print(f"  layer self times sum to {metrics['trace.layers_s']:.4g} s per traced operation "
              f"of {metrics['trace.op_s']:.4g} s; untraced op_s {metrics['trace.untraced_op_s']:.4g} s; "
              f"tracing overhead {metrics['trace.overhead_s']:.4g} s")

    os.makedirs(os.path.join(work_root, "results"), exist_ok=True)
    record = {
        "workload": workload_name,
        "sizes": workload.describe(),
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "end_to_end": values,
        "extra": extra,
        "samples": samples,
        "raw_times": raw,
        "setup_times": setup_times,
        "host_ref_s": host_ref,
        "per_layer": metrics if trace else None,
        "attempted": tally.attempted,
        "failed": failed,
        "fail_ratio": failed / tally.attempted,
        "failures": tally.failures,
        "digests": {o.seed: o.digests for o in outcomes},
    }
    path = os.path.join(work_root, "results", f"{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    with open(os.path.join(os.path.dirname(work_root), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(declared)}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name] if np.isfinite(metrics[name]) else 0.0, "unit": unit_of(name)}
            for name in declared
        },
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0
