"""One workload in one process: set up, time a closed loop, check, report.

Started by ``run.py`` with the spawn time on the shared monotonic clock and
a host-speed calibration taken just before the spawn, so ``setup_s`` covers
interpreter start, imports, input construction and one warm-up operation.
The loop is one client issuing the next operation only after the previous
one returned, with a calibration between operations (outside their timed
intervals); every timing is reported both as wall time and rescaled to the
reference host speed of :mod:`hostspeed`. All output checks run after the
timed loop, and peak memory is read before them, so neither the checks nor
the reference computations they make are counted in any end-to-end metric.
"""

from __future__ import annotations

import platform
import random
import resource
import statistics
import time
import warnings
from typing import NamedTuple

import numpy as np

import hostspeed
import workloads
from tracing import LAYERS, Tracer, is_submit

#: Operation ``i`` of a run with benchmark seed ``S`` uses CLI seed ``S*SEED_STRIDE + i``;
#: ``i = 0`` is the warm-up.
SEED_STRIDE = 1_000_000
TAIL_BEYOND = 10


def op_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def tail_latency(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count). Sorted ascending, the j-th
    smallest of N samples has N - j beyond it, so j = N - 10 and the
    percentile is 100 j / N. With 10 or fewer samples no such point exists
    and the maximum is reported at percentile 100.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    j = count - TAIL_BEYOND
    if j < 1:
        return ordered[-1], 100.0, count
    return ordered[j - 1], 100.0 * j / count, count


def run_op(workload, s: int, counts=None):
    """One operation with its regime warnings counted, not printed.

    Returns (output or None, seconds, error text or None). Warnings other
    than the expected regime warnings are re-issued after the operation.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            output, error = workload.run(s), None
        except Exception as exc:  # one failed operation must not end the run
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    regime = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning) and workloads.REGIME_WARNING in str(w.message):
            regime += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if counts is not None:
        counts["mechanisms.regime_warnings"] += regime
    if error is None and regime != workload.regime_warnings:
        error = f"{regime} regime warnings, expected {workload.regime_warnings}"
    return output, elapsed, error


class Op(NamedTuple):
    s: int
    output: object
    error: str | None
    seconds: float
    traced: bool
    #: wall time -> reference time, from the calibrations around the op
    speed: float = 1.0

    @property
    def reference_s(self) -> float:
        return self.seconds * self.speed


def check_ops(workload, ops) -> dict[int, str]:
    """Failed ops by index: those that raised or fail their output check."""
    failures = {}
    for i, op in enumerate(ops):
        try:
            problems = [op.error] if op.error is not None else workload.check(op.s, op.output)
        except Exception as exc:  # a malformed output is a failed op, not a failed run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[i] = f"op seed {op.s}: " + "; ".join(problems)
    return failures


def setup(workload_name: str, seed: int, spawned_at: float, kernel_before_s: float):
    """Build the workload and run the warm-up op (returned unchecked).

    Returns (workload, set-up times, warm-up op). The set-up times are the
    wall time since the spawn and that time rescaled by the calibrations
    taken before the spawn and right after the warm-up.
    """
    workload = workloads.WORKLOADS[workload_name]()
    s = op_seed(seed, 0)
    output, elapsed, error = run_op(workload, s)
    wall_s = time.monotonic() - spawned_at
    speed = hostspeed.speed(kernel_before_s, hostspeed.calibrate())
    times = {"setup_s": wall_s * speed, "setup_wall_s": wall_s}
    return workload, times, Op(s, output, error, elapsed, False)


def layer_metrics(tracer: Tracer, workload, traced_s: list[float], untraced_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced operations and the traced-run checks."""
    matrix, labels, wall = tracer.self_times()
    problems = []
    if not np.array_equal(matrix.sum(axis=1), wall):
        problems.append("layer self times plus remainder do not sum to the traced wall time")
    ops = tracer.operations
    c = tracer.counts
    per_op = lambda key: c[key] / ops
    ratio = lambda num, den: c[num] / c[den] if c[den] else 0.0
    median_s = {label: float(np.median(matrix[:, j])) / 1e9 for j, label in enumerate(labels)}
    metrics = {f"{layer}.self_s": median_s[layer] for layer in LAYERS}
    submit_ns = tracer.inclusive_ns(is_submit)
    metrics.update({
        "noise.calls": tracer.span_count("noise") / ops,
        "noise.bytes_drawn": per_op("noise.bytes_drawn"),
        "noise.laplace_calls": per_op("noise.laplace_calls"),
        "experiments.cells": per_op("experiments.cells"),
        "core.models_built": per_op("core.models_built"),
        "core.trace_rounds": per_op("core.trace_rounds"),
        "mechanisms.submits": per_op("mechanisms.submits"),
        "mechanisms.us_per_submit": submit_ns / 1e3 / c["mechanisms.submits"] if c["mechanisms.submits"] else 0.0,
        "mechanisms.update_ratio": ratio("mechanisms.updates", "mechanisms.submits"),
        "mechanisms.regime_warnings": per_op("mechanisms.regime_warnings"),
        "reduction.queries": per_op("reduction.queries"),
        "reduction.submits_per_query": ratio("reduction.submissions", "reduction.queries"),
        "reduction.trigger_ratio": ratio("reduction.triggered", "reduction.queries"),
        "reduction.clamped": per_op("reduction.clamped"),
        "reduction.no_trigger": per_op("reduction.no_trigger"),
        "analysts.selected_ratio": ratio("analysts.selected", "analysts.queries_issued"),
        "analysts.feedback_ratio": ratio("analysts.feedback", "analysts.queries_issued"),
        "audit.session_submits": per_op("audit.session_submits"),
        "audit.envelope_satisfied_ratio": ratio("audit.envelope_satisfied", "audit.envelope_checks"),
        "audit.faithfulness_violations": per_op("audit.faithfulness_violations"),
        "cli.bytes_written": per_op("cli.bytes_written"),
        "trace.remainder_s": median_s["remainder"],
        "trace.overhead_ratio": (statistics.fmean(traced_s) / statistics.fmean(untraced_s)
                                 if traced_s and untraced_s else 0.0),
    })
    for name in workloads.PREDICTED_ZEROS[workload.name]:
        if metrics[name] != 0:
            problems.append(f"{name} reads {metrics[name]}, predicted 0 on {workload.name}")
    return metrics, problems


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            spawned_at: float, kernel_before_s: float, spans_path: str | None) -> dict:
    workload, setup_times, warm_up = setup(workload_name, seed, spawned_at, kernel_before_s)
    tracer = Tracer() if trace else None
    ops = []
    kernel_s = hostspeed.calibrate()
    loop_start = time.perf_counter()
    # a traced run needs at least one untraced and one traced op
    while time.perf_counter() - loop_start < seconds or (trace and len(ops) < 2):
        s = op_seed(seed, len(ops) + 1)
        traced = trace and len(ops) % 2 == 1
        if traced:
            with tracer.installed(), tracer.operation():
                output, elapsed, error = run_op(workload, s, tracer.counts)
            if output is not None:
                tracer.counts["cli.bytes_written"] += workload.cli_bytes(output)
        else:
            output, elapsed, error = run_op(workload, s)
        kernel_before_s, kernel_s = kernel_s, hostspeed.calibrate()
        ops.append(Op(s, output, error, elapsed, traced, hostspeed.speed(kernel_before_s, kernel_s)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = list(check_ops(workload, [warm_up]).values())
    failures = check_ops(workload, ops)
    passed = [op for i, op in enumerate(ops) if i not in failures]
    again_of = random.Random(seed).choice(ops)
    if again_of.error is None:
        again, _, again_error = run_op(workload, again_of.s)
        if again_error is not None or workload.render(again) != workload.render(again_of.output):
            problems.append(f"op seed {again_of.s} is not byte-identical when re-run")

    result = {
        "attempted": len(ops),
        "failed": len(failures),
        "failures": list(failures.values())[:20],
        "problems": problems,
        **setup_times,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "openblas": _openblas_version(),
        },
    }
    if trace:
        traced_s = [op.reference_s for op in passed if op.traced]
        untraced_s = [op.reference_s for op in passed if not op.traced]
        metrics, trace_problems = layer_metrics(tracer, workload, traced_s, untraced_s)
        problems.extend(trace_problems)
        result["layer_metrics"] = metrics
        result["traced_ops"] = tracer.operations
        if spans_path:
            tracer.save(spans_path)
        return result
    # A failed op counts as missing every latency limit, so only passing ops
    # give latencies; its time still counts against throughput.
    latencies = [op.reference_s for op in passed] or [0.0]
    tail, pct, _ = tail_latency(latencies)
    wall = [op.seconds for op in passed] or [0.0]
    result.update({
        "ops_per_s": len(passed) / sum(op.reference_s for op in ops),
        "op_ms_p50": statistics.median(latencies) * 1e3,
        "op_ms_tail": tail * 1e3,
        "tail_percentile": pct,
        "tail_samples": len(passed),
        "peak_rss_mb": peak_rss_mb,
        "wall": {
            "ops_per_s": len(passed) / sum(op.seconds for op in ops),
            "op_ms_p50": statistics.median(wall) * 1e3,
            "op_ms_tail": tail_latency(wall)[0] * 1e3,
        },
        "latencies_s": [op.seconds for op in ops],
        "speeds": [op.speed for op in ops],
    })
    return result


def _openblas_version() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"
