#!/usr/bin/env python3
"""Benchmark of the shakyladder package: seeded workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each workload runs in processes of its own, started from this file with the
package imported from ``src/`` of the same checkout. With ``--trace 0`` it
reports the end-to-end metrics: checked operations per second, median and
tail operation latency, peak resident memory of the measuring process, and
set-up time (the median over several freshly started processes). Timings
are rescaled to a reference host speed by a calibration kernel timed around
each interval (see ``hostspeed.py``), because the speed of a shared host
swings by up to 2x within a run; the wall-clock figures are printed beside
them and saved to ``perfbench/out/``. With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics derived from the spans of the traced ones; the spans are
written to ``perfbench/out/``. The BLAS thread pool of every child is fixed
to ``BLAS_THREADS``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when a result was produced, 2 when the
package source is missing or the arguments are invalid, and 1 when a child
process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("attack-grid", "envelope-shaky", "shifted-ladder")
BLAS_THREADS = 1
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


class ChildFailed(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def run_child(role: str, args, deadline: float) -> dict:
    """Start one child, wait for it, and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed(f"{args.workload}: no time left for the {role} process")
    kernel_before_s = hostspeed.calibrate()
    cmd = [sys.executable, str(HERE / "child.py"), role, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), repr(time.monotonic()), repr(kernel_before_s)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              timeout=remaining, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args.workload}: {role} process exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args.workload}: {role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, deadline: float) -> dict:
    # Set-up-only processes run both before and after the measuring one, so
    # the median spans the whole run rather than one moment of a shared host.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [run_child("setup", args, deadline) for _ in range(extra // 2)]
    result = run_child("measure", args, deadline)
    setups.append({k: result[k] for k in ("setup_s", "setup_wall_s")})
    setups += [run_child("setup", args, deadline) for _ in range(extra - extra // 2)]
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in setups)
    return result


def report(name: str, args, result: dict, environment: dict) -> dict:
    """Print the workload's lines and return its metrics as name -> {value, unit}."""
    env = {**environment, **result["environment"], "seed": args.seed}
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace}  "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    failed_share = result["failed"] / result["attempted"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["layer_metrics"].items()}
        print(f"  traced ops {result['traced_ops']} of {result['attempted']}")
    else:
        metrics = {k: {"value": result[k], "unit": unit} for k, unit in END_TO_END if k in result}
    wall = {} if args.trace else {**result["wall"], "setup_s": result["setup_wall_s"]}
    for key, metric in metrics.items():
        extra = f"  (wall {wall[key]:.6g})" if key in wall else ""
        if key == "op_ms_tail":
            extra += f"  (p{result['tail_percentile']:.1f} of {result['tail_samples']} ops)"
        elif key == "setup_s":
            extra += f"  (median of {len(result['setup_samples'])} processes)"
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}{extra}")
    print(f"  {'failed_share':32s} {failed_share:14.6g} 1  "
          f"({result['failed']} of {result['attempted']} ops)")
    for line in result["failures"] + result["problems"]:
        print(f"  FAILED {line}")
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "environment": env, "arguments": vars(args), **result}
    (OUT / f"{name}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_submit"):
        return "us"
    if "ratio" in name or name.endswith("per_query"):
        return "ratio"
    if name.endswith("bytes_drawn") or name.endswith("bytes_written"):
        return "B"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shakyladder" / "__init__.py").is_file():
        print(f"cannot find the shakyladder package under {SRC}", file=sys.stderr)
        return 2
    environment = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                   "commit": git_commit()}
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, time.monotonic() + DEADLINE_S)
        except ChildFailed as err:
            print(err, file=sys.stderr)
            return 1
        workload_metrics = report(name, args, result, environment)
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in workload_metrics.items()})
        correct = correct and result["failed"] == 0 and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
