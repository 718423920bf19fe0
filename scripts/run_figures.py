#!/usr/bin/env python3
"""Reproduce the attack-vs-noise result tables (vary-queries and vary-noise).

Full-scale run: the majority attack across the default query grid and noise
levels, 100 repetitions per cell, for holdouts of 10000 and 40000 points.
Writes four CSVs into results/ (created if needed). Expect about 2 s on a
2-core host at the default 100 repetitions.

Usage: python scripts/run_figures.py [--reps N] [--seed S]
"""

import argparse
import time
from pathlib import Path

from shakyladder.experiments import ExperimentConfig, experiment_csv

RESULTS = Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    jobs = []
    for n in (10000, 40000):
        jobs.append(("vary-queries", n, None))
        jobs.append(("vary-noise", n, (100, 500, 1000)))
    for experiment, n, k_grid in jobs:
        config = ExperimentConfig(
            experiment=experiment,
            n=n,
            k_grid=k_grid,
            reps=args.reps,
            seed=args.seed,
        )
        out = RESULTS / f"{experiment.replace('-', '_')}_{n}.csv"
        start = time.time()
        out.write_bytes(experiment_csv(config).encode("utf-8"))
        print(f"{out.name}: {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
