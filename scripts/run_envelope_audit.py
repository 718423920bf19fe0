#!/usr/bin/env python3
"""Audit the randomized ladder's error envelope under the majority attack.

Runs the selection-mode attack against the mechanism across a k grid and
writes a per-rep CSV with each repetition's leaderboard error (lberr), update
count B and max noise magnitude L. The envelope checked is
18 eps sqrt(B) + lam + 2L, with eps and lam from shaky_params(n, k+1, beta).

Usage: python scripts/run_envelope_audit.py [--n N] [--k K1,K2,...] [--reps R]
"""

import argparse
from pathlib import Path

from shakyladder.experiments import ExperimentConfig, experiment_csv

RESULTS = Path(__file__).resolve().parent.parent / "results"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--k", type=str, default="100,300,1000")
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = ExperimentConfig(
        experiment="envelope",
        n=args.n,
        k_grid=tuple(int(part) for part in args.k.split(",")),
        reps=args.reps,
        seed=args.seed,
        per_rep=True,
    )
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"envelope_{args.n}.csv"
    out.write_bytes(experiment_csv(config).encode("utf-8"))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
