#!/usr/bin/env python3
"""Regenerate the golden fixtures under tests/fixtures/, or check them.

Golden files pin exact random streams and output bytes; regenerate only when
the pinned generator or CSV schema changes deliberately, and expect every
golden-comparison test to be re-frozen when you do.

    python scripts/make_goldens.py          # rewrite tests/fixtures/
    python scripts/make_goldens.py --check  # regenerate into a temporary
                                            # directory and compare bytes

``--check`` exits 1 and names every fixture whose bytes would change.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from shakyladder import (
    Ladder,
    LadderConfig,
    ShakyLadder,
    Rng,
    gaussian,
    laplace,
    make_random_label_sample,
    run_random_analyst,
    shaky_params,
    shifted_majority_attack,
)
from shakyladder.core import write_trace_csv
from shakyladder.experiments import ExperimentConfig, experiment_csv

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def write_stream(path: Path, values) -> None:
    text = "\n".join(format(float(v), ".17g") for v in values) + "\n"
    path.write_text(text, encoding="utf-8")


def write_goldens(out: Path) -> list[str]:
    """Write every golden file into ``out``; returns their names."""
    rng = Rng(42)
    write_stream(out / "laplace_seed42_scale0.5.txt", [laplace(rng, 0.5) for _ in range(20)])
    rng = Rng(42)
    write_stream(out / "gaussian_seed42_stddev1.txt", [gaussian(rng, 1.0) for _ in range(20)])
    rng = Rng(42)
    write_stream(out / "uniform_seed42.txt", [rng.random() for _ in range(20)])

    # Seeded mechanism trace under a fixed random submission stream.
    params = shaky_params(10000, 100, 0.1)
    sample = make_random_label_sample(10000, 7)
    mechanism = ShakyLadder(params, seed=7)
    _, trace = run_random_analyst(mechanism, sample, 100, 7)
    write_trace_csv(trace, out / "shaky_trace_seed7.csv")

    # Small experiment output for CLI golden comparison.
    config = ExperimentConfig(
        experiment="vary-queries", n=400, k_grid=(20, 50), reps=5, seed=1,
    )
    (out / "vq_small.csv").write_bytes(experiment_csv(config).encode("utf-8"))
    # All seven default noise levels; one threshold group holds over 255 rows of a block.
    config = ExperimentConfig(experiment="vary-noise", n=200, k_grid=(500, 3000), reps=2)
    (out / "vn_small.csv").write_bytes(experiment_csv(config).encode("utf-8"))

    # The mechanism-driven attacks, one file per configuration.
    attacks = {
        "envelope_small.csv": dict(experiment="envelope", n=10000, k_grid=(100, 300)),
        "avm_ladder_small.csv": dict(experiment="attack-vs-mechanism", n=2000,
                                     k_grid=(50, 200), mechanism="ladder"),
        "avm_pf_ladder_small.csv": dict(experiment="attack-vs-mechanism", n=2000,
                                        k_grid=(50, 200), mechanism="pf-ladder"),
        "avm_noisy_small.csv": dict(experiment="attack-vs-mechanism", n=2000,
                                    k_grid=(50, 200), mechanism="noisy", noise_grid=(1.0,)),
    }
    for name, fields in attacks.items():
        config = ExperimentConfig(**fields, reps=2, seed=0, per_rep=True)
        (out / name).write_bytes(experiment_csv(config).encode("utf-8"))

    # Shifted majority attack on a non-recording Ladder, one line per seed.
    lines = ["seed,final_error,selected_count,queries_issued,feedback_received,"
             "final_released,rounds,update_count"]
    for s in range(4):
        sample = make_random_label_sample(2500, (s, 0))
        ladder = Ladder(LadderConfig(eta=1.0 / 800.0), record=False)
        report, _ = shifted_majority_attack(ladder, sample, 100, 1.0 / 400.0, (s, 0))
        lines.append(",".join([
            str(s), format(report.final_error, ".17g"), str(report.selected_count),
            str(report.queries_issued), str(report.feedback_received),
            format(report.final_released, ".17g"), str(ladder.round), str(ladder.update_count),
        ]))
    (out / "shifted_ladder_small.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [
        "laplace_seed42_scale0.5.txt", "gaussian_seed42_stddev1.txt", "uniform_seed42.txt",
        "shaky_trace_seed7.csv", "vq_small.csv", "vn_small.csv", *attacks,
        "shifted_ladder_small.csv",
    ]


def changed_goldens() -> list[str]:
    """Names of the fixtures whose regenerated bytes differ (or are missing)."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        names = write_goldens(fresh)
        return [
            name for name in names
            if not (FIXTURES / name).is_file()
            or (FIXTURES / name).read_bytes() != (fresh / name).read_bytes()
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare regenerated bytes with tests/fixtures/ instead of writing")
    args = parser.parse_args(argv)
    if args.check:
        changed = changed_goldens()
        for name in changed:
            print(f"differs: {FIXTURES / name}", file=sys.stderr)
        return 1 if changed else 0
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name in write_goldens(FIXTURES):
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
