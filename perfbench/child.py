"""Child process of ``run.py``; not meant to be started by hand.

    child.py {setup|measure} WORKLOAD SEED SECONDS TRACE SPAWNED_AT KERNEL_BEFORE_S

``setup`` imports, builds the workload and runs the warm-up operation, then
reports its set-up time and exits; ``measure`` goes on to the timed loop and checks.
The last line of standard output is the JSON result.
"""

import json
import sys
from pathlib import Path

import worker  # imports numpy and the package: part of the measured set-up


def main(argv) -> int:
    role, workload, seed, seconds, trace, spawned_at, kernel_before_s = argv
    if role == "setup":
        # the warm-up op is the measuring process's warm-up, which is checked there
        result = worker.setup(workload, int(seed), float(spawned_at), float(kernel_before_s))[1]
    else:
        spans = Path(__file__).resolve().parent / "out" / f"{workload}.spans.npz"
        if trace == "1":
            spans.parent.mkdir(exist_ok=True)
        result = worker.measure(workload, int(seed), float(seconds), trace == "1",
                                float(spawned_at), float(kernel_before_s), str(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
