"""Reference implementations that the fast paths are tested against.

:func:`vstack_majority_attack` is the classic float64 recipe of the vector
majority attack, kept verbatim: it draws the whole k x n query matrix with
``Rng.integers``, scores it in float64 and votes through an explicit
``vstack`` of kept and flipped rows.
"""

import numpy as np

from shakyladder.analysts import HIDDEN_STREAM, NOISE_STREAM, QUERY_STREAM, AttackReport
from shakyladder.noise import Rng


def vstack_majority_attack(n: int, k: int, noise_stddev: float | None = None,
                           seed: int | tuple[int, ...] = 0) -> AttackReport:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hidden = (2 * Rng(seed, HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1)
    queries = (2 * Rng(seed, QUERY_STREAM).integers(0, 2, (k, n), dtype=np.int8) - 1)
    answers = (queries.astype(np.float64) @ hidden.astype(np.float64)) / n
    if noise_stddev is not None:
        if noise_stddev < 0:
            raise ValueError(f"noise_stddev must be >= 0, got {noise_stddev}")
        answers = answers + (2.0 * noise_stddev) * Rng(seed, NOISE_STREAM).standard_normal(k)
    positives = queries[answers > 0.0, :]
    negatives = queries[answers <= 0.0, :]
    weighted = np.vstack([positives, -negatives])
    weights = weighted.T.astype(np.float64) @ np.ones(k)
    final = np.ones(n, dtype=np.int8)
    final[weights < 0.0] = -1
    final_error = float(np.mean(final != hidden))
    return AttackReport(
        final_error=final_error,
        selected_count=int(np.count_nonzero(answers > 0.0)),
        queries_issued=k,
        feedback_received=k,
    )
