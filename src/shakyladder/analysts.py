"""Adaptive analyst strategies: random models and majority-vote attacks.

The majority attack submits random binary models, keeps the ones the
mechanism scored as lucky, and combines them by pointwise majority vote; the
combined model overfits the holdout while its true risk stays exactly 1/2.
The shifted variant wraps every query in the estimator's offset schedule so
that mechanisms which rarely give feedback (ladders) answer every query.

Every attack reads its queries one bit per entry from ``_query_blocks`` and
folds each block into its vote when read, so memory is O(block * n) for any
k. Risks and correlations are popcounts of the packed rows, exact for any n;
only votes unpack rows. The vector attack reads its (k, noise) grid in one
pass (``_attack_cells``) and counts bits per sign pattern, the mechanism-
driven attacks submit one batch of risks per block and vote in float32.
Votes use +/-1 (label y is 1 - 2y); a tie or an empty selection gives label 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audit import EvaluationSession
from .core import HoldoutSample, Trace, model_from_predictions
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism
from .noise import Rng
from .reduction import AdaptiveEstimator, Query

__all__ = [
    "AttackReport",
    "majority_attack_direct",
    "majority_attack_vs_mechanism",
    "shifted_majority_attack",
    "run_random_analyst",
]

#: Votes sum +/-1 per query in float32, exact while k stays below 2^24.
FLOAT32_EXACT = 2**24

#: Entries per query block, about: 1 MB as unpacked uint8 bits (4 MB as the
#: mechanism-driven attacks' float32 rows), small enough to stay in cache.
BLOCK_ENTRIES = 2**20

# Sub-stream tags so that grid harnesses can reproduce single attacks exactly.
HIDDEN_STREAM = 1
QUERY_STREAM = 2
NOISE_STREAM = 3


@dataclass(frozen=True)
class AttackReport:
    """What the attack achieved, measured oracle-side.

    ``final_error`` is the empirical risk of the final majority model (its
    true risk is 1/2 by construction); ``feedback_received`` counts the
    attack's query rounds on which the mechanism's output moved;
    ``final_released`` is the mechanism's estimate for the final model (NaN
    when there is none, e.g. for the standalone vector attack).
    """

    final_error: float
    selected_count: int
    queries_issued: int
    feedback_received: int
    final_released: float = math.nan

    def __post_init__(self):
        if not 0.0 <= self.final_error <= 1.0:
            raise ValueError(f"final_error must lie in [0, 1], got {self.final_error}")
        if self.selected_count > self.queries_issued:
            raise ValueError("selected_count cannot exceed queries_issued")


def _query_blocks(seed: int | tuple[int, ...], k: int, n: int):
    """The one reader of the query stream: k random 0/1 rows of n entries.

    Packed ``Rng.bit_rows`` blocks of whole rows, about ``BLOCK_ENTRIES``
    entries each; a row takes whole raw words, so consecutive blocks continue
    one draw for any n. k is checked before anything is drawn: below 2^24
    the float32 vote over the rows is exact.
    """
    if k >= FLOAT32_EXACT:
        raise ValueError(f"k={k} must stay below 2^24, where the attack's float32 "
                         "vote stops being exact")
    rows = max(1, BLOCK_ENTRIES // n)
    queries = Rng(seed, QUERY_STREAM)
    return (queries.bit_rows(min(rows, k - start), n) for start in range(0, k, rows))


def _pack(bits: np.ndarray) -> np.ndarray:
    """A 0/1 vector as one row of the ``Rng.bit_rows`` layout."""
    packed = np.packbits(bits, bitorder="little")
    return np.pad(packed, (0, -packed.size % 8)).view("<u8")


def _unpack(block: np.ndarray, n: int, dtype=np.float32) -> np.ndarray:
    """Packed rows as 0/1 rows of n entries, float32 (the vote product's dtype) by default."""
    bits = np.unpackbits(block.view(np.uint8), axis=-1, count=n, bitorder="little")
    return bits.astype(dtype, copy=False)


def _mismatches(block: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Per packed row, the entries where it differs from packed ``words``."""
    return np.bitwise_count(block ^ words).sum(axis=-1, dtype=np.int64)


def _attack_cells(n: int, k_grid, noise_stddevs,
                  seed: int | tuple[int, ...]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The vector majority attack at every (k, noise) cell of one stream.

    Returns the sorted distinct k values and two ``len(k) x len(noise)``
    arrays: each cell's final error and selected (positively answered) query
    count. Query i and its noise are entry i of their streams, so a cell
    equals the attack run alone with its k and noise. Per query block a
    popcount gives the correlations, n - 2 mismatches with the hidden
    vector; per segment the rows are grouped by sign pattern across the levels
    (at most 2 per level: a sign is monotone in the scale), unpacked to uint8
    and summed per pattern into float32 count rows. With 0/1 bits b and signs
    s, (+/-1 patterns) @ counts is s @ b per level; the vote is negative where
    2 (s @ b) < 2 pos - k.
    """
    k_sorted = sorted(set(int(k) for k in k_grid))
    k_max = k_sorted[-1]
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k_sorted[0] < 0:
        raise ValueError(f"k values must be >= 0, got {k_sorted[0]}")
    blocks = _query_blocks(seed, k_max, n)
    scales = 2.0 * np.asarray(noise_stddevs, dtype=np.float64)[:, None]
    hidden = Rng(seed, HIDDEN_STREAM).bits(n)
    hidden_words = _pack(hidden)
    z = Rng(seed, NOISE_STREAM).standard_normal(k_max)
    slots = {}  # a sign pattern across the levels, as bytes -> its row of counts
    counts = np.zeros((2 * len(scales), n), dtype=np.float32)
    positives = np.zeros(len(scales), dtype=np.int64)
    errors = np.empty((len(k_sorted), len(scales)))
    selected = np.empty((len(k_sorted), len(scales)), dtype=np.int64)
    done = block_end = 0
    for cell, k in enumerate(k_sorted):
        while done < k:
            if done == block_end:
                block = next(blocks)
                answers = (n - 2 * _mismatches(block, hidden_words)) / n
                positive = answers + scales * z[done:done + len(block)] > 0.0
                block_start, block_end = done, done + len(block)
            stop = min(k, block_end)
            rows = slice(done - block_start, stop - block_start)
            order = np.lexsort(positive[:, rows])  # the rows grouped by sign pattern
            grouped = positive[:, rows][:, order]
            starts = np.flatnonzero(np.r_[True, np.diff(grouped, axis=1).any(axis=0)])
            bits = _unpack(block[rows][order], n, np.uint8)
            for start, group in zip(starts.tolist(), np.split(bits, starts[1:])):
                counts[slots.setdefault(grouped[:, start].tobytes(), len(slots))] += group.sum(
                    axis=0, dtype=np.min_scalar_type(len(group)))
            positives += np.count_nonzero(positive[:, rows], axis=1)
            done = stop
        plus = np.frombuffer(b"".join(slots), bool).reshape(len(slots), len(scales)).T
        vote = np.where(plus, np.float32(1.0), np.float32(-1.0)) @ counts[:len(slots)]
        flipped = (2.0 * vote < (2 * positives - k)[:, None]) != (hidden == 0)
        errors[cell] = np.count_nonzero(flipped, axis=1) / n
        selected[cell] = positives
    return k_sorted, errors, selected


def majority_attack_direct(n: int, k: int, noise_stddev: float | None = None,
                           seed: int | tuple[int, ...] = 0) -> AttackReport:
    """Majority attack on raw vectors, following the classic recipe.

    Draws a hidden +/-1 vector and k random +/-1 queries, scores each query by
    its normalized correlation with the hidden vector, flips the badly scoring
    ones, and majority-votes all of them. ``noise_stddev``, when given, is the
    standard deviation of Gaussian noise applied to the risk-scale feedback;
    the correlation scale spans [-1, 1] instead of [0, 1], so internally the
    answers receive noise of twice that standard deviation. This is the
    one-cell case of the grid the vary experiments run, and votes in float32,
    so k must stay below 2^24; the correlations are exact integer counts for
    any n.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if noise_stddev is not None and not (math.isfinite(noise_stddev) and noise_stddev >= 0):
        raise ValueError(f"noise_stddev must be finite and >= 0, got {noise_stddev}")
    # _attack_cells checks n and the 2^24 bound on k before it draws anything.
    _, errors, selected = _attack_cells(n, (k,), (noise_stddev or 0.0,), seed)
    return AttackReport(
        final_error=float(errors[0, 0]),
        selected_count=int(selected[0, 0]),
        queries_issued=k,
        feedback_received=k,
    )


def _submit_rows(session: EvaluationSession, block: np.ndarray, labels: np.ndarray,
                 sample: HoldoutSample) -> tuple[np.ndarray, np.ndarray]:
    """Submit packed 0/1 prediction rows as models in one batch; returns risks and releases.

    A row's risk is its mismatch popcount against the packed ``labels`` over
    n, equal to ``np.mean`` of its 0/1 loss vector bit for bit. A mechanism
    that reads loss vectors gets each row's model, unpacked, instead.
    """
    risks = _mismatches(block, labels) / sample.size
    if session.mechanism.needs_loss_vector:
        released = [session.submit(model_from_predictions(row, sample))
                    for row in _unpack(block, sample.size)]
    else:
        released = session.submit_risks(risks, np.full(len(risks), 0.5))
    return risks, np.asarray(released, dtype=float)


def run_random_analyst(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                       k: int, seed: int | tuple[int, ...]) -> tuple[list[float], Trace | None]:
    """Baseline analyst: k random models, no adaptivity."""
    mechanism.check_size(sample.size)
    session = EvaluationSession(mechanism)
    labels = _pack(sample.hidden_labels)
    released = [float(r) for block in _query_blocks(seed, k, sample.size)
                for r in _submit_rows(session, block, labels, sample)[1]]
    trace = session.trace() if mechanism.records_trace else None
    return released, trace


def _vote_weight(rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """One block's pointwise vote: sum(signs) - 2 (signs @ rows).

    ``signs`` holds +1 (count as-is), -1 (count flipped) or 0 (exclude) per
    row. Summed over the blocks, a negative weight means label 1; every
    partial sum is an integer below 2^24, so the float32 product is exact.
    """
    signs = signs.astype(np.float32)
    return signs.sum() - 2.0 * (signs @ rows)


def _selection_signs(answers: np.ndarray, n: int, selection: str, answered) -> np.ndarray:
    """Vote signs from released estimates; the +1 signs are the selected queries.

    ``theorem`` keeps only estimates below 1/2 - 1/sqrt(n); ``direct`` uses
    every answered query, flipping those at or above 1/2. Unanswered queries
    (``answered`` false) are excluded either way.
    """
    if selection == "theorem":
        return ((answers < 0.5 - 1.0 / math.sqrt(n)) & answered).astype(np.int8)
    return np.where(answered, np.where(answers < 0.5, 1, -1), 0).astype(np.int8)


def _check_attack(mechanism: LeaderboardMechanism, sample: HoldoutSample, k: int,
                  selection: str, steps: int = 1) -> None:
    mechanism.check_size(sample.size)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > sample.size:
        raise ValueError(f"attack needs k <= n, got k={k} > n={sample.size}")
    if selection not in ("theorem", "direct"):
        raise ValueError(f"unknown selection mode {selection!r}")
    if mechanism.rounds_remaining() < (k + 1) * steps:
        raise BudgetExhaustedError(f"attack needs {(k + 1) * steps} submissions ({k + 1} queries "
                                   f"x {steps}); mechanism has {mechanism.rounds_remaining()} left")


def majority_attack_vs_mechanism(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                                 k: int, seed: int | tuple[int, ...],
                                 selection: str = "theorem") -> tuple[AttackReport, Trace | None]:
    """Majority attack driven by a mechanism's released estimates.

    Submits k random prediction models, selects by the released values, and
    submits the pointwise majority model as round k+1. ``feedback_received``
    counts the k query rounds whose release differed from the previous one.
    """
    _check_attack(mechanism, sample, k, selection)
    session = EvaluationSession(mechanism)
    labels = _pack(sample.hidden_labels)
    vote = np.zeros(sample.size, dtype=np.float32)
    answers = [np.ones(1)]  # R_0 = 1, so that the first round's change counts
    selected = 0
    for block in _query_blocks(seed, k, sample.size):
        answers.append(_submit_rows(session, block, labels, sample)[1])
        signs = _selection_signs(answers[-1], sample.size, selection, True)
        voting = signs != 0
        vote += _vote_weight(_unpack(block[voting], sample.size), signs[voting])
        selected += int(np.count_nonzero(signs == 1))
    risks, released = _submit_rows(session, _pack(vote < 0.0)[None], labels, sample)
    report = AttackReport(
        final_error=float(risks[0]),
        selected_count=selected,
        queries_issued=k + 1,
        feedback_received=int(np.count_nonzero(np.diff(np.concatenate(answers)))),
        final_released=float(released[0]),
    )
    trace = session.trace() if mechanism.records_trace else None
    return report, trace


def shifted_majority_attack(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                            k: int, alpha: float, seed: int | tuple[int, ...],
                            selection: str = "direct") -> tuple[AttackReport, Trace | None]:
    """Majority attack with every query wrapped in the offset schedule.

    Each random model's loss function becomes an estimator query, so even a
    mechanism that answers plain submissions with silence keeps producing
    feedback; the extracted answers then drive the usual selection-and-vote
    step, and the majority model is submitted as one final estimator query.
    Queries whose schedule exhausts without a trigger carry no information
    and are excluded from the vote.
    """
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)  # checks alpha
    _check_attack(mechanism, sample, k, selection, estimator.steps_per_query)
    labels = sample.hidden_labels.astype(np.float32)  # the rows' dtype: a cheaper compare
    vote = np.zeros(sample.size, dtype=np.float32)
    selected = feedback = 0
    for block in _query_blocks(seed, k, sample.size):
        rows = _unpack(block, sample.size)
        outcomes = [estimator.answer(Query(values=(row != labels).astype(float),
                                           population_mean=0.5)) for row in rows]
        answered = np.array([outcome.triggered for outcome in outcomes])
        signs = _selection_signs(np.array([outcome.answer for outcome in outcomes]),
                                 sample.size, selection, answered)
        vote += _vote_weight(rows, signs)
        selected += int(np.count_nonzero(signs == 1))
        feedback += int(np.count_nonzero(answered))
    final_loss = (vote < 0.0) != labels
    final_outcome = estimator.answer(Query(values=final_loss.astype(float), population_mean=0.5))
    report = AttackReport(
        final_error=float(np.mean(final_loss)),
        selected_count=selected,
        queries_issued=k + 1,
        feedback_received=feedback,
        final_released=final_outcome.answer if final_outcome.triggered else math.nan,
    )
    trace = estimator.session.trace() if mechanism.records_trace else None
    return report, trace
