"""Adaptive analyst strategies: random streams and majority-vote attacks.

The majority attack submits random binary models, keeps the ones the
mechanism scored as lucky, and combines them by pointwise majority vote; the
combined model overfits the holdout while its true risk stays exactly 1/2.
The shifted variant wraps every query in the estimator's offset schedule so
that mechanisms which rarely give feedback (ladders) are forced to answer
each query anyway.

Internally the attacks work in the +/-1 encoding (label y corresponds to
1 - 2y); ties in the vote resolve to +1, i.e. label 0, and the majority over
an empty selection is the all-+1 prediction.

The vector attack has one implementation, ``_attack_cells``, which reads a
whole (k, noise) grid off one pass over the query stream; the vary
experiments use it and :func:`majority_attack_direct` is its one-cell case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audit import EvaluationSession
from .core import HoldoutSample, SubmittedModel, Trace, empirical_risk, model_from_predictions
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism
from .noise import Rng
from .reduction import AdaptiveEstimator, Query

__all__ = [
    "AttackReport",
    "majority_attack_direct",
    "majority_attack_vs_mechanism",
    "shifted_majority_attack",
    "random_prediction_models",
    "run_random_analyst",
]

#: Vote and correlation sums run in float32, exact for integers below 2^24.
FLOAT32_EXACT = 2**24

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


def _attack_cells(n: int, k_grid, noise_stddevs, seed: int | tuple[int, ...],
                  block_rows: int | None = None) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The vector majority attack at every (k, noise) cell of one stream.

    Returns the sorted distinct k values and two ``len(k) x len(noise)``
    arrays: each cell's final error and selected (positively answered) query
    count. Query i and its noise are entry i of their streams, so a cell
    equals the attack run alone with its k and noise. The queries are read
    once, in blocks of ``block_rows`` rows, a multiple of 8 so that blocks
    continue one draw; results do not depend on it. Per block one product
    gives the correlations and one folds the signed rows of every noise
    level into a ``len(noise) x n`` vote, read off at the k boundaries; no
    k x n matrix is held. With 0/1 query bits b and signs s the vote is
    sum_i s_i (2 b_i - 1), negative exactly where 2 (s @ b) < 2 pos - k.
    Every sum is an integer below 2^24, so the float32 products are exact.
    """
    k_sorted = sorted(set(int(k) for k in k_grid))
    k_max = k_sorted[-1]
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k_sorted[0] < 0:
        raise ValueError(f"k values must be >= 0, got {k_sorted[0]}")
    if max(n, k_max) >= FLOAT32_EXACT:
        raise ValueError(f"n={n} and k={k_max} must stay below 2^24, where the attack's "
                         "float32 sums stop being exact")
    # About 2^20 entries per block by default: a few MB, so the block is still
    # in cache when the vote product reads it again.
    block = max(8, (2**20 // n) // 8 * 8) if block_rows is None else block_rows
    if block < 8 or block % 8:
        raise ValueError(f"block_rows must be a positive multiple of 8, got {block}")
    scales = 2.0 * np.asarray(noise_stddevs, dtype=np.float64)[:, None]
    hidden = 2.0 * Rng(seed, HIDDEN_STREAM).bits(n).astype(np.float32) - 1.0
    hidden_negative = hidden < 0.0
    hidden_sum = hidden.sum()
    z = Rng(seed, NOISE_STREAM).standard_normal(k_max)
    queries = Rng(seed, QUERY_STREAM)
    vote = np.zeros((scales.shape[0], n), dtype=np.float32)
    positives = np.zeros(scales.shape[0], dtype=np.int64)
    errors = np.empty((len(k_sorted), scales.shape[0]))
    selected = np.empty((len(k_sorted), scales.shape[0]), dtype=np.int64)
    done = block_end = 0
    for cell, k in enumerate(k_sorted):
        while done < k:
            if done == block_end:
                bits = queries.bits((min(block, k_max - done), n)).astype(np.float32)
                answers = (2.0 * (bits @ hidden) - hidden_sum).astype(np.float64) / n
                positive = answers + scales * z[done:done + len(bits)] > 0.0
                signs = np.where(positive, np.float32(1.0), np.float32(-1.0))
                block_start, block_end = done, done + len(bits)
            stop = min(k, block_end)
            rows = slice(done - block_start, stop - block_start)
            vote += signs[:, rows] @ bits[rows]
            positives += np.count_nonzero(positive[:, rows], axis=1)
            done = stop
        flipped = (2.0 * vote < (2 * positives - k)[:, None]) != hidden_negative
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
    so n and k must stay below 2^24.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if noise_stddev is not None and not (math.isfinite(noise_stddev) and noise_stddev >= 0):
        raise ValueError(f"noise_stddev must be finite and >= 0, got {noise_stddev}")
    # _attack_cells checks n and the 2^24 bound before it draws anything.
    _, errors, selected = _attack_cells(n, (k,), (noise_stddev or 0.0,), seed)
    return AttackReport(
        final_error=float(errors[0, 0]),
        selected_count=int(selected[0, 0]),
        queries_issued=k,
        feedback_received=k,
    )


def random_prediction_models(sample: HoldoutSample, count: int,
                             seed: int | tuple[int, ...]) -> list[SubmittedModel]:
    """Independent uniform binary prediction models over the holdout."""
    preds = Rng(seed, QUERY_STREAM).bits((count, sample.size))
    return [model_from_predictions(preds[i], sample) for i in range(count)]


def run_random_analyst(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                       k: int, seed: int | tuple[int, ...]) -> tuple[list[float], Trace | None]:
    """Baseline analyst: k random models, no adaptivity."""
    session = EvaluationSession(mechanism)
    released = session.submit_all(random_prediction_models(sample, k, seed))
    trace = session.trace() if mechanism.records_trace else None
    return released, trace


def _majority_prediction(predictions: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Signed pointwise vote in the +/-1 encoding, returned as 0/1 labels.

    ``signs`` holds +1 (count as-is), -1 (count flipped) or 0 (exclude) per
    query. Vote weight >= 0 maps to +1, i.e. label 0. With 0/1 predictions p
    the weight is sum(signs) - 2 (signs @ p) over the counted rows, and the
    float32 product is exact: every partial sum is an integer of magnitude
    at most the query count, which stays below 2^24.
    """
    if max(predictions.shape, default=0) >= FLOAT32_EXACT:
        raise ValueError(f"vote shape {predictions.shape} reaches 2^24, where float32 "
                         "sums stop being exact")
    counted = signs != 0
    if predictions.size == 0 or not np.any(counted):
        return np.zeros(predictions.shape[1] if predictions.ndim == 2 else 0, dtype=np.int8)
    kept = signs[counted].astype(np.float32)
    weights = kept.sum() - 2.0 * (kept @ predictions[counted])
    return (weights < 0).astype(np.int8)


def _selection_signs(answers: np.ndarray, n: int, selection: str,
                     answered: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Vote signs from released estimates, plus the selected-query count.

    ``theorem`` keeps only estimates below 1/2 - 1/sqrt(n); ``direct`` uses
    every answered query, flipping those at or above 1/2. Unanswered queries
    (``answered`` false) are excluded either way.
    """
    if selection == "theorem":
        mask = answers < 0.5 - 1.0 / math.sqrt(n)
        if answered is not None:
            mask &= answered
        return mask.astype(np.int8), int(np.count_nonzero(mask))
    if selection == "direct":
        signs = np.where(answers < 0.5, 1, -1).astype(np.int8)
        if answered is not None:
            signs = np.where(answered, signs, 0).astype(np.int8)
        return signs, int(np.count_nonzero(signs == 1))
    raise ValueError(f"unknown selection mode {selection!r}")


def majority_attack_vs_mechanism(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                                 k: int, seed: int | tuple[int, ...],
                                 selection: str = "theorem") -> tuple[AttackReport, Trace | None]:
    """Majority attack driven by a mechanism's released estimates.

    Submits k random prediction models, selects by the released values, and
    submits the pointwise majority model as round k+1. ``feedback_received``
    counts the k query rounds whose release differed from the previous one.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > sample.size:
        raise ValueError(f"attack needs k <= n, got k={k} > n={sample.size}")
    session = EvaluationSession(mechanism)
    preds = Rng(seed, QUERY_STREAM).bits((k, sample.size))
    answers = np.asarray(session.submit_all(model_from_predictions(p, sample) for p in preds))
    signs, selected = _selection_signs(answers, sample.size, selection)
    majority = model_from_predictions(_majority_prediction(preds, signs), sample)
    final_released = session.submit(majority)
    feedback = int(np.count_nonzero(np.diff(np.concatenate(([1.0], answers)))))
    report = AttackReport(
        final_error=empirical_risk(majority),
        selected_count=selected,
        queries_issued=k + 1,
        feedback_received=feedback,
        final_released=final_released,
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
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > sample.size:
        raise ValueError(f"attack needs k <= n, got k={k} > n={sample.size}")
    steps = math.ceil(1.0 / alpha)
    needed = (k + 1) * steps
    if mechanism.rounds_remaining() < needed:
        raise BudgetExhaustedError(
            f"shifted attack needs {needed} submissions ({k + 1} queries x {steps}); "
            f"mechanism has {mechanism.rounds_remaining()} left"
        )
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)
    preds = Rng(seed, QUERY_STREAM).bits((k, sample.size))
    answers = np.empty(k)
    answered = np.empty(k, dtype=bool)
    for i in range(k):
        loss = preds[i] != sample.hidden_labels
        outcome = estimator.answer(Query(values=loss.astype(float), population_mean=0.5))
        answers[i] = outcome.answer
        answered[i] = outcome.triggered
    signs, selected = _selection_signs(answers, sample.size, selection, answered)
    majority = _majority_prediction(preds, signs)
    final_loss = majority != sample.hidden_labels
    final_outcome = estimator.answer(Query(values=final_loss.astype(float), population_mean=0.5))
    report = AttackReport(
        final_error=float(np.mean(final_loss)),
        selected_count=selected,
        queries_issued=k + 1,
        feedback_received=int(np.count_nonzero(answered)),
        final_released=final_outcome.answer if final_outcome.triggered else math.nan,
    )
    trace = estimator.session.trace() if mechanism.records_trace else None
    return report, trace
