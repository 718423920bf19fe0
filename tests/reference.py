"""Reference implementations that the fast paths are tested against.

:func:`query_bits` is the query stream unpacked with plain numpy, one 0/1
entry per value. :func:`vstack_majority_attack` is the classic float64
recipe of the vector majority attack: it draws the whole k x n query matrix
that way, scores it in float64 and votes through an explicit ``vstack`` of
kept and flipped rows.

:func:`constructed_step` is one step of the estimator's offset schedule
built as a vector: its loss vector and population risk, each clipped into
[0, 1]. :func:`per_step_answer` is the schedule one session round per step,
an unclamped step's risks from the scalar closed form and a clamped step's
risk from its clipped vector.
:func:`vector_shifted_attack` is the shifted majority attack on float64
vector queries, each answered by :func:`per_step_answer`, with an explicit
+/-1 vote over the whole unpacked query matrix.
"""

import math

import numpy as np

from shakyladder.analysts import HIDDEN_STREAM, NOISE_STREAM, QUERY_STREAM, AttackReport
from shakyladder.audit import EvaluationSession
from shakyladder.mechanisms import BudgetExhaustedError
from shakyladder.noise import Rng
from shakyladder.reduction import AdaptiveEstimator, Query, QueryOutcome


def query_bits(seed, k: int, n: int) -> np.ndarray:
    """The k x n uint8 0/1 query matrix, unpacked from ``Rng.bit_rows``."""
    packed = Rng(seed, QUERY_STREAM).bit_rows(k, n)
    return np.unpackbits(packed.view(np.uint8), axis=1, count=n, bitorder="little")


def vstack_majority_attack(n: int, k: int, noise_stddev: float | None = None,
                           seed: int | tuple[int, ...] = 0) -> AttackReport:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    hidden = (2 * Rng(seed, HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1)
    queries = 2 * query_bits(seed, k, n).astype(np.int8) - 1
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


def constructed_step(estimator, query, i):
    """Step i's loss vector c + (g - i*alpha)/2 and population risk
    (c - i*alpha/2) + population_mean/2, each clipped into [0, 1], and
    whether either was clipped."""
    c, alpha = estimator.c, estimator.alpha
    raw = c + 0.5 * (query.values - i * alpha)
    risk_raw = (c - 0.5 * i * alpha) + 0.5 * query.population_mean
    risk = min(1.0, max(0.0, risk_raw))
    clamped = float(raw.min()) < 0.0 or float(raw.max()) > 1.0 or risk != risk_raw
    return np.clip(raw, 0.0, 1.0), risk, clamped


def _scheduled_risks(estimator, stats, population_mean, i):
    """Step i's empirical risk, population risk and clamp flag, as scalars."""
    mean_g, min_g, max_g = stats
    c, alpha = estimator.c, estimator.alpha
    risk_raw = (c - 0.5 * i * alpha) + 0.5 * population_mean
    risk = min(1.0, max(0.0, risk_raw))
    clamped = (c + 0.5 * (min_g - i * alpha) < 0.0 or c + 0.5 * (max_g - i * alpha) > 1.0
               or risk != risk_raw)
    return c + 0.5 * (mean_g - i * alpha), risk, clamped


def per_step_answer(estimator, query) -> QueryOutcome:
    """``AdaptiveEstimator.answer`` with one ``session`` call per step."""
    mechanism = estimator.session.mechanism
    if mechanism.rounds_remaining() < estimator.steps_per_query:
        raise BudgetExhaustedError(
            f"estimator needs {estimator.steps_per_query} submissions per query; "
            f"mechanism has {mechanism.rounds_remaining()} left"
        )
    c = estimator.c
    values = query.values
    stats = (float(np.mean(values)), float(values.min()), float(values.max()))
    clamped_so_far = False
    for i in range(estimator.steps_per_query):
        risk, population_risk, clamped_i = _scheduled_risks(
            estimator, stats, query.population_mean, i)
        vector, _, _ = constructed_step(estimator, query, i)
        if clamped_i:
            risk = float(np.mean(vector))
        released = float(estimator.session.submit_risks(
            (risk,), (population_risk,), losses=lambda j: vector)[0])
        estimator.total_submissions += 1
        if released < c - estimator.alpha / 2.0:
            answer = 2.0 * ((released - c) + 0.5 * i * estimator.alpha)
            estimator.c = released
            estimator.queries_answered += 1
            return QueryOutcome(
                answer=answer, triggered=True, trigger_index=i,
                r_value=released, c_after=estimator.c,
                clamped=clamped_so_far or clamped_i, no_trigger=False,
                submissions=i + 1,
            )
        clamped_so_far = clamped_so_far or clamped_i
    estimator.queries_answered += 1
    return QueryOutcome(
        answer=1.0, triggered=False, trigger_index=None,
        r_value=math.nan, c_after=estimator.c,
        clamped=clamped_so_far, no_trigger=True,
        submissions=estimator.steps_per_query,
    )


def vector_shifted_attack(mechanism, sample, k: int, alpha: float, seed, selection="direct"):
    """``shifted_majority_attack`` from vector ``Query`` objects and :func:`per_step_answer`.

    Query i is the 0/1 loss of prediction row i against the labels, as a
    float64 vector. Signs: ``direct`` votes with every triggered query, +1
    below 1/2 and -1 otherwise; ``theorem`` keeps the triggered queries below
    1/2 - 1/sqrt(n). The final prediction is 1 where the +/-1 vote of the
    predictions (1 - 2y) is negative.
    """
    n, labels = sample.size, sample.hidden_labels
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)
    predictions = query_bits(seed, k, n)
    outcomes = [per_step_answer(estimator, Query(values=(row != labels).astype(np.float64),
                                                 population_mean=0.5))
                for row in predictions]
    answered = np.array([out.triggered for out in outcomes], dtype=bool)
    answers = np.array([out.answer for out in outcomes])
    if selection == "theorem":
        signs = np.where(answered & (answers < 0.5 - 1.0 / math.sqrt(n)), 1, 0)
    else:
        signs = np.where(answered, np.where(answers < 0.5, 1, -1), 0)
    vote = signs @ (1 - 2 * predictions.astype(np.int64))
    final_loss = ((vote < 0) != labels).astype(np.float64)
    final = per_step_answer(estimator, Query(values=final_loss, population_mean=0.5))
    report = AttackReport(
        final_error=float(np.mean(final_loss)),
        selected_count=int(np.count_nonzero(signs == 1)),
        queries_issued=k + 1,
        feedback_received=int(np.count_nonzero(answered)),
        final_released=final.answer if final.triggered else math.nan,
        clamped_queries=sum(out.clamped for out in outcomes) + final.clamped,
        untriggered_queries=int(np.count_nonzero(~answered)) + (not final.triggered),
    )
    trace = estimator.session.trace() if mechanism.records_trace else None
    return report, trace
