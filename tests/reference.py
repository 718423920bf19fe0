"""Reference implementations that the fast paths are tested against.

:func:`query_bits` is the query stream unpacked with plain numpy, one 0/1
entry per value. :func:`vstack_majority_attack` is the classic float64
recipe of the vector majority attack: it draws the whole k x n query matrix
that way, scores it in float64 and votes through an explicit ``vstack`` of
kept and flipped rows.

:func:`per_step_answer` is the estimator's offset schedule one session round
per step, each step's risks from the scalar closed form.
"""

import math

import numpy as np

from shakyladder.analysts import HIDDEN_STREAM, NOISE_STREAM, QUERY_STREAM, AttackReport
from shakyladder.mechanisms import BudgetExhaustedError
from shakyladder.noise import Rng
from shakyladder.reduction import QueryOutcome


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
        try:
            if clamped_i or mechanism.needs_loss_vector:
                model, _ = estimator._constructed_model(query, i)
                released = estimator.session.submit(model)
            else:
                released = estimator.session.submit_risk(risk, population_risk)
        except BudgetExhaustedError as err:
            err.partial = {
                "query_index": estimator.queries_answered,
                "i": i,
                "c": c,
                "submissions": estimator.total_submissions,
            }
            raise
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
