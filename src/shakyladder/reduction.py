"""General adaptive estimation on top of a leaderboard mechanism.

Turns any leaderboard mechanism into an estimator for adaptively chosen
bounded queries: each query g is wrapped in the offset schedule
f_i = c + (g - i*alpha)/2 for i = 0, 1, ..., and the first release that drops
more than alpha/2 below the threshold c yields the extracted answer
a = 2 (r - c + i*alpha/2). Against an exact running-minimum oracle the
extracted answer equals the query's population mean exactly; against an
accurate mechanism it is accurate to within alpha.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .audit import EvaluationSession
from .core import SubmittedModel
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism

__all__ = [
    "Query",
    "QueryOutcome",
    "AdaptiveEstimator",
    "run_estimator_session",
    "write_session_csv",
]


@dataclass(frozen=True)
class Query:
    """A bounded function given by its holdout values and true mean.

    ``population_mean`` is the oracle-only expectation of the query under the
    data distribution; like a model's population risk it never reaches the
    mechanism (except through the sanctioned population-minimum oracle).
    """

    values: np.ndarray
    population_mean: float

    def __post_init__(self):
        vec = np.asarray(self.values, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("query values must form a nonempty vector")
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (float(vec.min()) >= 0.0 and float(vec.max()) <= 1.0):
            raise ValueError("query values must lie in [0, 1]")
        if not 0.0 <= self.population_mean <= 1.0:
            raise ValueError(f"population_mean must lie in [0, 1], got {self.population_mean}")
        vec.setflags(write=False)
        object.__setattr__(self, "values", vec)


@dataclass(frozen=True)
class QueryOutcome:
    """Result of answering one query through the offset schedule.

    ``clamped`` marks queries where some constructed loss value (or its
    analytic risk) had to be clipped into [0, 1] at or before the trigger
    round; exactness guarantees do not cover those. ``no_trigger`` marks the
    fallback answer 1.0 returned when the schedule exhausts, which can only
    happen for population means above 1 - 2*alpha and errs by at most
    2*alpha.
    """

    answer: float
    triggered: bool
    trigger_index: int | None
    r_value: float
    c_after: float
    clamped: bool
    no_trigger: bool
    submissions: int


class AdaptiveEstimator:
    """Answers adaptively chosen queries through a leaderboard mechanism.

    The threshold c starts at 1/2 and is lowered to the triggering release
    after each answered query; it is fixed for the duration of a single
    query's schedule.
    """

    def __init__(self, session: EvaluationSession, alpha: float):
        if not 0.0 < alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
        self.session = session
        self.alpha = alpha
        self.c = 0.5
        self.queries_answered = 0
        self.total_submissions = 0
        self.steps_per_query = math.ceil(1.0 / alpha)

    def _constructed_model(self, query: Query, i: int) -> tuple[SubmittedModel, bool]:
        raw = self.c + 0.5 * (query.values - i * self.alpha)
        lo = float(raw.min())
        hi = float(raw.max())
        clamped = lo < 0.0 or hi > 1.0
        values = np.clip(raw, 0.0, 1.0) if clamped else raw
        risk_raw = (self.c - 0.5 * i * self.alpha) + 0.5 * query.population_mean
        risk = min(1.0, max(0.0, risk_raw))
        clamped = clamped or (risk != risk_raw)
        return SubmittedModel(loss_vector=values, population_risk=risk), clamped

    def _scheduled_risks(self, stats: tuple[float, float, float], population_mean: float,
                         i: int) -> tuple[float, float, bool]:
        """Closed form of :meth:`_constructed_model` from the query's (mean, min, max).

        Returns the empirical and population risk of the i-th constructed
        model and whether it clamps. The offset map is monotone in each value
        under rounding, so the bounds below equal the constructed vector's
        min and max bit for bit; the empirical risk agrees with the vector's
        mean up to rounding.
        """
        mean_g, min_g, max_g = stats
        c, alpha = self.c, self.alpha
        risk_raw = (c - 0.5 * i * alpha) + 0.5 * population_mean
        risk = min(1.0, max(0.0, risk_raw))
        clamped = (c + 0.5 * (min_g - i * alpha) < 0.0 or c + 0.5 * (max_g - i * alpha) > 1.0
                   or risk != risk_raw)
        return c + 0.5 * (mean_g - i * alpha), risk, clamped

    def answer(self, query: Query) -> QueryOutcome:
        """Run the offset schedule for one query and extract its answer.

        Each step submits the constructed model's empirical risk, which takes
        O(1) work after one O(n) pass over the query. The constructed loss
        vector is built only for a step that clamps or for a mechanism that
        reads loss vectors (``needs_loss_vector``).
        """
        mechanism = self.session.mechanism
        if mechanism.rounds_remaining() < self.steps_per_query:
            raise BudgetExhaustedError(
                f"estimator needs {self.steps_per_query} submissions per query; "
                f"mechanism has {mechanism.rounds_remaining()} left"
            )
        c = self.c
        values = query.values
        stats = (float(np.mean(values)), float(values.min()), float(values.max()))
        clamped_so_far = False
        for i in range(self.steps_per_query):
            risk, population_risk, clamped_i = self._scheduled_risks(
                stats, query.population_mean, i)
            try:
                if clamped_i or mechanism.needs_loss_vector:
                    model, _ = self._constructed_model(query, i)
                    released = self.session.submit(model)
                else:
                    released = self.session.submit_risk(risk, population_risk)
            except BudgetExhaustedError as err:
                err.partial = {
                    "query_index": self.queries_answered,
                    "i": i,
                    "c": c,
                    "submissions": self.total_submissions,
                }
                raise
            self.total_submissions += 1
            if released < c - self.alpha / 2.0:
                answer = 2.0 * ((released - c) + 0.5 * i * self.alpha)
                self.c = released
                self.queries_answered += 1
                return QueryOutcome(
                    answer=answer, triggered=True, trigger_index=i,
                    r_value=released, c_after=self.c,
                    clamped=clamped_so_far or clamped_i, no_trigger=False,
                    submissions=i + 1,
                )
            clamped_so_far = clamped_so_far or clamped_i
        # Schedule exhausted: possible only for large population means, where
        # answering 1.0 is off by at most 2*alpha. Threshold stays put.
        self.queries_answered += 1
        return QueryOutcome(
            answer=1.0, triggered=False, trigger_index=None,
            r_value=math.nan, c_after=self.c,
            clamped=clamped_so_far, no_trigger=True,
            submissions=self.steps_per_query,
        )


def run_estimator_session(mechanism: LeaderboardMechanism, queries, alpha: float) -> list[QueryOutcome]:
    """Answer a batch of queries, enforcing the reduction's budgets.

    At most floor(1/(3*alpha)) queries per session; the total number of
    submissions handed to the mechanism is bounded by 1/alpha^2, which is
    verified after the run.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    queries = list(queries)
    query_budget = math.floor(1.0 / (3.0 * alpha))
    if len(queries) > query_budget:
        raise BudgetExhaustedError(
            f"session accepts at most {query_budget} queries at alpha={alpha}, "
            f"got {len(queries)}"
        )
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)
    outcomes = [estimator.answer(query) for query in queries]
    if estimator.total_submissions > 1.0 / alpha**2:
        raise RuntimeError(
            f"submission accounting broken: {estimator.total_submissions} > 1/alpha^2"
        )
    return outcomes


def write_session_csv(outcomes, path) -> None:
    """Session log: one row per query with trigger and flag columns."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["query_index", "i_triggered", "r_value", "a_value", "c_after",
             "clamped", "no_trigger"]
        )
        for idx, out in enumerate(outcomes):
            writer.writerow([
                idx,
                "" if out.trigger_index is None else out.trigger_index,
                format(out.r_value, ".17g"),
                format(out.answer, ".17g"),
                format(out.c_after, ".17g"),
                int(out.clamped),
                int(out.no_trigger),
            ])
