"""General adaptive estimation on top of a leaderboard mechanism.

Turns any leaderboard mechanism into an estimator for adaptively chosen
bounded queries: each query g is wrapped in the offset schedule
f_i = c + (g - i*alpha)/2 for i = 0, 1, ..., and the first release that drops
more than alpha/2 below the threshold c yields the extracted answer
a = 2 (r - c + i*alpha/2). Against an exact running-minimum oracle the
extracted answer equals the query's population mean exactly; against an
accurate mechanism it is accurate to within alpha.

A query carries its summary (mean, min, max), taken once when it is built,
and the schedule reads nothing else; a 0/1 query built from a packed row
takes its summary from the row's popcount and unpacks its values only for
the steps that submit a constructed vector.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass

import numpy as np

from .audit import EvaluationSession
from .core import SubmittedModel, _unpack
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism

__all__ = [
    "Query",
    "QueryOutcome",
    "AdaptiveEstimator",
    "run_estimator_session",
    "write_session_csv",
]


class Query:
    """A bounded function given by its holdout values and true mean.

    ``population_mean`` is the oracle-only expectation of the query under the
    data distribution; like a model's population risk it never reaches the
    mechanism (except through the sanctioned population-minimum oracle).
    ``summary`` is the (mean, min, max) of the values, taken once when the
    query is built; it is all the estimator reads of an unclamped step.
    :meth:`from_bits` builds a 0/1 query from a packed row, its summary from
    the row's popcount; its ``values`` are unpacked on first read and kept.
    Both constructors keep a read-only copy of their input, so a query never
    changes once built.
    """

    __slots__ = ("size", "summary", "population_mean", "_values", "_words")

    def __init__(self, values, population_mean: float):
        vec = np.array(values, dtype=float)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("query values must form a nonempty vector")
        lo, hi = float(vec.min()), float(vec.max())
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (lo >= 0.0 and hi <= 1.0):
            raise ValueError("query values must lie in [0, 1]")
        vec.setflags(write=False)
        self._fill(vec.size, (float(np.mean(vec)), lo, hi), population_mean, vec, None)

    @classmethod
    def from_bits(cls, words, n: int, population_mean: float) -> Query:
        """The 0/1 query whose entry j is bit j of ``words``.

        ``words`` is one row in the ``Rng.bit_rows`` layout: ceil(n/64)
        little-endian uint64 words, the bits past n clear. With c set bits
        the summary is (c/n, min, max); c/n equals ``np.mean`` of the 0/1
        values bit for bit, the integer partial sums being exact.
        """
        n = operator.index(n)
        words = np.array(words)
        if n < 1 or words.dtype != np.dtype("<u8") or words.shape != (-(-n // 64),):
            raise ValueError(f"a packed query of n={n} entries is {-(-n // 64)} little-endian "
                             f"uint64 words, got {words.dtype} of shape {words.shape}")
        bits = int.from_bytes(words.tobytes(), "little")
        if bits >> n:
            raise ValueError(f"a packed query of n={n} entries has bits set past entry n")
        count = bits.bit_count()
        query = cls.__new__(cls)
        words.setflags(write=False)
        query._fill(n, (count / n, 0.0 if count < n else 1.0, 1.0 if count else 0.0),
                    population_mean, None, words)
        return query

    def _fill(self, size, summary, population_mean, values, words) -> None:
        if not 0.0 <= population_mean <= 1.0:
            raise ValueError(f"population_mean must lie in [0, 1], got {population_mean}")
        setattr_ = object.__setattr__  # past the immutable __setattr__ below
        setattr_(self, "size", size)
        setattr_(self, "summary", summary)
        setattr_(self, "population_mean", population_mean)
        setattr_(self, "_values", values)
        setattr_(self, "_words", words)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Query is immutable; cannot set {name!r}")

    @property
    def values(self) -> np.ndarray:
        """The values as a read-only float64 vector."""
        if self._values is None:
            vec = _unpack(self._words, self.size).astype(float)
            vec.setflags(write=False)
            object.__setattr__(self, "_values", vec)
        return self._values


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
        #: Queries per session that the reduction's guarantees cover, floor(1/(3*alpha)).
        self.query_budget = math.floor(1.0 / (3.0 * alpha))
        # i*alpha and 0.5*i*alpha for every step, multiplied in the scalar order.
        steps = np.arange(self.steps_per_query)
        self._offsets = steps * alpha
        self._half_offsets = 0.5 * steps * alpha

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

    def _schedule(self, query: Query) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every step's empirical risk, population risk and clamp flag.

        Closed form of :meth:`_constructed_model` at every step i from the
        query's summary, its mean, min and max, without reading its values.
        The offset map is monotone in each value under rounding, so the min
        and max rows equal each constructed vector's min and max bit for bit
        and clamping is decided exactly; each clamp condition is monotone in
        i, so the unclamped steps form one contiguous run. The empirical risk
        agrees with the constructed vector's mean up to rounding.
        """
        risks, low, high = self.c + 0.5 * (np.array(query.summary)[:, None] - self._offsets)
        risk_raw = (self.c - self._half_offsets) + 0.5 * query.population_mean
        # np.clip's arithmetic without its wrapper; + 0.0: no -0.0, as min/max give
        population_risks = np.minimum(np.maximum(risk_raw, 0.0), 1.0) + 0.0
        clamped = (low < 0.0) | (high > 1.0) | (population_risks != risk_raw)
        return risks, population_risks, clamped

    def answer(self, query: Query) -> QueryOutcome:
        """Run the offset schedule for one query and extract its answer.

        The schedule's risks, population risks and clamp flags come from
        :meth:`_schedule`, which reads the query's summary, not its values.
        The unclamped steps, one contiguous run, go to the mechanism as one
        ``session.submit_risks`` batch that stops at the first release below
        ``c - alpha/2``, the trigger. A clamped step, and every step for a
        mechanism that reads loss vectors (``needs_loss_vector``), submits
        its constructed model through ``session.submit``; only these read
        ``query.values``, so a packed 0/1 query (:meth:`Query.from_bits`) is
        unpacked only there, once.
        """
        mechanism = self.session.mechanism
        mechanism.check_size(query.size)
        if mechanism.rounds_remaining() < self.steps_per_query:
            raise BudgetExhaustedError(
                f"estimator needs {self.steps_per_query} submissions per query; "
                f"mechanism has {mechanism.rounds_remaining()} left"
            )
        c = self.c
        trigger_below = c - self.alpha / 2.0
        risks, population_risks, clamped = self._schedule(query)
        # The unclamped steps are one run, free_from to free_to; both are 0 when every step clamps.
        free_from = int(clamped.argmin())
        free_to = 0 if clamped[free_from] else len(clamped) - int(clamped[::-1].argmin())
        scan_to = 0 if mechanism.needs_loss_vector else free_to
        first_round = mechanism.round
        i = 0
        try:
            while i < self.steps_per_query:
                if free_from <= i < scan_to:
                    released = self.session.submit_risks(
                        risks[i:scan_to], population_risks[i:scan_to], stop_below=trigger_below)
                else:
                    model, _ = self._constructed_model(query, i)
                    released = (self.session.submit(model),)
                i += len(released)
                if released[-1] < trigger_below:
                    break
        except BudgetExhaustedError as err:
            done = mechanism.round - first_round
            err.partial = {
                "query_index": self.queries_answered,
                "i": done,
                "c": c,
                "submissions": self.total_submissions + done,
            }
            raise
        self.total_submissions += i
        self.queries_answered += 1
        if released[-1] < trigger_below:
            r_value = float(released[-1])
            self.c = r_value
            return QueryOutcome(
                answer=2.0 * ((r_value - c) + 0.5 * (i - 1) * self.alpha),
                triggered=True, trigger_index=i - 1, r_value=r_value, c_after=r_value,
                clamped=free_from > 0 or i > free_to, no_trigger=False, submissions=i,
            )
        # Schedule exhausted: possible only for large population means, where
        # answering 1.0 is off by at most 2*alpha. Threshold stays put.
        return QueryOutcome(
            answer=1.0, triggered=False, trigger_index=None,
            r_value=math.nan, c_after=c,
            clamped=free_from > 0 or self.steps_per_query > free_to, no_trigger=True,
            submissions=self.steps_per_query,
        )


def run_estimator_session(mechanism: LeaderboardMechanism, queries, alpha: float) -> list[QueryOutcome]:
    """Answer a batch of queries, enforcing the reduction's budgets.

    At most floor(1/(3*alpha)) queries per session; the total number of
    submissions handed to the mechanism is bounded by 1/alpha^2, which is
    verified after the run.
    """
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)  # checks alpha
    queries = list(queries)
    if len(queries) > estimator.query_budget:
        raise BudgetExhaustedError(
            f"session accepts at most {estimator.query_budget} queries at alpha={alpha}, "
            f"got {len(queries)}"
        )
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
