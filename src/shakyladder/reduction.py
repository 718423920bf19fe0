"""General adaptive estimation on top of a leaderboard mechanism.

Turns any leaderboard mechanism into an estimator for adaptively chosen
bounded queries: each query g is wrapped in the offset schedule
f_i = c + (g - i*alpha)/2 for i = 0, 1, ..., and the first release that drops
more than alpha/2 below the threshold c yields the extracted answer
a = 2 (r - c + i*alpha/2). Against an exact running-minimum oracle the
extracted answer equals the query's population mean exactly; against an
accurate mechanism it is accurate to within alpha.

A query carries its summary (mean, min, max), taken once when it is built;
the schedule bounds its unclamped run from it in closed form. Every step
goes through ``session.submit_risks``, the run as one batch and each clamped
step alone, and the run's population risks and a step's loss vector are
built only where they are read: the population risks for the
population-minimum oracle and for recorded traces, and the loss vectors for
mechanisms that read them; a packed 0/1 query unpacks only for clamped steps
and for those mechanisms.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .audit import EvaluationSession
from .core import _fmt, _LazyRows, _readonly_copy, _unpack, clamp_release
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism
from .noise import _integer, _unit, _unit_array

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
    :meth:`from_rows` builds 0/1 queries from packed rows, and
    :meth:`from_bits` one, each summary from its row's popcount; their
    ``values`` are unpacked on first read and kept. Every constructor keeps
    a read-only copy of its input, so a query never changes once built, and
    checks the values and ``population_mean`` within [0, 1] once per call.
    """

    __slots__ = ("size", "summary", "population_mean", "_values", "_words")

    def __init__(self, values, population_mean: float):
        vec = _readonly_copy(values, float)
        lo, hi = _unit_array("query values", vec)
        _unit("population_mean", population_mean)
        self._fill(vec.size, (float(np.mean(vec)), lo, hi), population_mean, vec, None)

    @classmethod
    def from_bits(cls, words, n: int, population_mean: float) -> Query:
        """The 0/1 query whose entry j is bit j of ``words``, one row of :meth:`from_rows`."""
        return cls.from_rows(np.asarray(words)[None], n, population_mean)[0]

    @classmethod
    def from_rows(cls, block, n: int, population_mean: float) -> list[Query]:
        """One 0/1 query per row of ``block``, entry j of a query being bit j of its row.

        Rows are in the ``Rng.bit_rows`` layout: ceil(n/64) little-endian
        uint64 words, the bits past n clear. With c set bits the summary is
        (c/n, min, max); c/n equals ``np.mean`` of the 0/1 values bit for bit.
        One popcount covers the block; the queries share one read-only copy.
        """
        n = _integer("n", n)
        _unit("population_mean", population_mean)
        block = _readonly_copy(block)
        if n < 1 or block.dtype != np.dtype("<u8") or block.shape[1:] != (-(-n // 64),):
            raise ValueError(f"a packed query of n={n} entries is {-(-n // 64)} little-endian "
                             f"uint64 words, got {block.dtype} of shape {block.shape[1:]}")
        if n % 64 and (block[:, -1] >> np.uint64(n % 64)).any():
            raise ValueError(f"a packed query of n={n} entries has bits set past entry n")
        return [cls.__new__(cls)._fill(n, (count / n, 0.0 if count < n else 1.0,
                                           1.0 if count else 0.0), population_mean, None, words)
                for words, count in zip(block, np.bitwise_count(block).sum(axis=1).tolist())]

    def _fill(self, size, summary, population_mean, values, words) -> Query:
        setattr_ = object.__setattr__  # past the immutable __setattr__ below
        setattr_(self, "size", size)
        setattr_(self, "summary", summary)
        setattr_(self, "population_mean", population_mean)
        setattr_(self, "_values", values)
        setattr_(self, "_words", words)
        return self

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


class QueryOutcome(NamedTuple):
    """Result of answering one query through the offset schedule.

    ``clamped`` marks queries where some constructed loss value (or its
    population risk) had to be clipped into [0, 1] at or before the trigger
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
        #: i * (0.5*alpha) for i below the longest run's end, read-only; grown only
        #: when a run reaches past it, so construction builds no per-step row.
        self._half_offsets = np.empty(0)

    def _unclamped_run(self, query: Query) -> tuple[int, int, np.ndarray, Callable[[], np.ndarray]]:
        """The unclamped steps, start to stop, with their risks and a callable that
        builds their population risks, for the session to call where they are read.

        Step i's constructed loss vector is c + (g - i*alpha)/2 and its
        population risk (c - i*alpha/2) + population_mean/2; the step clamps
        where c + (min - i*alpha)/2 < 0, c + (max - i*alpha)/2 > 1 or the
        population risk leaves [0, 1], the first two exactly as the vector's
        min and max do. Each condition is monotone in i, so the run starts
        where both upper ones hold and stops where either lower one does (0, 0
        when every step clamps), each bound guessed in real arithmetic, then
        stepped to where its float expression turns. The risks come from the
        query's summary and match the vectors' means up to rounding; both rows
        read the run's offsets i*alpha/2 as one slice of the estimator's
        offset row, regrown only when the run reaches past its end.
        """
        c, alpha, steps = self.c, self.alpha, self.steps_per_query
        mean, low, high = query.summary
        half_mean = 0.5 * query.population_mean + 0.0  # + 0.0: no -0.0 risk, as clipping gives
        start = _first(lambda i: (not c + 0.5 * (high - i * alpha) > 1.0
                                  and (c - 0.5 * i * alpha) + half_mean <= 1.0),
                       max(2.0 * c + high - 2.0, 2.0 * (c + half_mean - 1.0)) / alpha, steps)
        stop = _first(lambda i: (c + 0.5 * (low - i * alpha) < 0.0
                                 or (c - 0.5 * i * alpha) + half_mean < 0.0),
                      min(2.0 * c + low, 2.0 * (c + half_mean)) / alpha, steps)
        start, stop = (start, stop) if start < stop else (0, 0)
        # 0.5*i*alpha, half of i*alpha: halving is exact for normal floats, so 0.5 * (mean
        # - i*alpha) is 0.5 * mean less it bit for bit (a subnormal mean is absorbed either way)
        if stop > len(self._half_offsets):
            row = np.arange(stop, dtype=float)
            row *= 0.5 * alpha
            row.setflags(write=False)
            self._half_offsets = row
        half_offsets = self._half_offsets[start:stop]
        risks = 0.5 * mean - half_offsets
        risks += c  # in place: c + (0.5 * mean - half_offsets), and one array fewer
        return start, stop, risks, lambda: (c - half_offsets) + half_mean

    def answer(self, query: Query) -> QueryOutcome:
        """Run the offset schedule for one query and extract its answer.

        Every step goes through ``session.submit_risks``, which stops at the
        trigger, the first release below ``c - alpha/2``: the unclamped run
        (:meth:`_unclamped_run`) as one batch, and each clamped step as a
        batch of one, its vector and population risk clipped into [0, 1] and
        its risk the clipped vector's mean. Loss vectors go as a lazy column
        and the run's population risks as a callable, each built only where
        the session reads it.
        """
        session, mechanism = self.session, self.session.mechanism
        mechanism.check_size(query.size)
        if mechanism.rounds_remaining() < self.steps_per_query:
            raise BudgetExhaustedError(
                f"estimator needs {self.steps_per_query} submissions per query; "
                f"mechanism has {mechanism.rounds_remaining()} left"
            )
        c, alpha = self.c, self.alpha
        trigger_below = c - alpha / 2.0
        free_from, free_to, risks, population_risks = self._unclamped_run(query)
        first_round = mechanism.round
        i = 0
        try:
            while i < self.steps_per_query:
                if i == free_from < free_to:  # the unclamped run, steps free_from to free_to
                    losses = _LazyRows(_step_vector, (query, c, alpha), free_from, free_to)
                    released = session.submit_risks(risks, population_risks, trigger_below, losses)
                else:  # one clamped step
                    vector = np.clip(_step_vector(query, c, alpha, i), 0.0, 1.0)
                    population_risk = (c - 0.5 * i * alpha) + 0.5 * query.population_mean
                    released = session.submit_risks(
                        (float(np.mean(vector)),), (clamp_release(population_risk),),
                        trigger_below, (vector,))
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
        clamped = free_from > 0 or i > free_to
        # fields by position, in QueryOutcome's order: answer, triggered, trigger_index,
        # r_value, c_after, clamped, no_trigger, submissions
        if released[-1] < trigger_below:
            self.c = r_value = float(released[-1])
            return QueryOutcome(2.0 * ((r_value - c) + 0.5 * (i - 1) * alpha), True, i - 1,
                                r_value, r_value, clamped, False, i)
        # Without a trigger the schedule ran out, possible only for large population
        # means; answering 1.0 is then off by at most 2*alpha, and c stays put.
        return QueryOutcome(1.0, False, None, math.nan, c, clamped, True, i)


def _step_vector(query: Query, c: float, alpha: float, i: int) -> np.ndarray:
    """Step i's constructed loss vector c + (g - i*alpha)/2, unclipped."""
    return c + 0.5 * (query.values - i * alpha)


def _first(holds, guess: float, stop: int) -> int:
    """The least i in [0, stop) where ``holds``, false and then true in i, is
    true, else stop; searched from ``guess``, where it turns in real arithmetic."""
    i = stop if not guess < stop else int(guess) + 1 if guess >= 0.0 else 0
    while i > 0 and holds(i - 1):
        i -= 1
    while i < stop and not holds(i):
        i += 1
    return i


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
            writer.writerow([idx, "" if out.trigger_index is None else out.trigger_index,
                             _fmt(out.r_value), _fmt(out.answer), _fmt(out.c_after),
                             int(out.clamped), int(out.no_trigger)])
