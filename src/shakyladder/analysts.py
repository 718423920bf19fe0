"""Adaptive analyst strategies: random models and majority-vote attacks.

The majority attack submits random binary models, keeps the ones the
mechanism scored as lucky, and combines them by pointwise majority vote; the
combined model overfits the holdout while its true risk stays exactly 1/2.
The shifted variant wraps every query in the estimator's offset schedule so
that mechanisms which rarely give feedback (ladders) answer every query.

Every attack reads its queries one bit per entry from ``_query_blocks`` and
folds each block into its vote when read, so memory is O(block * n) for any
k. Each block is drawn by ``Rng.bit_rows`` on the calling thread when it is
read, in order from the stream's own generator, so the blocks are one draw.
Risks and correlations are popcounts of the packed rows, exact for any n.
A block of models reaches the mechanism as one ``session.submit_risks``
batch (``_submit_rows``) or as estimator queries (``Query.from_rows``); a
row is unpacked only where it is read, by a vote (``_attack_cells``,
``_add_votes``), a clamped step or a mechanism that reads loss vectors.
Every vote is an exact integer count of +/-1 votes (label y is 1 - 2y), for
any k; a tie or an empty selection gives label 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .audit import EvaluationSession
from .core import HoldoutSample, Trace, _mismatches, _pack, _unpack
from .mechanisms import BudgetExhaustedError, LeaderboardMechanism
from .noise import Rng, _integer, _non_negative, _unit
from .reduction import AdaptiveEstimator, Query

__all__ = [
    "AttackReport",
    "majority_attack_direct",
    "majority_attack_vs_mechanism",
    "shifted_majority_attack",
    "run_random_analyst",
]

#: Half the entries of a query block, and the most any reader unpacks at once:
#: 1 MB as uint8 bits, 128 KB packed.
BLOCK_ENTRIES = 2**20

#: Rows a uint8 pending count sums before its flush into the integer counts.
PENDING_ROWS = 255

#: Columns per slice of the vote at each k, so that its operands stay in cache.
VOTE_COLUMNS = 8192

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
    ``clamped_queries`` and ``untriggered_queries`` count the shifted attack's
    estimator queries, the final one included, whose offset schedule clamped
    or ran out without a trigger: the reduction's guarantees do not cover
    their answers. Both are 0 for the attacks that send no estimator query.
    """

    final_error: float
    selected_count: int
    queries_issued: int
    feedback_received: int
    final_released: float = math.nan
    clamped_queries: int = 0
    untriggered_queries: int = 0

    def __post_init__(self):
        _unit("final_error", self.final_error)
        if self.selected_count > self.queries_issued:
            raise ValueError("selected_count cannot exceed queries_issued")
        for name in ("clamped_queries", "untriggered_queries"):
            if not 0 <= getattr(self, name) <= self.queries_issued:
                raise ValueError(f"{name} must lie in [0, queries_issued], "
                                 f"got {getattr(self, name)}")


def _query_blocks(seed: int | tuple[int, ...], k: int, n: int):
    """The one reader of the query stream: k random 0/1 rows of n entries.

    Packed ``Rng.bit_rows`` blocks of ``2 * BLOCK_ENTRIES`` entries, but no more rows
    than at n = 64, below which the per-row arrays outweigh the bits, each drawn when it
    is read. A row takes whole raw words, so consecutive blocks continue one draw for any n.
    """
    rows = max(1, 2 * BLOCK_ENTRIES // max(n, 64))
    rng = Rng(seed, QUERY_STREAM)
    return (rng.bit_rows(min(rows, k - start), n) for start in range(0, k, rows))


def _attack_cells(n: int, k_grid, noise_stddevs,
                  seed: int | tuple[int, ...]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The vector majority attack at every (k, noise) cell of one stream.

    Returns the sorted distinct k values and two ``len(k) x len(noise)``
    arrays: each cell's final error and selected (positively answered) query
    count. n, every k and every stddev (a noise level, finite and >= 0) are
    checked before any draw. Query i and its noise are entry i of their
    streams, so a cell equals the attack run alone with its k and noise. Per
    query block a popcount gives the correlations, n - 2 mismatches with the
    hidden vector.
    A query's sign is monotone in the noise scale, so over the L levels in
    ascending scale its positive levels are a prefix (z <= 0) or a suffix
    (z > 0): its threshold group is ``up`` or ``2L+1-up`` for ``up``
    positive levels, and level j is positive on groups j+1 .. L+1+j. A
    segment, the rows of one block up to the next k, has its packed rows
    sorted by group; each group's part is unpacked to uint8 at most
    ``BLOCK_ENTRIES`` entries at a time and summed into the group's uint8
    pending row, flushed into its integer counts before it would hold more
    than ``PENDING_ROWS`` rows. At each k, ``VOTE_COLUMNS``
    columns at a time, a running sum over the groups of counts + pending
    gives level j's bits W on its positive groups, a difference of two
    prefix rows, and T on all groups, the last prefix row; its signed count
    is W - (T - W) and its balance is 2 pos - k for pos positive queries.
    Label 1 is where 2 * count >= balance: the +/-1 vote is not negative
    there. The counts and every step of the vote take the narrowest signed
    type that holds +/-2k (int16 for 64 <= k < 2^14): exact for any k.
    """
    k_sorted = sorted({_integer("k", k, 0) for k in k_grid})
    k_max, n = k_sorted[-1], _integer("n", n, 1)
    stddevs = np.array([_non_negative("noise_stddev", s) for s in noise_stddevs], dtype=np.float64)
    blocks = _query_blocks(seed, k_max, n)
    chunk = min(PENDING_ROWS, max(1, BLOCK_ENTRIES // n))  # rows unpacked at a time
    order, levels = np.argsort(stddevs, kind="stable"), len(stddevs)  # ascending scale
    scales = 2.0 * stddevs[order, None]
    hidden = Rng(seed, HIDDEN_STREAM).bits(n)
    hidden_words, hidden_zero = _pack(hidden), hidden == 0
    z = Rng(seed, NOISE_STREAM).standard_normal(k_max)
    count_type = np.min_scalar_type(-2 * k_max - 1)  # holds every value in [-2k, 2k]
    counts = np.zeros((2 * levels + 2, n), dtype=count_type)
    pending = np.zeros((2 * levels + 2, n), dtype=np.uint8)
    held = [0] * len(counts)  # per group, the rows summed into pending since its flush
    sums = np.empty((len(counts), min(n, VOTE_COLUMNS)), dtype=count_type)  # reused per slice
    positives = np.zeros(levels, dtype=np.int64)
    errors = np.empty((len(k_sorted), levels))
    selected = np.empty((len(k_sorted), levels), dtype=np.int64)
    done = block_end = 0
    for cell, k in enumerate(k_sorted):
        while done < k:
            if done == block_end:
                block = next(blocks)
                answers = (n - 2 * _mismatches(block, hidden_words)) / n
                noise = z[done:done + len(block)]
                positive = answers + scales * noise > 0.0
                up = np.count_nonzero(positive, axis=0)
                groups = np.where(noise > 0.0, 2 * levels + 1 - up, up)
                block_start, block_end = done, done + len(block)
            stop = min(k, block_end)
            rows = slice(done - block_start, stop - block_start)
            part_ends = np.cumsum(np.bincount(groups[rows], minlength=len(held))).tolist()
            packed = block[rows][np.argsort(groups[rows], kind="stable")]
            for group, (begin, end) in enumerate(zip([0, *part_ends], part_ends)):
                for first in range(begin, end, chunk):
                    part = _unpack(packed[first:min(end, first + chunk)], n)
                    if held[group] + len(part) > PENDING_ROWS:
                        counts[group] += pending[group]
                        pending[group], held[group] = 0, 0
                    pending[group] += (part[0] if len(part) == 1
                                       else part.sum(axis=0, dtype=np.uint8))
                    held[group] += len(part)
            positives += np.count_nonzero(positive[:, rows], axis=1)
            done = stop
        balance = (2 * positives - k).astype(count_type)[:, None]
        wrong = np.zeros(levels, dtype=np.int64)
        for start in range(0, n, VOTE_COLUMNS):
            cols = slice(start, min(n, start + VOTE_COLUMNS))
            prefix = np.add(counts[:, cols], pending[:, cols], out=sums[:, :cols.stop - start])
            for below, row in zip(prefix, prefix[1:]):
                row += below
            # in place: level j's bits W on groups j+1 .. L+1+j, its count W - (T - W), twice
            doubled = prefix[levels + 1:2 * levels + 1]
            doubled -= prefix[:levels]
            doubled *= 2
            doubled -= prefix[-1]
            doubled *= 2
            flipped = (doubled < balance) != hidden_zero[cols]
            wrong += [np.count_nonzero(row) for row in flipped]
        errors[cell, order] = wrong / n
        selected[cell, order] = positives
    return k_sorted, errors, selected


def majority_attack_direct(n: int, k: int, noise_stddev: float | None = None,
                           seed: int | tuple[int, ...] = 0) -> AttackReport:
    """Majority attack on raw vectors, following the classic recipe.

    Draws a hidden +/-1 vector and k random +/-1 queries, scores each query by
    its normalized correlation with the hidden vector, flips the badly scoring
    ones, and majority-votes all of them. ``noise_stddev``, when given, is the
    standard deviation of Gaussian noise applied to the risk-scale feedback;
    the correlation scale spans [-1, 1] instead of [0, 1], so internally the
    answers receive noise of twice that standard deviation; None or 0 means
    exact feedback. This is the one-cell case of the grid the vary
    experiments run, which checks n, k and the noise level before any draw;
    its correlations and its vote are exact integer counts for any n and k.
    """
    k = _integer("k", k, 1)
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
    n, equal to ``np.mean`` of its 0/1 loss vector bit for bit; the vector,
    unpacked, is built only for a mechanism that reads it, one round at a time.
    """
    risks = _mismatches(block, labels) / sample.size
    return risks, session.submit_risks(risks, np.full(len(risks), 0.5),
                                        losses=lambda j: _unpack(block[j] ^ labels, sample.size))


def run_random_analyst(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                       k: int, seed: int | tuple[int, ...]) -> tuple[list[float], Trace | None]:
    """Baseline analyst: k random models, no adaptivity."""
    k = _integer("k", k, 0)
    mechanism.check_size(sample.size)
    session = EvaluationSession(mechanism)
    labels = _pack(sample.hidden_labels)
    released = [float(r) for block in _query_blocks(seed, k, sample.size)
                for r in _submit_rows(session, block, labels, sample)[1]]
    trace = session.trace() if mechanism.records_trace else None
    return released, trace


def _add_votes(count: np.ndarray, block: np.ndarray, signs: np.ndarray) -> int:
    """Adds one block's exact vote count to the int64 ``count`` in place; returns its sign sum.

    Rows of sign +1 are added and rows of sign -1 subtracted, in parts of at most
    ``BLOCK_ENTRIES`` entries, each part unpacked and summed on its own in the narrowest
    type that holds its row count. With ``balance`` the sign sums added over all blocks,
    label 1 is where 2 * count > balance: there the vote is negative.
    """
    step = max(1, BLOCK_ENTRIES // len(count))
    for sign, fold in ((1, np.add), (-1, np.subtract)):
        rows = block[signs == sign]
        for part in (rows[first:first + step] for first in range(0, len(rows), step)):
            fold(count, _unpack(part, len(count)).sum(axis=0, dtype=np.min_scalar_type(len(part))),
                 out=count)
    return int(signs.sum())


def _selection_signs(answers: np.ndarray, n: int, selection: str, answered) -> np.ndarray:
    """Vote signs from released estimates; the +1 signs are the selected queries.

    ``theorem`` keeps only estimates below 1/2 - 1/sqrt(n); ``direct`` uses
    every answered query, flipping those at or above 1/2. Unanswered queries
    (``answered`` false) are excluded either way.
    """
    if selection == "theorem":
        return ((answers < 0.5 - 1.0 / math.sqrt(n)) & answered).astype(np.int8)
    return np.where(answered, np.where(answers < 0.5, 1, -1), 0).astype(np.int8)


def _check_attack(mechanism: LeaderboardMechanism, sample: HoldoutSample, k,
                  selection: str, steps: int = 1) -> int:
    """Checks an attack's arguments before anything is drawn; returns k as a Python int."""
    mechanism.check_size(sample.size)
    k = _integer("k", k, 0)
    if k > sample.size:
        raise ValueError(f"attack needs k <= n, got k={k} > n={sample.size}")
    if selection not in ("theorem", "direct"):
        raise ValueError(f"unknown selection mode {selection!r}")
    if mechanism.rounds_remaining() < (k + 1) * steps:
        raise BudgetExhaustedError(f"attack needs {(k + 1) * steps} submissions ({k + 1} queries "
                                   f"x {steps}); mechanism has {mechanism.rounds_remaining()} left")
    return k


def majority_attack_vs_mechanism(mechanism: LeaderboardMechanism, sample: HoldoutSample,
                                 k: int, seed: int | tuple[int, ...],
                                 selection: str = "theorem") -> tuple[AttackReport, Trace | None]:
    """Majority attack driven by a mechanism's released estimates.

    Submits k random prediction models, selects by the released values, and
    submits the pointwise majority model as round k+1. ``feedback_received``
    counts the k query rounds whose release differed from the previous one.
    """
    k = _check_attack(mechanism, sample, k, selection)
    session = EvaluationSession(mechanism)
    labels, count = _pack(sample.hidden_labels), np.zeros(sample.size, dtype=np.int64)
    answers = [np.array([mechanism.last_release])]  # R_0, so that round 1's change counts
    selected = balance = 0
    for block in _query_blocks(seed, k, sample.size):
        answers.append(_submit_rows(session, block, labels, sample)[1])
        signs = _selection_signs(answers[-1], sample.size, selection, True)
        balance += _add_votes(count, block, signs)
        selected += int(np.count_nonzero(signs == 1))
    risks, released = _submit_rows(session, _pack(2 * count > balance)[None], labels, sample)
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
    and are excluded from the vote. Every query is a packed mismatch row
    (``Query.from_rows``), so the estimator schedules it from its popcount.
    The reduction covers at most floor(1/(3 alpha)) queries per session; past
    that budget the attack warns before drawing, runs on, and counts in its
    report the queries whose schedule clamped or found no trigger.
    """
    estimator = AdaptiveEstimator(EvaluationSession(mechanism), alpha)  # checks alpha
    k = _check_attack(mechanism, sample, k, selection, estimator.steps_per_query)
    if k + 1 > estimator.query_budget:
        warnings.warn(f"the shifted attack sends k+1 = {k + 1} estimator queries, more than the "
                      f"reduction's budget floor(1/(3 alpha)) = {estimator.query_budget}; "
                      "clamped_queries and untriggered_queries count the answers it does not "
                      "cover", RuntimeWarning, stacklevel=2)
    labels, count = _pack(sample.hidden_labels), np.zeros(sample.size, dtype=np.int64)
    selected = balance = feedback = clamped = 0
    for block in _query_blocks(seed, k, sample.size):
        outcomes = [estimator.answer(query)
                    for query in Query.from_rows(block ^ labels, sample.size, 0.5)]
        answered = np.array([outcome.triggered for outcome in outcomes])
        signs = _selection_signs(np.array([outcome.answer for outcome in outcomes]),
                                 sample.size, selection, answered)
        balance += _add_votes(count, block, signs)
        selected += int(np.count_nonzero(signs == 1))
        feedback += int(np.count_nonzero(answered))
        clamped += sum(outcome.clamped for outcome in outcomes)
    final = Query.from_bits(_pack(2 * count > balance) ^ labels, sample.size, 0.5)
    final_outcome = estimator.answer(final)
    report = AttackReport(
        final_error=final.summary[0],
        selected_count=selected,
        queries_issued=k + 1,
        feedback_received=feedback,
        final_released=final_outcome.answer if final_outcome.triggered else math.nan,
        clamped_queries=clamped + final_outcome.clamped,
        untriggered_queries=k - feedback + (not final_outcome.triggered),
    )
    trace = estimator.session.trace() if mechanism.records_trace else None
    return report, trace
