"""Evaluation oracle: session harness, leaderboard error, and envelope checks.

This module is the only place population risks meet mechanism releases. An
:class:`EvaluationSession` drives a mechanism through one path,
``submit_risks``: each round's empirical risk, plus its loss vector or its
population risk for the mechanisms that read them. Population risks come as
an array or as a callable that builds one; the session builds and checks
them only where they are read, by the population-minimum oracle or for a
recorded trace, and checks them within [0, 1] exactly (the empirical risks up
to ``LOSS_TOLERANCE``) before any round. It assembles traces with true risks
filled in so the error metrics below can be computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOSS_TOLERANCE, SubmittedModel, Trace, empirical_risk
from .mechanisms import LeaderboardMechanism, MechanismParams
from .noise import _unit_array

__all__ = [
    "EvaluationSession",
    "EvalReport",
    "leaderboard_error",
    "envelope_check",
    "faithfulness_audit",
    "error_rate_ratio",
]

class EvaluationSession:
    """Runs models through a mechanism while keeping the information barrier.

    When the mechanism records a trace, this session records the oracle-side
    population risks so :meth:`trace` can produce a fully scored
    :class:`~shakyladder.core.Trace`. A mechanism built with ``record=False``
    keeps the session O(1) in memory.
    """

    def __init__(self, mechanism: LeaderboardMechanism):
        if mechanism.round != 0:
            raise ValueError("evaluation sessions must own the mechanism from round 0")
        self.mechanism = mechanism
        self._population_risks: list[float] = []

    def submit(self, model: SubmittedModel) -> float:
        """One round for a whole model: its size checked, then its risks and vector."""
        self.mechanism.check_size(model.size)
        return float(self.submit_risks((empirical_risk(model),), (model.population_risk,),
                                       losses=(model.loss_vector,))[0])

    def submit_risks(self, risks, population_risks, stop_below: float | None = None,
                     losses=None) -> np.ndarray:
        """Submit models by their risks, one or many, in order; returns the releases.

        The empirical and population risks are checked like a
        :class:`SubmittedModel`'s losses and risk before any round runs; the
        mechanism's ``submit_risks`` then stops after the first release below
        ``stop_below``. ``population_risks`` is an array or a zero-argument
        callable returning one; the callable is called, and its array
        checked, only where population risks are read: by a mechanism that
        reads them (``needs_population_risk``) or for a recorded trace.
        ``losses``, a column with a length, holds each model's loss vector;
        only a mechanism that reads them (``needs_loss_vector``) iterates
        it, and rejects, before any round, a missing column or one shorter
        than ``risks``; it checks each vector before that vector's round, so
        the rounds before a bad one stay.
        """
        mechanism = self.mechanism
        risks = np.asarray(risks, dtype=float)
        lazy = callable(population_risks)
        built = not lazy or mechanism.needs_population_risk or mechanism.records_trace
        if built:
            population_risks = np.asarray(population_risks() if lazy else population_risks,
                                          dtype=float)
        if risks.ndim != 1 or built and risks.shape != population_risks.shape:
            raise ValueError("risks and population_risks must be vectors of one length")
        if risks.size:
            _unit_array("empirical risks", risks, LOSS_TOLERANCE)
            if built:
                _unit_array("population risks", population_risks)
        if not (mechanism.needs_population_risk or mechanism.needs_loss_vector
                or mechanism.records_trace):  # reads and keeps nothing but the risks
            return mechanism.submit_risks(risks, stop_below=stop_below)
        columns = (population_risks.tolist(),) if mechanism.needs_population_risk else ()
        if mechanism.needs_loss_vector:
            if losses is None or len(losses) < len(risks):
                raise ValueError(f"{mechanism.name} reads loss vectors: losses needs one per risk")
            columns += (losses,)
        if not mechanism.records_trace:
            return mechanism.submit_risks(risks, *columns, stop_below=stop_below)
        start = mechanism.round
        try:
            return mechanism.submit_risks(risks, *columns, stop_below=stop_below)
        finally:  # also when the budget ends mid-array: keep the rounds that ran
            self._population_risks.extend(population_risks[:mechanism.round - start].tolist())

    def trace(self) -> Trace:
        return self.mechanism.trace(self._population_risks)


def leaderboard_error(trace: Trace) -> float:
    """max over t of | min_{i <= t} R_D(f_i) - R_t |.

    The gap between each release and the best true risk seen so far; the
    defining quantity every mechanism here is judged by.
    """
    if len(trace) == 0:
        raise ValueError("leaderboard error of an empty trace is undefined")
    risks = trace.population_risks
    if np.isnan(risks).any():
        raise ValueError("trace lacks population risks; run it through an EvaluationSession")
    running_min = np.minimum.accumulate(risks)
    return float(np.max(np.abs(running_min - trace.released)))


@dataclass(frozen=True)
class EvalReport:
    """Audit summary of one trace against one parameter set."""

    lberr: float
    update_count: int
    max_noise: float
    envelope: float
    envelope_satisfied: bool
    faithfulness_violations: int
    worst_faithfulness_deviation: float


def envelope_check(trace: Trace, params: MechanismParams) -> EvalReport:
    """Check lberr <= 18 eps sqrt(B) + lam + 2 L on a randomized-ladder trace.

    B (update count) and L (max noise magnitude) are derived from the trace's
    release and noise columns rather than trusted from mechanism counters.
    """
    if len(trace) == 0:
        raise ValueError("cannot audit an empty trace")
    if np.isnan(trace.noise).all(axis=1).any():
        raise ValueError("trace has rounds without noise records")
    updates = trace.update_count
    max_noise = trace.max_noise_magnitude
    envelope = 18.0 * params.epsilon * math.sqrt(updates) + params.lam + 2.0 * max_noise
    lberr = leaderboard_error(trace)
    violations, worst = faithfulness_audit(trace, params.n)
    return EvalReport(
        lberr=lberr,
        update_count=updates,
        max_noise=max_noise,
        envelope=envelope,
        envelope_satisfied=lberr <= envelope,
        faithfulness_violations=violations,
        worst_faithfulness_deviation=worst,
    )


def faithfulness_audit(trace: Trace, n: int) -> tuple[int, float]:
    """Count update rounds whose release strays from the empirical risk.

    A mechanism is faithful when every release that changes the leaderboard
    sits within 1/(2 sqrt(n)) of the submitted model's empirical risk. Returns
    (violation count, worst deviation over update rounds).
    """
    bound = 1.0 / (2.0 * math.sqrt(n))
    updated = trace.updated
    deviations = np.abs(trace.released[updated] - trace.empirical_risks[updated])
    return int(np.count_nonzero(deviations > bound)), float(deviations.max(initial=0.0))


def error_rate_ratio(trace: Trace, params: MechanismParams) -> float:
    """Observed lberr over the guarantee's rate term (constant factor C).

    Diagnostic only: the guarantee's constant is unspecified, so this ratio
    is tracked for regressions instead of pass/fail thresholds.
    """
    rate = (
        math.log(params.k / params.beta) ** 0.4
        * math.log(params.k * params.n / params.beta) ** 0.2
        / params.n**0.4
    )
    return leaderboard_error(trace) / rate
