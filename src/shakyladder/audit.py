"""Evaluation oracle: session harness, leaderboard error, and envelope checks.

This module is the only place population risks meet mechanism releases. An
:class:`EvaluationSession` drives a mechanism with scored models, handing the
mechanism nothing but loss vectors or their empirical risks (the
population-minimum oracle being the single sanctioned exception), and
assembles traces with true risks filled in so the error metrics below can be
computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LOSS_TOLERANCE, SubmittedModel, Trace
from .mechanisms import LeaderboardMechanism, MechanismParams

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

    The mechanism sees loss vectors or empirical risks only; when it records
    a trace, this session records the oracle-side population risks so
    :meth:`trace` can produce a fully scored :class:`~shakyladder.core.Trace`.
    A mechanism built with ``record=False`` keeps the session O(1) in memory.
    """

    def __init__(self, mechanism: LeaderboardMechanism):
        if mechanism.round != 0:
            raise ValueError("evaluation sessions must own the mechanism from round 0")
        self.mechanism = mechanism
        self._population_risks: list[float] = []

    def submit(self, model: SubmittedModel) -> float:
        if self.mechanism.needs_population_risk:
            released = self.mechanism.submit(model.loss_vector, model.population_risk)
        else:
            released = self.mechanism.submit(model.loss_vector)
        if self.mechanism.records_trace:
            self._population_risks.append(model.population_risk)
        return released

    def submit_risk(self, risk: float, population_risk: float) -> float:
        """Submit a model known only by its empirical and population risks.

        Both are checked like a :class:`SubmittedModel`'s losses and risk.
        Mechanisms that read the loss vector itself (``needs_loss_vector``)
        take models through :meth:`submit` only.
        """
        # Written so that NaN, which fails every comparison, is rejected too.
        if not -LOSS_TOLERANCE <= risk <= 1.0 + LOSS_TOLERANCE:
            raise ValueError(f"empirical risk must lie in [0, 1], got {risk}")
        if not 0.0 <= population_risk <= 1.0:
            raise ValueError(f"population_risk must lie in [0, 1], got {population_risk}")
        if self.mechanism.needs_population_risk:
            released = self.mechanism.submit_risk(risk, population_risk)
        else:
            released = self.mechanism.submit_risk(risk)
        if self.mechanism.records_trace:
            self._population_risks.append(population_risk)
        return released

    def submit_risks(self, risks, population_risks, stop_below: float | None = None) -> np.ndarray:
        """Submit models known by their risks, in order, as one batch.

        Both arrays are checked like :meth:`submit_risk`'s values before any
        round runs; the mechanism's ``submit_risks`` then stops after the
        first release below ``stop_below``. Returns the releases.
        """
        risks = np.asarray(risks, dtype=float)
        population_risks = np.asarray(population_risks, dtype=float)
        if risks.ndim != 1 or risks.shape != population_risks.shape:
            raise ValueError("risks and population_risks must be vectors of one length")
        # min and max propagate NaN, which fails every comparison and is rejected too.
        if risks.size and not (risks.min() >= -LOSS_TOLERANCE
                               and risks.max() <= 1.0 + LOSS_TOLERANCE):
            raise ValueError(f"empirical risks must lie in [0, 1], got values in "
                             f"[{risks.min()}, {risks.max()}]")
        if risks.size and not (population_risks.min() >= 0.0 and population_risks.max() <= 1.0):
            raise ValueError(f"population risks must lie in [0, 1], got values in "
                             f"[{population_risks.min()}, {population_risks.max()}]")
        mechanism = self.mechanism
        oracle_side = (population_risks,) if mechanism.needs_population_risk else ()
        start = mechanism.round
        try:
            return mechanism.submit_risks(risks, *oracle_side, stop_below=stop_below)
        finally:  # also when the budget ends mid-array: keep the rounds that ran
            if mechanism.records_trace:
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
