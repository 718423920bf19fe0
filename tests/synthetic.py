"""Synthetic mechanisms for exercising the estimator's accuracy transfer.

These perturb the exact running-minimum oracle while keeping its leaderboard
error at or below a chosen bound, so tests can drive the estimator with an
adversarial-but-contract-honoring mechanism. Releases refresh only when a
submission strictly lowers the running minimum (ladder-style), which is the
release discipline of every real mechanism in the package; see the note on
``mode`` for why that matters. :func:`build_trace` assembles hand-written
traces for the audit and trace tests.
"""

import math

import numpy as np

from shakyladder.core import Trace
from shakyladder.mechanisms import LeaderboardMechanism


def build_trace(population_risks, released, empirical=None, draws=None, initial_noise=0.0):
    """Trace from per-round lists; ``draws`` holds each round's noise tuple."""
    draws = draws if draws is not None else [()] * len(released)
    noise = np.array([tuple(d) + (math.nan,) * (3 - len(d)) for d in draws]).reshape(-1, 3)
    return Trace(
        empirical_risks=empirical if empirical is not None else released,
        released=released,
        population_risks=population_risks,
        noise=noise,
        initial_noise=initial_noise,
    )


class PerturbedMinOracle(LeaderboardMechanism):
    """Running-minimum oracle with bounded adversarial release offsets.

    Every release lies within ``bound`` of the true running minimum of
    population risks, so the mechanism's leaderboard error is at most
    ``bound`` by construction. Offsets are drawn fresh at each refresh:

    - mode="nonnegative": offsets uniform in [0, bound];
    - mode="constant": one offset uniform in [-bound, bound] per instance.

    Unrestricted two-sided per-round offsets are deliberately not offered:
    they allow stale releases to dip below a freshly raised threshold and
    falsely trigger the estimator, which breaks the accuracy-transfer bound
    (test_reduction has a constructed demonstration). Both modes here keep
    stale releases at or above the threshold minus half the step, which is
    what real refresh-on-update mechanisms do.
    """

    name = "perturbed-min"
    needs_population_risk = True

    def __init__(self, bound: float, rng, mode: str = "nonnegative", record: bool = True):
        super().__init__(max_rounds=None, record=record)
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if mode not in ("nonnegative", "constant"):
            raise ValueError(f"unknown mode {mode!r}")
        self.bound = bound
        self.mode = mode
        self._rng = rng
        self._true_min = 1.0
        self._released = 1.0
        if mode == "constant":
            self._offset = bound * (2.0 * rng.random() - 1.0)

    def _next_offset(self) -> float:
        if self.mode == "constant":
            return self._offset
        return self.bound * float(self._rng.random())

    def submit_risk(self, risk: float, population_risk: float = None) -> float:
        if population_risk is None:
            raise ValueError("perturbed oracle requires the population risk")
        if population_risk < self._true_min:
            self._true_min = float(population_risk)
            self._released = self._true_min + self._next_offset()
        self._log.add(risk, self._released)
        return self._released


class StaleDipOracle(LeaderboardMechanism):
    """Pathological but contract-honoring oracle for the false-trigger demo.

    Releases the true running minimum plus ``bound`` up to round
    ``dip_round`` (exclusive) and minus ``bound`` from then on. Every release
    stays within ``bound`` of the running minimum, so the leaderboard error
    contract holds, yet timing the dip right after a query boundary lures the
    estimator into a false trigger with an answer that misses by far more
    than the transfer bound. Documents the guarantee's boundary; not a test
    adversary family.
    """

    name = "stale-dip"
    needs_population_risk = True

    def __init__(self, bound: float, dip_round: int, record: bool = True):
        super().__init__(max_rounds=None, record=record)
        self.bound = bound
        self.dip_round = dip_round
        self._true_min = 1.0

    def submit_risk(self, risk: float, population_risk: float = None) -> float:
        self._true_min = min(self._true_min, float(population_risk))
        offset = self.bound if self._log.rounds < self.dip_round else -self.bound
        released = self._true_min + offset
        self._log.add(risk, released)
        return released
