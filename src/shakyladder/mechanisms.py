"""Leaderboard mechanisms: the randomized ladder, deterministic baselines,
and scoring oracles.

Every mechanism consumes loss vectors and returns one released estimate per
round, starting from the initial estimate R_0 = 1. All but the
parameter-free ladder read a loss vector only through its mean, so their
decision logic lives in ``submit_risk`` and ``submit`` reduces a vector to
its empirical risk first. Released values are never clamped to [0, 1]
(see :func:`~shakyladder.core.clamp_release`). The population-minimum
oracle is the one mechanism allowed to read true risks and exists only
behind the audit-side evaluation interface.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .core import Trace
from .noise import Rng, gaussian, laplace

__all__ = [
    "ParameterRegimeError",
    "BudgetExhaustedError",
    "MechanismParams",
    "LadderConfig",
    "shaky_params",
    "ShakyLadder",
    "Ladder",
    "ParameterFreeLadder",
    "ExactEmpiricalOracle",
    "NoisyEmpiricalOracle",
    "PopulationMinOracle",
    "make_mechanism",
    "MECHANISM_NAMES",
]

#: Sub-stream tag for a mechanism's internal noise draws.
MECHANISM_STREAM = 29


class ParameterRegimeError(ValueError):
    """Raised when derived parameters leave the regime the guarantees need."""


class BudgetExhaustedError(RuntimeError):
    """Raised when a mechanism or estimator has no submission budget left."""

    def __init__(self, message: str, partial: object | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class MechanismParams:
    """Parameter tuple (n, k, beta, delta, epsilon, lam, sigma).

    The derived fields follow from (n, k, beta) alone:

        delta = beta / (k n)
        epsilon = (ln(k/beta) sqrt(ln(1/delta)) / n)^(3/5)
        sigma = sqrt(ln(1/delta)) / (epsilon n)
        lam = 4 ln(4k/beta) sigma

    with natural logarithms throughout. Use :func:`shaky_params` to compute
    and validate them; direct construction is open for tests that need
    off-regime values.
    """

    n: int
    k: int
    beta: float
    delta: float
    epsilon: float
    lam: float
    sigma: float

    def validate(self) -> None:
        if not 0.0 < self.epsilon < 1.0 / 3.0:
            raise ParameterRegimeError(
                f"epsilon must lie in (0, 1/3): got epsilon={self.epsilon:.6g} "
                f"(n={self.n}, k={self.k}, beta={self.beta})"
            )
        if not 0.0 < self.delta < self.epsilon / 4.0:
            raise ParameterRegimeError(
                f"delta must lie in (0, epsilon/4): got delta={self.delta:.6g}, "
                f"epsilon/4={self.epsilon / 4.0:.6g}"
            )


def _regime_params(n: int, k: int, beta: float) -> MechanismParams:
    """Derive and validate the randomized-ladder parameters without warning."""
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be positive, got n={n}, k={k}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    delta = beta / (k * n)
    epsilon = (math.log(k / beta) * math.sqrt(math.log(1.0 / delta)) / n) ** 0.6
    sigma = math.sqrt(math.log(1.0 / delta)) / (epsilon * n)
    lam = 4.0 * math.log(4.0 * k / beta) * sigma
    params = MechanismParams(
        n=int(n), k=int(k), beta=float(beta),
        delta=delta, epsilon=epsilon, lam=lam, sigma=sigma,
    )
    params.validate()
    return params


def shaky_params(n: int, k: int, beta: float) -> MechanismParams:
    """Derive the randomized-ladder parameters from (n, k, beta).

    Raises :class:`ParameterRegimeError` when epsilon or delta leave their
    required ranges. The sample-size requirement n >= (1/eps^2) ln(4 eps/delta)
    only warns: the flagship settings sit slightly below it and the mechanism
    still runs, it just loses the formal generalization guarantee.
    """
    params = _regime_params(n, k, beta)
    epsilon, delta = params.epsilon, params.delta
    n_min = (1.0 / epsilon**2) * math.log(4.0 * epsilon / delta)
    if n < n_min:
        warnings.warn(
            f"n={n} is below the generalization requirement "
            f"(1/eps^2) ln(4 eps/delta) = {n_min:.1f}; guarantees degrade",
            RuntimeWarning,
            stacklevel=2,
        )
    return params


class LeaderboardMechanism:
    """Common surface: feed loss vectors in, get released estimates out.

    ``round``, ``update_count``, ``max_noise_magnitude`` and ``last_release``
    are kept on every run; with ``records_trace`` each round also appends
    empirical, released and three NaN-padded noise magnitudes to one flat
    buffer for :meth:`trace`, and without it a run stays O(1) in memory.

    A mechanism that reads only the empirical risk takes one round through
    :meth:`submit_risk` and a batch of rounds through :meth:`submit_risks`,
    which here loops over :meth:`submit_risk` and is the reference that any
    faster override must equal: releases, counters, trace and budget end.
    """

    name = "base"
    needs_population_risk = False
    #: Whether the decision reads the loss vector itself rather than its mean;
    #: such a mechanism has no :meth:`submit_risk`.
    needs_loss_vector = False
    #: Parameter set recorded on traces; only the randomized ladder has one.
    params: MechanismParams | None = None

    def __init__(self, max_rounds: int | None = None, record: bool = True):
        self.max_rounds = max_rounds
        self.records_trace = record
        self.round = 0
        self.update_count = 0
        self.initial_noise = 0.0
        self.max_noise_magnitude = 0.0
        self.last_release = 1.0
        self._rows = array("d")

    def _record(self, risk: float, released: float, draws: tuple[float, ...] = ()) -> float:
        """Close one round: update the counters, record it, return ``released``."""
        self.round += 1
        if released < self.last_release:
            self.update_count += 1
        self.last_release = released
        if draws:
            self.max_noise_magnitude = max(self.max_noise_magnitude, *draws)
        if self.records_trace:
            self._rows.extend((risk, released, *draws, *(math.nan,) * (3 - len(draws))))
        return released

    def _check_budget(self) -> None:
        if self.max_rounds is not None and self.round >= self.max_rounds:
            raise BudgetExhaustedError(
                f"{self.name}: round budget of {self.max_rounds} exhausted"
            )

    def rounds_remaining(self) -> float:
        if self.max_rounds is None:
            return math.inf
        return self.max_rounds - self.round

    def trace(self, population_risks=None) -> Trace:
        """The recorded rounds, with the oracle's population risks if given."""
        if not self.records_trace:
            raise RuntimeError("this mechanism was created with record=False")
        rows = np.array(self._rows).reshape(-1, 5)
        if population_risks is None:
            population_risks = np.full(self.round, math.nan)
        return Trace(empirical_risks=rows[:, 0], released=rows[:, 1],
                     population_risks=population_risks, noise=rows[:, 2:],
                     initial_noise=self.initial_noise, params=self.params)

    def check_size(self, n: int) -> None:
        """Reject a holdout of n points where the parameters fix another n."""
        if self.params is not None and n != self.params.n:
            raise ValueError(f"loss vector length {n}, expected {self.params.n}")

    def submit(self, loss_vector, *args, **kwargs) -> float:
        """Score one loss vector: its mean goes to :meth:`submit_risk`.

        The vector's length passes :meth:`check_size` first. Further
        arguments (the population risk, for the mechanisms that read it) go
        to :meth:`submit_risk` unchanged.
        """
        vec = np.asarray(loss_vector)
        self.check_size(vec.size)
        return self.submit_risk(float(np.mean(vec)), *args, **kwargs)

    def submit_risk(self, risk: float) -> float:
        """Run one round on a submission known by its empirical risk."""
        raise NotImplementedError(f"{self.name} scores loss vectors, not risks")

    def submit_risks(self, risks, *oracle_columns, stop_below: float | None = None) -> np.ndarray:
        """Run one round per risk, in order, and return the releases.

        Stops after the first release below ``stop_below``. Further arrays
        (the population risks, for the mechanisms that read them) go to
        :meth:`submit_risk` one entry per round. When the budget runs out
        mid-array, the rounds before it stay committed and
        :class:`BudgetExhaustedError` is raised.
        """
        stop = -math.inf if stop_below is None else stop_below
        released = []
        for row in zip(*(np.asarray(column, dtype=float).tolist()
                         for column in (risks, *oracle_columns))):
            released.append(self.submit_risk(*row))
            if released[-1] < stop:
                break
        return np.array(released, dtype=float)


#: Most rounds one scan pass compares; a stream that updates on nearly every
#: round then costs O(rounds * SCAN_BLOCK) element work, not O(rounds^2).
SCAN_BLOCK = 1024


class IncumbentLadder(LeaderboardMechanism):
    """A ladder whose release changes only when a submission beats ``best``.

    Between such successes every round releases ``best`` again, so
    :meth:`submit_risks` finds the next success with one vector comparison
    per pass and closes the rounds up to it in bulk: O(updates) passes
    instead of one Python round each. Subclasses give the comparison of a
    block of rounds (``_successes``), the scalar update on a success
    (``_succeed``) and the rounds' noise magnitudes (``_draws``), each
    evaluated in the same order as their :meth:`submit_risk`.
    """

    def _successes(self, risks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _succeed(self, risk: float, round_index: int) -> float:
        raise NotImplementedError

    def _draws(self, count: int) -> np.ndarray | None:
        return None

    def _record_block(self, risks: np.ndarray, released: np.ndarray,
                      draws: np.ndarray | None) -> None:
        """Close consecutive rounds at once, as :meth:`_record` would one by one.

        Every release but the last equals ``last_release``: the block ends at
        the first success. ``draws`` holds each round's three noise magnitudes.
        """
        self.round += len(released)
        last = float(released[-1])
        if last < self.last_release:
            self.update_count += 1
        self.last_release = last
        if draws is not None:
            self.max_noise_magnitude = max(self.max_noise_magnitude, float(draws.max()))
        if self.records_trace:
            rows = np.full((len(released), 5), math.nan)
            rows[:, 0] = risks
            rows[:, 1] = released
            if draws is not None:
                rows[:, 2:] = draws
            self._rows.frombytes(rows.tobytes())

    def submit_risks(self, risks, *, stop_below: float | None = None) -> np.ndarray:
        risks = np.asarray(risks, dtype=float)
        stop = -math.inf if stop_below is None else stop_below
        limit = len(risks)
        if self.max_rounds is not None:
            limit = min(limit, self.max_rounds - self.round)
        released = np.empty(limit)
        t = 0
        while t < limit:
            # A stale release already below ``stop`` ends the scan after one round.
            end = t + 1 if self.best < stop else min(limit, t + SCAN_BLOCK)
            hits = self._successes(risks[t:end])
            j = t + int(hits.argmax())
            if hits[j - t]:
                released[t:j] = self.best
                released[j] = self._succeed(float(risks[j]), self.round + j - t)
                end = j + 1
            else:
                released[t:end] = self.best
            self._record_block(risks[t:end], released[t:end], self._draws(end - t))
            t = end
            if released[t - 1] < stop:
                return released[:t]
        if t < len(risks):
            self._check_budget()  # the budget ran out mid-array: raises
        return released


class ShakyLadder(IncumbentLadder):
    """Randomized ladder: noisy comparison, noisy release, noisy threshold.

    Per round t, with fresh xi_t, xi'_t, xi''_t ~ Laplace(sigma):

        if R_S(f_t) + xi_t < R_{t-1} - lam + xi:
            release R_S(f_t) + xi'_t and refresh xi <- xi''_t
        else:
            release R_{t-1}

    The comparison is strict; ties do not update. The update counter follows
    the released sequence (release strictly below the previous one), while
    the internal best is reassigned on every comparison success even in the
    measure-small event that noise pushes the new release above the old one.
    A full k-round run draws exactly 3k+1 Laplace variables, counting the
    initial threshold noise, all up front as one vector; round t (from 0)
    reads entries 3t+1 to 3t+3. The vector equals the sequence of scalar
    draws from the same stream (see :func:`~shakyladder.noise.laplace`).
    ``sigma = 0`` is the zero-noise mechanism: every variable is 0 and
    nothing is drawn, which reduces it to :class:`Ladder` with eta = lam.
    """

    name = "shaky"

    def __init__(self, params: MechanismParams, seed: int | tuple[int, ...],
                 record: bool = True):
        super().__init__(max_rounds=params.k, record=record)
        self.params = params
        self.rng = Rng(seed, MECHANISM_STREAM)
        size = 3 * params.k + 1
        self._noise = laplace(self.rng, params.sigma, size) if params.sigma else np.zeros(size)
        self._noise_cmp = self._noise[1::3]  # xi_t of round t
        self.best = 1.0
        self.threshold_noise = float(self._noise[0])
        self.initial_noise = self.max_noise_magnitude = abs(self.threshold_noise)

    def submit_risk(self, risk: float) -> float:
        self._check_budget()
        start = 3 * self.round + 1
        noise_cmp, noise_rel, noise_thr = self._noise[start:start + 3].tolist()
        if risk + noise_cmp < self.best - self.params.lam + self.threshold_noise:
            released = risk + noise_rel
            self.threshold_noise = noise_thr
            self.best = released
        else:
            released = self.best
        return self._record(risk, released, (abs(noise_cmp), abs(noise_rel), abs(noise_thr)))

    def _successes(self, risks: np.ndarray) -> np.ndarray:
        noise_cmp = self._noise_cmp[self.round:self.round + len(risks)]
        return risks + noise_cmp < self.best - self.params.lam + self.threshold_noise

    def _succeed(self, risk: float, round_index: int) -> float:
        start = 3 * round_index + 2
        noise_rel, noise_thr = self._noise[start:start + 2].tolist()
        self.threshold_noise = noise_thr
        self.best = risk + noise_rel
        return self.best

    def _draws(self, count: int) -> np.ndarray:
        start = 3 * self.round + 1
        return np.abs(self._noise[start:start + 3 * count]).reshape(count, 3)


@dataclass(frozen=True)
class LadderConfig:
    """Classical ladder step size and release rounding mode."""

    eta: float
    rounding: str = "none"

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:  # NaN fails too
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.rounding not in ("none", "multiples-of-eta"):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")


class Ladder(IncumbentLadder):
    """Deterministic threshold mechanism.

    Releases a new value only when the empirical risk beats the incumbent
    released value by more than eta; otherwise the previous release repeats.
    With rounding enabled, releases snap to the nearest multiple of eta.
    """

    name = "ladder"

    def __init__(self, config: LadderConfig, max_rounds: int | None = None,
                 record: bool = True):
        super().__init__(max_rounds=max_rounds, record=record)
        self.config = config
        self.best = 1.0

    def submit_risk(self, risk: float) -> float:
        self._check_budget()
        if risk < self.best - self.config.eta:
            if self.config.rounding == "multiples-of-eta":
                released = round(risk / self.config.eta) * self.config.eta
            else:
                released = risk
            self.best = released
        else:
            released = self.best
        return self._record(risk, released)

    def _successes(self, risks: np.ndarray) -> np.ndarray:
        return risks < self.best - self.config.eta

    def _succeed(self, risk: float, round_index: int) -> float:
        if self.config.rounding == "multiples-of-eta":
            self.best = round(risk / self.config.eta) * self.config.eta
        else:
            self.best = risk
        return self.best


class ParameterFreeLadder(LeaderboardMechanism):
    """Heuristic ladder with a data-driven step size.

    The incumbent is the loss vector of the last accepted model. A new model
    updates when its empirical risk undercuts the incumbent's (unrounded)
    empirical risk by more than s_t, the sample standard deviation of the
    per-point loss difference divided by sqrt(n). Released values are the
    empirical risk rounded to the decimal place of s_t's leading significant
    digit. A degenerate step (s_t = 0, e.g. resubmitting the incumbent) never
    updates; the first submission always does and is released exactly.
    """

    name = "pf-ladder"
    needs_loss_vector = True

    def __init__(self, max_rounds: int | None = None, record: bool = True):
        super().__init__(max_rounds=max_rounds, record=record)
        self.incumbent_loss: np.ndarray | None = None
        self.incumbent_risk = 1.0

    @staticmethod
    def _step_size(diff: np.ndarray) -> float:
        if diff.size < 2:
            return 0.0
        return float(np.std(diff, ddof=1)) / math.sqrt(diff.size)

    def submit(self, loss_vector) -> float:
        self._check_budget()
        vec = np.asarray(loss_vector, dtype=float)
        risk = float(np.mean(vec))
        if self.incumbent_loss is None:
            released = risk
            self.incumbent_loss = vec.copy()
            self.incumbent_risk = risk
        else:
            step = self._step_size(vec - self.incumbent_loss)
            if step > 0.0 and risk < self.incumbent_risk - step:
                granularity = 10.0 ** math.floor(math.log10(step))
                released = round(risk / granularity) * granularity
                self.incumbent_loss = vec.copy()
                self.incumbent_risk = risk
            else:
                released = self.last_release
        return self._record(risk, released)


class ExactEmpiricalOracle(LeaderboardMechanism):
    """Releases the empirical risk of every submission, unmodified."""

    name = "empirical"

    def submit_risk(self, risk: float) -> float:
        self._check_budget()
        return self._record(risk, risk)


class NoisyEmpiricalOracle(LeaderboardMechanism):
    """Releases empirical risk plus centered Gaussian noise of fixed stddev."""

    name = "noisy"

    def __init__(self, stddev: float, seed: int | tuple[int, ...],
                 max_rounds: int | None = None, record: bool = True):
        super().__init__(max_rounds=max_rounds, record=record)
        if not 0.0 < stddev < math.inf:  # NaN fails too
            raise ValueError(f"stddev must be positive and finite, got {stddev}")
        self.stddev = stddev
        self.rng = Rng(seed, MECHANISM_STREAM)

    def submit_risk(self, risk: float) -> float:
        self._check_budget()
        draw = gaussian(self.rng, self.stddev)
        return self._record(risk, risk + draw, (abs(draw),))


class PopulationMinOracle(LeaderboardMechanism):
    """Ideal mechanism releasing the running minimum of true risks.

    The one mechanism allowed to read population risks; it lives behind the
    audit-side evaluation interface and exists to exercise the reduction and
    the leaderboard-error definition at zero error.
    """

    name = "population-min"
    needs_population_risk = True

    def __init__(self, max_rounds: int | None = None, record: bool = True):
        super().__init__(max_rounds=max_rounds, record=record)
        self.best = 1.0

    def submit_risk(self, risk: float, population_risk: float | None = None) -> float:
        if population_risk is None:
            raise ValueError("population-min oracle requires the population risk")
        self._check_budget()
        self.best = min(self.best, float(population_risk))
        return self._record(risk, self.best)


MECHANISM_NAMES = ("shaky", "ladder", "pf-ladder", "empirical", "noisy", "population-min")


def make_mechanism(kind: str, *, n: int, k: int | None = None, beta: float = 0.1,
                   eta: float = 0.01, noise_stddev: float | None = None,
                   seed: int | tuple[int, ...] = 0,
                   record: bool = True) -> LeaderboardMechanism:
    """Construct a mechanism by CLI name.

    ``k`` bounds the round budget where one applies (always for ``shaky``,
    whose parameters derive from (n, k, beta)). ``noise_stddev`` defaults to
    3/sqrt(n) for the noisy oracle; a stddev of 0 means exact feedback.
    """
    if kind == "shaky":
        if k is None:
            raise ValueError("shaky requires a round budget k")
        return ShakyLadder(shaky_params(n, k, beta), seed=seed, record=record)
    if kind == "ladder":
        return Ladder(LadderConfig(eta=eta), max_rounds=k, record=record)
    if kind == "pf-ladder":
        return ParameterFreeLadder(max_rounds=k, record=record)
    if kind == "empirical" or (kind == "noisy" and noise_stddev == 0.0):
        return ExactEmpiricalOracle(max_rounds=k, record=record)
    if kind == "noisy":
        stddev = noise_stddev if noise_stddev is not None else 3.0 / math.sqrt(n)
        return NoisyEmpiricalOracle(stddev, seed=seed, max_rounds=k, record=record)
    if kind == "population-min":
        return PopulationMinOracle(max_rounds=k, record=record)
    raise ValueError(f"unknown mechanism {kind!r}; expected one of {MECHANISM_NAMES}")
