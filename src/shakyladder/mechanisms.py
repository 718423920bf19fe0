"""Leaderboard mechanisms: the randomized ladder, deterministic baselines,
and scoring oracles.

Every mechanism consumes loss vectors and returns one released estimate per
round, starting from the initial estimate R_0 = 1. Released values are not
clamped to [0, 1]; presentation-layer clamping, when wanted, belongs to the
CLI. The population-minimum oracle is the one mechanism allowed to read true
risks and exists only behind the audit-side evaluation interface.
"""

from __future__ import annotations

import itertools
import math
import warnings
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


class _RoundLog:
    """Per-round bookkeeping shared by all mechanisms.

    Always tracks the cheap scalars (round count, update count, running max
    noise magnitude, last release); optionally keeps full per-round arrays
    for trace construction. Long runs disable recording to stay O(1) in
    memory.
    """

    __slots__ = ("record", "initial_noise", "max_noise", "rounds", "updates",
                 "prev_released", "_empirical", "_released", "_noise")

    def __init__(self, record: bool = True):
        self.record = record
        self.initial_noise = 0.0
        self.max_noise = 0.0
        self.rounds = 0
        self.updates = 0
        self.prev_released = 1.0
        self._empirical: list[float] = []
        self._released: list[float] = []
        self._noise: list[tuple[float, ...]] = []

    def add(self, empirical: float, released: float, draws: tuple[float, ...] = ()) -> None:
        updated = released < self.prev_released
        self.rounds += 1
        self.updates += int(updated)
        self.prev_released = released
        if draws:
            self.max_noise = max(self.max_noise, *draws)
        if self.record:
            self._empirical.append(empirical)
            self._released.append(released)
            self._noise.append(draws)

    def trace(self, population_risks=None, params: MechanismParams | None = None) -> Trace:
        if not self.record:
            raise RuntimeError("this mechanism was created with record=False")
        # Row-major boolean assignment fills each round's draws left to right.
        drawn = np.fromiter(map(len, self._noise), dtype=np.intp, count=self.rounds)
        noise = np.full((self.rounds, 3), math.nan)
        noise[np.arange(3) < drawn[:, None]] = list(itertools.chain.from_iterable(self._noise))
        return Trace(
            empirical_risks=self._empirical,
            released=self._released,
            population_risks=(np.full(self.rounds, math.nan) if population_risks is None
                              else population_risks),
            noise=noise,
            initial_noise=self.initial_noise,
            params=params,
        )


class LeaderboardMechanism:
    """Common surface: feed loss vectors in, get released estimates out."""

    name = "base"
    needs_population_risk = False
    #: Parameter set recorded on traces; only the randomized ladder has one.
    params: MechanismParams | None = None

    def __init__(self, max_rounds: int | None = None, record: bool = True):
        self.max_rounds = max_rounds
        self._log = _RoundLog(record=record)

    @property
    def round(self) -> int:
        return self._log.rounds

    @property
    def update_count(self) -> int:
        return self._log.updates

    @property
    def max_noise_magnitude(self) -> float:
        return self._log.max_noise

    @property
    def records_trace(self) -> bool:
        return self._log.record

    def _check_budget(self) -> None:
        if self.max_rounds is not None and self._log.rounds >= self.max_rounds:
            raise BudgetExhaustedError(
                f"{self.name}: round budget of {self.max_rounds} exhausted"
            )

    def rounds_remaining(self) -> float:
        if self.max_rounds is None:
            return math.inf
        return self.max_rounds - self._log.rounds

    def _empirical(self, loss_vector, expected_n: int | None = None) -> float:
        vec = np.asarray(loss_vector)
        if expected_n is not None and vec.size != expected_n:
            raise ValueError(f"loss vector length {vec.size}, expected {expected_n}")
        return float(np.mean(vec))

    def trace(self, population_risks=None) -> Trace:
        """The recorded rounds, with the oracle's population risks if given."""
        return self._log.trace(population_risks, params=self.params)

    def submit(self, loss_vector) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class ShakyLadder(LeaderboardMechanism):
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
    initial threshold noise.
    """

    name = "shaky"

    def __init__(self, params: MechanismParams, seed: int | tuple[int, ...],
                 noise_hook=None, record: bool = True):
        super().__init__(max_rounds=params.k, record=record)
        self.params = params
        self.rng = Rng(seed, MECHANISM_STREAM)
        self._draw = noise_hook if noise_hook is not None else (
            lambda scale: laplace(self.rng, scale)
        )
        self.best = 1.0
        self.threshold_noise = float(self._draw(params.sigma))
        self._log.initial_noise = self._log.max_noise = abs(self.threshold_noise)

    def submit(self, loss_vector) -> float:
        self._check_budget()
        risk = self._empirical(loss_vector, self.params.n)
        sigma = self.params.sigma
        noise_cmp = float(self._draw(sigma))
        noise_rel = float(self._draw(sigma))
        noise_thr = float(self._draw(sigma))
        if risk + noise_cmp < self.best - self.params.lam + self.threshold_noise:
            released = risk + noise_rel
            self.threshold_noise = noise_thr
            self.best = released
        else:
            released = self.best
        self._log.add(risk, released, (abs(noise_cmp), abs(noise_rel), abs(noise_thr)))
        return released


def zero_noise_hook(scale: float) -> float:
    """Test-only noise hook forcing every draw to zero."""
    return 0.0


def clamp_release(value: float) -> float:
    """Presentation-layer clamp of a released value into [0, 1].

    Mechanisms never clamp internally (noise rides on raw estimates and the
    zero-noise equivalence with the deterministic ladder depends on it);
    apply this only when displaying or serializing releases.
    """
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class LadderConfig:
    """Classical ladder step size and release rounding mode."""

    eta: float
    rounding: str = "none"

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.rounding not in ("none", "multiples-of-eta"):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")


class Ladder(LeaderboardMechanism):
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

    def submit(self, loss_vector) -> float:
        self._check_budget()
        risk = self._empirical(loss_vector)
        if risk < self.best - self.config.eta:
            if self.config.rounding == "multiples-of-eta":
                released = round(risk / self.config.eta) * self.config.eta
            else:
                released = risk
            self.best = released
        else:
            released = self.best
        self._log.add(risk, released)
        return released


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
                released = self._log.prev_released
        self._log.add(risk, released)
        return released


class ExactEmpiricalOracle(LeaderboardMechanism):
    """Releases the empirical risk of every submission, unmodified."""

    name = "empirical"

    def submit(self, loss_vector) -> float:
        self._check_budget()
        risk = self._empirical(loss_vector)
        self._log.add(risk, risk)
        return risk


class NoisyEmpiricalOracle(LeaderboardMechanism):
    """Releases empirical risk plus centered Gaussian noise of fixed stddev."""

    name = "noisy"

    def __init__(self, stddev: float, seed: int | tuple[int, ...],
                 max_rounds: int | None = None, record: bool = True):
        super().__init__(max_rounds=max_rounds, record=record)
        if stddev <= 0:
            raise ValueError(f"stddev must be positive, got {stddev}")
        self.stddev = stddev
        self.rng = Rng(seed, MECHANISM_STREAM)

    def submit(self, loss_vector) -> float:
        self._check_budget()
        risk = self._empirical(loss_vector)
        draw = gaussian(self.rng, self.stddev)
        released = risk + draw
        self._log.add(risk, released, (abs(draw),))
        return released


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

    def submit(self, loss_vector, population_risk: float = None) -> float:
        if population_risk is None:
            raise ValueError("population-min oracle requires the population risk")
        self._check_budget()
        risk = self._empirical(loss_vector)
        self.best = min(self.best, float(population_risk))
        self._log.add(risk, self.best)
        return self.best


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
