"""Experiment grids, deterministic repetition seeding, and CSV emission.

Each repetition is a pure function of (seed, rep) via sub-stream derivation,
so the grid runners share model draws across cells by construction: the
noise-multiplier-zero cell of one experiment equals the no-noise cell of
another on identical seeds, repetitions can run in any order, and reruns are
byte-identical. The vector-attack grids evaluate all k values of a
repetition incrementally from one query matrix; every cell still equals a
standalone :func:`~shakyladder.analysts.majority_attack_direct` call with the
matching sub-stream seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysts
from .audit import EvaluationSession, envelope_check, leaderboard_error
from .core import make_random_label_sample
from .mechanisms import (LadderConfig, PopulationMinOracle, ShakyLadder, _regime_params,
                         make_mechanism, shaky_params)
from .noise import Rng
from .reduction import AdaptiveEstimator, Query

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "RepResult",
    "EXPERIMENTS",
    "DEFAULT_K_GRID",
    "VARY_QUERIES_NOISE_GRID",
    "VARY_NOISE_GRID",
    "run_experiment",
    "render_csv",
    "run_vary",
    "run_envelope",
    "run_reduction_oracle",
    "run_attack_vs_mechanism",
    "experiment_csv",
]

EXPERIMENTS = (
    "vary-queries", "vary-noise", "envelope", "reduction-oracle", "attack-vs-mechanism",
)

DEFAULT_K_GRID = tuple(range(100, 1001, 100))
VARY_QUERIES_NOISE_GRID = (0.0, 1.0, 3.0)
VARY_NOISE_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)

CSV_HEADER = "experiment,mechanism,n,k,noise_multiplier,rep_count,mean_error,std_error"
PER_REP_COLUMNS = "rep,final_error,lberr,updates_B,max_noise_L"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Noise values are multipliers of 1/sqrt(n), applied to risk-scale
    feedback; absolute standard deviations are computed at run time.
    """

    experiment: str
    n: int
    k_grid: tuple[int, ...] = DEFAULT_K_GRID
    noise_grid: tuple[float, ...] | None = None
    reps: int = 100
    seed: int = 0
    mechanism: str = "shaky"
    beta: float = 0.1
    eta: float = 0.01
    alpha: float = 0.05
    per_rep: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not self.k_grid:
            raise ValueError("k grid must be nonempty")
        if self.noise_grid is not None and not self.noise_grid:
            raise ValueError("noise grid must be nonempty")
        if min(self.k_grid) < 0:
            raise ValueError("k values must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        voted = self.experiment != "reduction-oracle"
        if voted and max(self.n, *self.k_grid) >= analysts.FLOAT32_EXACT:
            raise ValueError("n and k must stay below 2^24, where the attack's float32 "
                             "sums stop being exact")
        if not all(math.isfinite(m) and m >= 0.0 for m in self.resolved_noise_grid()):
            raise ValueError("noise multipliers must be finite and >= 0")
        if self.experiment == "reduction-oracle" and not 0.0 < self.alpha <= 1.0 / 3.0:
            raise ValueError(f"alpha must lie in (0, 1/3] to ask any query, got {self.alpha}")
        attacked = self.experiment in ("envelope", "attack-vs-mechanism")
        if attacked and max(self.k_grid) > self.n:
            raise ValueError(f"the attack needs k <= n, got k={max(self.k_grid)} > n={self.n}")
        if self.experiment == "attack-vs-mechanism" and self.mechanism == "ladder":
            LadderConfig(eta=self.eta)  # raises on a non-positive step
        if self.experiment == "envelope" or (attacked and self.mechanism == "shaky"):
            # The run's own shaky_params calls are the ones that warn.
            for k in sorted(set(self.k_grid)):
                _regime_params(self.n, k + 1, self.beta)

    def resolved_noise_grid(self) -> tuple[float, ...]:
        if self.noise_grid is not None:
            return self.noise_grid
        if self.experiment == "vary-noise":
            return VARY_NOISE_GRID
        return VARY_QUERIES_NOISE_GRID


@dataclass(frozen=True)
class RepResult:
    final_error: float
    lberr: float = math.nan
    updates: float = math.nan
    max_noise: float = math.nan


@dataclass(frozen=True)
class CellResult:
    experiment: str
    mechanism: str
    n: int
    k: int
    noise_multiplier: float
    reps: tuple[RepResult, ...] = field(repr=False)

    @property
    def errors(self) -> np.ndarray:
        return np.array([r.final_error for r in self.reps])

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def std_error(self) -> float:
        """Sample standard deviation across repetitions (NaN for one rep)."""
        if len(self.reps) < 2:
            return math.nan
        return float(np.std(self.errors, ddof=1))


def _attack_grid(n: int, k_grid, multipliers, reps: int, seed: int):
    """All (k, multiplier) cells of the vector majority attack, per rep.

    One query matrix per repetition serves every cell: the selection signs
    depend only on per-query answers, so vote weights accumulate over the
    sorted k grid, and scaled noise reuses one standard-normal draw. Sums of
    +/-1 entries stay below 2^24, hence the float32 products are exact and
    every cell matches the standalone attack bit for bit.
    """
    k_sorted = sorted(set(k_grid))
    k_max = k_sorted[-1]
    cells: dict[tuple[int, float], list[float]] = {
        (k, m): [] for k in k_sorted for m in multipliers
    }
    inv_sqrt_n = 1.0 / math.sqrt(n)
    for rep in range(reps):
        rep_seed = (seed, rep)
        hidden = (2 * Rng(rep_seed, analysts.HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1)
        queries = (2 * Rng(rep_seed, analysts.QUERY_STREAM).integers(0, 2, (k_max, n), dtype=np.int8) - 1)
        z = Rng(rep_seed, analysts.NOISE_STREAM).standard_normal(k_max)
        qf = queries.astype(np.float32)
        hf = hidden.astype(np.float32)
        answers0 = (qf @ hf).astype(np.float64) / n
        for mult in multipliers:
            if mult == 0.0:
                answers = answers0
            else:
                answers = answers0 + (2.0 * (mult * inv_sqrt_n)) * z
            signs = np.where(answers > 0.0, 1.0, -1.0).astype(np.float32)
            weights = np.zeros(n, dtype=np.float32)
            start = 0
            for k in k_sorted:
                weights += qf[start:k].T @ signs[start:k]
                start = k
                final = np.where(weights < 0.0, -1, 1).astype(np.int8)
                cells[(k, mult)].append(float(np.mean(final != hidden)))
    return cells


def run_vary(config: ExperimentConfig) -> list[CellResult]:
    """Attack error over the (k, noise multiplier) grid, for both vary
    experiments: they differ only in their default noise grid."""
    multipliers = config.resolved_noise_grid()
    cells = _attack_grid(config.n, config.k_grid, multipliers, config.reps, config.seed)
    rows = []
    for k in sorted(set(config.k_grid)):
        for mult in sorted(multipliers):
            reps = tuple(RepResult(final_error=e) for e in cells[(k, mult)])
            rows.append(CellResult(config.experiment, "direct", config.n, k, mult, reps))
    return rows


def run_envelope(config: ExperimentConfig) -> list[CellResult]:
    """Leaderboard error of the randomized ladder under the majority attack,
    audited against its error envelope; mean_error is the mean lberr."""
    rows = []
    for k in sorted(set(config.k_grid)):
        params = shaky_params(config.n, k + 1, config.beta)
        reps = []
        for rep in range(config.reps):
            run_seed = (config.seed, k, rep)
            sample = make_random_label_sample(config.n, run_seed)
            mechanism = ShakyLadder(params, seed=run_seed)
            _, trace = analysts.majority_attack_vs_mechanism(
                mechanism, sample, k, run_seed, selection="theorem"
            )
            ev = envelope_check(trace, params)
            reps.append(RepResult(
                final_error=ev.lberr, lberr=ev.lberr,
                updates=float(ev.update_count), max_noise=ev.max_noise,
            ))
        rows.append(CellResult(config.experiment, "shaky", config.n, k, 0.0, tuple(reps)))
    return rows


def run_reduction_oracle(config: ExperimentConfig) -> list[CellResult]:
    """Estimator sessions against the exact running-minimum oracle.

    Per repetition: one session of floor(1/(3 alpha)) random queries;
    final_error is the worst |answer - population mean| over triggered,
    unclamped queries (zero when the session is exact throughout).
    """
    alpha = config.alpha
    queries_per_session = math.floor(1.0 / (3.0 * alpha))
    reps = []
    for rep in range(config.reps):
        rng = Rng((config.seed, rep), 5)
        session = EvaluationSession(PopulationMinOracle())
        estimator = AdaptiveEstimator(session, alpha)
        worst = 0.0
        for _ in range(queries_per_session):
            mean = float(rng.random() * (1.0 - 2.0 * alpha - 0.1) + 0.05)
            values = np.clip(mean + 0.2 * (rng.random(config.n) - 0.5), 0.0, 1.0)
            outcome = estimator.answer(Query(values=values, population_mean=mean))
            if outcome.triggered and not outcome.clamped:
                worst = max(worst, abs(outcome.answer - mean))
        trace = session.trace()
        reps.append(RepResult(
            final_error=worst, lberr=leaderboard_error(trace),
            updates=float(trace.update_count), max_noise=0.0,
        ))
    row = CellResult(config.experiment, "population-min", config.n,
                     queries_per_session, 0.0, tuple(reps))
    return [row]


def run_attack_vs_mechanism(config: ExperimentConfig) -> list[CellResult]:
    """Majority attack against a configured mechanism across the k grid."""
    multipliers = config.resolved_noise_grid() if config.mechanism == "noisy" else (0.0,)
    rows = []
    for k in sorted(set(config.k_grid)):
        for mult in sorted(multipliers):
            reps = []
            for rep in range(config.reps):
                run_seed = (config.seed, k, rep)
                sample = make_random_label_sample(config.n, run_seed)
                mechanism = make_mechanism(
                    config.mechanism, n=config.n, k=k + 1, beta=config.beta,
                    eta=config.eta, noise_stddev=mult / math.sqrt(config.n), seed=run_seed,
                )
                report, trace = analysts.majority_attack_vs_mechanism(
                    mechanism, sample, k, run_seed, selection="theorem"
                )
                reps.append(RepResult(
                    report.final_error, leaderboard_error(trace),
                    float(trace.update_count), trace.max_noise_magnitude,
                ))
            rows.append(CellResult(
                config.experiment, config.mechanism, config.n, k, mult, tuple(reps)
            ))
    return rows


_RUNNERS = {
    "vary-queries": run_vary,
    "vary-noise": run_vary,
    "envelope": run_envelope,
    "reduction-oracle": run_reduction_oracle,
    "attack-vs-mechanism": run_attack_vs_mechanism,
}


def run_experiment(config: ExperimentConfig) -> list[CellResult]:
    return _RUNNERS[config.experiment](config)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def render_csv(rows: list[CellResult], per_rep: bool = False) -> str:
    """Frozen CSV schema; UTF-8 text with LF endings, 17 significant digits.

    Aggregated mode emits one row per cell; per-rep mode appends the
    repetition columns and emits one row per repetition with the cell
    aggregates repeated.
    """
    header = CSV_HEADER + ("," + PER_REP_COLUMNS if per_rep else "")
    lines = [header]
    for cell in rows:
        prefix = ",".join([
            cell.experiment, cell.mechanism, str(cell.n), str(cell.k),
            _fmt(cell.noise_multiplier), str(len(cell.reps)),
            _fmt(cell.mean_error), _fmt(cell.std_error),
        ])
        if not per_rep:
            lines.append(prefix)
            continue
        for rep_index, rep in enumerate(cell.reps):
            lines.append(",".join([
                prefix, str(rep_index), _fmt(rep.final_error), _fmt(rep.lberr),
                _fmt(rep.updates), _fmt(rep.max_noise),
            ]))
    return "\n".join(lines) + "\n"


def experiment_csv(config: ExperimentConfig) -> str:
    return render_csv(run_experiment(config), per_rep=config.per_rep)
