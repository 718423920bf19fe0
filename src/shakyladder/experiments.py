"""Experiment grids, deterministic repetition seeding, and CSV emission.

Each repetition is a pure function of (seed, rep) via sub-stream derivation,
so the grid runners share model draws across cells by construction: the
noise-multiplier-zero cell of one experiment equals the no-noise cell of
another on identical seeds, repetitions can run in any order, and reruns are
byte-identical. The vector-attack grids evaluate every (k, noise) cell of a
repetition in one blocked pass over its query stream, in memory O(block * n)
plus a count row of n per sign pattern (at most 2 per noise level) rather
than O(max(k) * n); every cell equals a standalone ``majority_attack_direct``
call with the matching sub-stream seed.
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


#: The fields only some experiments read, with their command-line flags.
_OPTION_FLAGS = {"k_grid": "--k", "noise_grid": "--noise", "mechanism": "--mechanism",
                 "beta": "--beta", "eta": "--eta", "alpha": "--alpha"}
#: Defaults of those fields where they are read (the noise grid's depend on the run).
_OPTION_DEFAULTS = {"k_grid": DEFAULT_K_GRID, "mechanism": "shaky", "beta": 0.1,
                    "eta": 0.01, "alpha": 0.05}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Noise values are multipliers of 1/sqrt(n), applied to risk-scale
    feedback; absolute standard deviations are computed at run time.

    The fields in ``_OPTION_FLAGS`` are read only by some runs (see
    :meth:`_read_options`). One the run reads takes its default when left
    ``None``; one it does not read must stay ``None`` and is rejected when
    given, so that a config never claims a setting that did not apply.
    """

    experiment: str
    n: int
    k_grid: tuple[int, ...] | None = None
    noise_grid: tuple[float, ...] | None = None
    reps: int = 100
    seed: int = 0
    mechanism: str | None = None
    beta: float | None = None
    eta: float | None = None
    alpha: float | None = None
    per_rep: bool = False

    def __post_init__(self):
        # Sorted tuples of distinct values (+ 0.0 folds -0.0 into 0.0): one cell each.
        if self.k_grid is not None:
            object.__setattr__(self, "k_grid", tuple(sorted(set(self.k_grid))))
        if self.noise_grid is not None:
            object.__setattr__(self, "noise_grid", tuple(sorted({m + 0.0 for m in self.noise_grid})))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        read = self._read_options()
        unread = [flag for name, flag in _OPTION_FLAGS.items()
                  if name not in read and getattr(self, name) is not None]
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        for name in read:
            if getattr(self, name) is None and name in _OPTION_DEFAULTS:
                object.__setattr__(self, name, _OPTION_DEFAULTS[name])
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.k_grid is not None:  # every run but reduction-oracle attacks
            if not self.k_grid:
                raise ValueError("k grid must be nonempty")
            if self.k_grid[0] < 0:
                raise ValueError("k values must be >= 0")
            if self.k_grid[-1] >= analysts.FLOAT32_EXACT:
                raise ValueError("k must stay below 2^24, where the attack's float32 "
                                 "vote stops being exact")
        if self.noise_grid is not None and not self.noise_grid:
            raise ValueError("noise grid must be nonempty")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if not all(math.isfinite(m) and m >= 0.0 for m in self.resolved_noise_grid()):
            raise ValueError("noise multipliers must be finite and >= 0")
        if self.experiment == "reduction-oracle" and not 0.0 < self.alpha <= 1.0 / 3.0:
            raise ValueError(f"alpha must lie in (0, 1/3] to ask any query, got {self.alpha}")
        attacked = self.experiment in ("envelope", "attack-vs-mechanism")
        if attacked and max(self.k_grid) > self.n:
            raise ValueError(f"the attack needs k <= n, got k={max(self.k_grid)} > n={self.n}")
        if self.experiment == "attack-vs-mechanism" and self.mechanism == "ladder":
            LadderConfig(eta=self.eta)  # raises on a non-positive or non-finite step
        if self.experiment == "envelope" or (attacked and self.mechanism == "shaky"):
            # The run's own shaky_params calls are the ones that warn.
            for k in self.k_grid:
                _regime_params(self.n, k + 1, self.beta)

    def _read_options(self) -> tuple[str, ...]:
        """The fields of ``_OPTION_FLAGS`` that this run reads."""
        if self.experiment == "reduction-oracle":
            return ("alpha",)
        if self.experiment in ("vary-queries", "vary-noise"):
            return ("k_grid", "noise_grid")
        if self.experiment == "envelope":
            return ("k_grid", "beta")
        by_mechanism = {"shaky": ("beta",), "ladder": ("eta",), "noisy": ("noise_grid",)}
        mechanism = self.mechanism or _OPTION_DEFAULTS["mechanism"]
        return ("k_grid", "mechanism", *by_mechanism.get(mechanism, ()))

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

    Each repetition is one pass of :func:`analysts._attack_cells` over its
    query stream, which reads off every cell on the way; multiplier m means
    noise of standard deviation m/sqrt(n), and every cell matches the
    standalone attack bit for bit.
    """
    inv_sqrt_n = 1.0 / math.sqrt(n)
    stddevs = [mult * inv_sqrt_n for mult in multipliers]
    cells: dict[tuple[int, float], list[float]] = {}
    for rep in range(reps):
        k_sorted, errors, _ = analysts._attack_cells(n, k_grid, stddevs, (seed, rep))
        for row, k in zip(errors.tolist(), k_sorted):
            for error, mult in zip(row, multipliers):
                cells.setdefault((k, mult), []).append(error)
    return cells


def run_vary(config: ExperimentConfig) -> list[CellResult]:
    """Attack error over the (k, noise multiplier) grid, for both vary
    experiments: they differ only in their default noise grid."""
    multipliers = config.resolved_noise_grid()
    cells = _attack_grid(config.n, config.k_grid, multipliers, config.reps, config.seed)
    rows = []
    for k in config.k_grid:
        for mult in multipliers:
            reps = tuple(RepResult(final_error=e) for e in cells[(k, mult)])
            rows.append(CellResult(config.experiment, "direct", config.n, k, mult, reps))
    return rows


def run_envelope(config: ExperimentConfig) -> list[CellResult]:
    """Leaderboard error of the randomized ladder under the majority attack,
    audited against its error envelope; mean_error is the mean lberr."""
    rows = []
    for k in config.k_grid:
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
    for k in config.k_grid:
        for mult in multipliers:
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
