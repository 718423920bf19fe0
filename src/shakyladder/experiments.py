"""Experiment grids, deterministic repetition seeding, and CSV emission.

One table, ``_READS``, fixes the options each experiment reads and their
defaults; a config holds each read option's effective value, the noise grid
included. Each repetition is a pure function of its seed path via sub-stream
derivation, so repetitions can run in any order and reruns are
byte-identical. The ``vary-*`` grids evaluate every (k, noise) cell of a
repetition in one blocked pass over its query stream
(``analysts._attack_cells``), each cell equal to a standalone
``majority_attack_direct`` call. The mechanism-driven experiments are one
loop (``_mechanism_cells``): ``envelope`` is the Shaky Ladder case of
``attack-vs-mechanism`` with the lberr as its error. Neither checks the
envelope 18 eps sqrt(B) + lam + 2L; the per-rep B and L let a reader do so
(``audit.envelope_check``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysts
from .audit import EvaluationSession, leaderboard_error
from .core import _fmt, _integer, make_random_label_sample
from .mechanisms import (MECHANISM_NAMES, LadderConfig, PopulationMinOracle, _regime_params,
                         make_mechanism)
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

DEFAULT_K_GRID = tuple(range(100, 1001, 100))
VARY_QUERIES_NOISE_GRID = (0.0, 1.0, 3.0)
VARY_NOISE_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)

CSV_HEADER = "experiment,mechanism,n,k,noise_multiplier,rep_count,mean_error,std_error"
PER_REP_COLUMNS = "rep,final_error,lberr,updates_B,max_noise_L"

#: The fields only some runs read, with their command-line flags.
_OPTION_FLAGS = {"k_grid": "--k", "noise_grid": "--noise", "mechanism": "--mechanism",
                 "beta": "--beta", "eta": "--eta", "alpha": "--alpha"}
#: What each run reads: per experiment, the fields of ``_OPTION_FLAGS`` it
#: reads and their defaults; under ``"by mechanism"``, the ones that
#: attack-vs-mechanism adds for its mechanism.
_READS = {
    "vary-queries": {"k_grid": DEFAULT_K_GRID, "noise_grid": VARY_QUERIES_NOISE_GRID},
    "vary-noise": {"k_grid": DEFAULT_K_GRID, "noise_grid": VARY_NOISE_GRID},
    "envelope": {"k_grid": DEFAULT_K_GRID, "beta": 0.1},
    "reduction-oracle": {"alpha": 0.05},
    "attack-vs-mechanism": {"k_grid": DEFAULT_K_GRID, "mechanism": "shaky", "by mechanism": {
        "shaky": {"beta": 0.1}, "ladder": {"eta": 0.01},
        "noisy": {"noise_grid": VARY_QUERIES_NOISE_GRID}}},
}

EXPERIMENTS = tuple(_READS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    Noise values are multipliers of 1/sqrt(n), applied to risk-scale
    feedback; absolute standard deviations are computed at run time.

    One table, ``_READS``, fixes which of the optional fields each run reads.
    A read field left ``None`` takes its default there, the noise grid
    included, so a config holds the effective value of every setting its run
    uses; an unread field must stay ``None`` and is rejected when given, so
    that a config never claims a setting that did not apply. Each field's
    check runs wherever the field is set.
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
        if self.experiment not in _READS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        reads = dict(_READS[self.experiment])
        reads |= reads.pop("by mechanism", {}).get(self.mechanism or reads.get("mechanism"), {})
        unread = [flag for name, flag in _OPTION_FLAGS.items()
                  if name not in reads and getattr(self, name) is not None]
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        for name, default in reads.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        for name, least in (("n", 1), ("reps", 1), ("seed", None)):  # as Python ints, like each k
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not isinstance(self.per_rep, bool):
            raise ValueError(f"per_rep must be a bool, got {self.per_rep!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.mechanism is not None and self.mechanism not in MECHANISM_NAMES:
            raise ValueError(f"mechanism must be one of {MECHANISM_NAMES}, got {self.mechanism!r}")
        # Sorted tuples of distinct values (+ 0.0 folds -0.0 into 0.0): one cell each.
        if self.k_grid is not None:
            object.__setattr__(self, "k_grid",
                               tuple(sorted({_integer("k", k, 0) for k in self.k_grid})))
            if not self.k_grid:
                raise ValueError("k grid must be nonempty")
            # an attack on a mechanism needs k <= n; the vector attack bounds no k
            if not self.experiment.startswith("vary-") and self.k_grid[-1] > self.n:
                raise ValueError(f"the attack needs k <= n, got k={self.k_grid[-1]} > n={self.n}")
        if self.noise_grid is not None:
            object.__setattr__(self, "noise_grid",
                               tuple(sorted({m + 0.0 for m in self.noise_grid})))
            if not self.noise_grid:
                raise ValueError("noise grid must be nonempty")
            if not all(math.isfinite(m) and m >= 0.0 for m in self.noise_grid):
                raise ValueError("noise multipliers must be finite and >= 0")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0 / 3.0:
            raise ValueError(f"alpha must lie in (0, 1/3] to ask any query, got {self.alpha}")
        if self.eta is not None:
            LadderConfig(eta=self.eta)  # raises on a non-positive or non-finite step
        if self.beta is not None:
            for k in self.k_grid:  # only the run's own shaky_params calls warn
                _regime_params(self.n, k + 1, self.beta)


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
    cells = _attack_grid(config.n, config.k_grid, config.noise_grid, config.reps, config.seed)
    return [CellResult(config.experiment, "direct", config.n, k, mult,
                       tuple(RepResult(e) for e in errors))
            for (k, mult), errors in cells.items()]


def _mechanism_cells(config: ExperimentConfig, kind: str) -> list[CellResult]:
    """The theorem-selection majority attack on ``make_mechanism``'s ``kind``
    over the (k, noise multiplier) grid, each repetition seeded by (seed, k,
    rep). Per rep: lberr, B and L from the trace, and as the error the lberr
    for ``envelope``, the majority model's empirical risk otherwise."""
    rows = []
    for k in config.k_grid:
        for mult in config.noise_grid or (0.0,):
            reps = []
            for rep in range(config.reps):
                run_seed = (config.seed, k, rep)
                sample = make_random_label_sample(config.n, run_seed)
                mechanism = make_mechanism(
                    kind, n=config.n, k=k + 1, beta=config.beta, eta=config.eta,
                    noise_stddev=mult / math.sqrt(config.n), seed=run_seed)
                report, trace = analysts.majority_attack_vs_mechanism(
                    mechanism, sample, k, run_seed, selection="theorem")
                lberr = leaderboard_error(trace)
                error = lberr if config.experiment == "envelope" else report.final_error
                reps.append(RepResult(error, lberr, float(trace.update_count),
                                      trace.max_noise_magnitude))
            rows.append(CellResult(config.experiment, kind, config.n, k, mult, tuple(reps)))
    return rows


def run_envelope(config: ExperimentConfig) -> list[CellResult]:
    """The Shaky Ladder's rows of the mechanism attack; mean_error is the mean lberr."""
    return _mechanism_cells(config, "shaky")


def run_reduction_oracle(config: ExperimentConfig) -> list[CellResult]:
    """Estimator sessions against the exact running-minimum oracle.

    Per repetition: one session of floor(1/(3 alpha)) random queries;
    final_error is the worst |answer - population mean| over triggered,
    unclamped queries (zero when the session is exact throughout).
    """
    alpha = config.alpha
    reps = []
    for rep in range(config.reps):
        rng = Rng((config.seed, rep), 5)
        session = EvaluationSession(PopulationMinOracle())
        estimator = AdaptiveEstimator(session, alpha)
        worst = 0.0
        for _ in range(estimator.query_budget):
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
    return [CellResult(config.experiment, "population-min", config.n,
                       estimator.query_budget, 0.0, tuple(reps))]


def run_attack_vs_mechanism(config: ExperimentConfig) -> list[CellResult]:
    """The mechanism attack on ``config.mechanism``; mean_error is the majority model's."""
    return _mechanism_cells(config, config.mechanism)


_RUNNERS = {
    "vary-queries": run_vary,
    "vary-noise": run_vary,
    "envelope": run_envelope,
    "reduction-oracle": run_reduction_oracle,
    "attack-vs-mechanism": run_attack_vs_mechanism,
}


def run_experiment(config: ExperimentConfig) -> list[CellResult]:
    return _RUNNERS[config.experiment](config)


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
