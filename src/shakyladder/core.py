"""Shared value types and the model/oracle information barrier.

Models are represented extensionally: a model is its per-point loss vector on
the fixed holdout plus an analytically known population risk. Mechanism code
paths receive bare loss vectors only; the population risk travels alongside
for the evaluation oracle (see :mod:`shakyladder.audit`) and never enters a
mechanism's decision logic. All types here are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .noise import Rng

__all__ = [
    "LOSS_TOLERANCE",
    "SubmittedModel",
    "HoldoutSample",
    "Trace",
    "make_random_label_sample",
    "model_from_predictions",
    "empirical_risk",
    "clamp_release",
    "write_trace_csv",
]

#: Loss values may stray from [0, 1] by at most this much before rejection.
LOSS_TOLERANCE = 1e-12

#: Sub-stream tag used when generating hidden holdout labels from a seed.
LABEL_STREAM = 11


def _as_readonly(array: np.ndarray) -> np.ndarray:
    out = np.asarray(array)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubmittedModel:
    """A model as seen on the holdout: per-point losses plus true risk.

    ``loss_vector`` is what mechanisms may score; ``population_risk`` is the
    oracle-only side channel, known analytically for every synthetic model
    family in this package (random prediction models have risk exactly 1/2).
    """

    loss_vector: np.ndarray
    population_risk: float

    def __post_init__(self):
        vec = _as_readonly(self.loss_vector)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError("loss_vector must be a nonempty 1-d array")
        lo = float(vec.min())
        hi = float(vec.max())
        # Written so that NaN, which fails every comparison, is rejected too.
        if not (lo >= -LOSS_TOLERANCE and hi <= 1.0 + LOSS_TOLERANCE):
            raise ValueError(
                f"loss values must lie in [0, 1] (tolerance {LOSS_TOLERANCE}); "
                f"observed range [{lo}, {hi}]"
            )
        if not 0.0 <= self.population_risk <= 1.0:
            raise ValueError(f"population_risk must lie in [0, 1], got {self.population_risk}")
        object.__setattr__(self, "loss_vector", vec)

    @property
    def size(self) -> int:
        return int(self.loss_vector.size)


@dataclass(frozen=True)
class HoldoutSample:
    """Hidden binary labels for a holdout of a given size, regenerable from seed."""

    size: int
    hidden_labels: np.ndarray
    seed: int | tuple[int, ...]

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"sample size must be >= 1, got {self.size}")
        labels = _as_readonly(self.hidden_labels)
        if labels.shape != (self.size,):
            raise ValueError("hidden_labels length must equal size")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("hidden_labels must be binary")
        object.__setattr__(self, "hidden_labels", labels)


@dataclass(frozen=True)
class Trace:
    """One mechanism run as read-only per-round columns.

    ``empirical_risks``, ``released`` and ``population_risks`` hold one value
    per round; population risks are NaN unless the evaluation oracle supplied
    them. ``noise`` is rounds x 3: the magnitudes of the noise variables drawn
    each round (three for the randomized ladder, one for the noisy oracle,
    none for deterministic mechanisms), NaN where nothing was drawn.
    ``initial_noise`` is the magnitude of the threshold noise drawn before
    round 1 (0.0 for noiseless mechanisms). Update flags, the update count
    and the maximal noise magnitude are derived from these columns, with
    round 1 compared against R_0 = 1.
    """

    empirical_risks: np.ndarray
    released: np.ndarray
    population_risks: np.ndarray
    noise: np.ndarray
    initial_noise: float = 0.0
    params: object | None = None

    def __post_init__(self):
        for name in ("empirical_risks", "released", "population_risks", "noise"):
            column = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, _as_readonly(column))
        rounds = self.released.shape
        if not (len(rounds) == 1 and self.empirical_risks.shape == rounds
                and self.population_risks.shape == rounds and self.noise.shape == (*rounds, 3)):
            raise ValueError("a trace needs one risk of each kind and three noise "
                             "magnitudes per round")

    def __len__(self) -> int:
        return len(self.released)

    @property
    def updated(self) -> np.ndarray:
        """Rounds whose release strictly undercut the previous one."""
        return self.released < np.concatenate(([1.0], self.released[:-1]))

    @property
    def update_count(self) -> int:
        return int(np.count_nonzero(self.updated))

    @property
    def max_noise_magnitude(self) -> float:
        """Max over the initial threshold noise and every recorded draw."""
        return float(np.fmax.reduce(self.noise, axis=None, initial=self.initial_noise))


def make_random_label_sample(n: int, seed: int | tuple[int, ...]) -> HoldoutSample:
    """Holdout with labels i.i.d. uniform over {0, 1}, deterministic in seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    labels = Rng(seed, LABEL_STREAM).bits(n)
    return HoldoutSample(size=n, hidden_labels=labels, seed=seed if isinstance(seed, int) else tuple(seed))


def model_from_predictions(predictions, sample: HoldoutSample) -> SubmittedModel:
    """0/1-loss model from binary predictions against the hidden labels.

    The population risk is exactly 1/2: labels are uniform conditional on the
    point, so any fixed prediction rule errs with probability one half.
    """
    preds = np.asarray(predictions)
    if preds.shape != (sample.size,):
        raise ValueError(
            f"predictions length {preds.shape} does not match sample size {sample.size}"
        )
    loss = preds.astype(np.uint8) != sample.hidden_labels
    return SubmittedModel(loss_vector=loss, population_risk=0.5)


def empirical_risk(model: SubmittedModel) -> float:
    """Mean of the per-point losses."""
    return float(np.mean(model.loss_vector))


def clamp_release(value: float) -> float:
    """Presentation-layer clamp of a released value into [0, 1].

    Mechanisms never clamp internally (noise rides on raw estimates and the
    zero-noise equivalence with the deterministic ladder depends on it);
    apply this only when displaying or serializing releases.
    """
    return min(1.0, max(0.0, value))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trace_csv(trace: Trace, path, clamp_releases: bool = False) -> None:
    """Serialize a trace as CSV with one row per round.

    Columns: round, empirical_risk, released, population_risk, updated,
    noise1, noise2, noise3 (missing draws are blank). UTF-8, LF endings,
    17 significant digits. ``clamp_releases`` applies the presentation-layer
    clamp into [0, 1] to the released column only; mechanism state is never
    clamped.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["round", "empirical_risk", "released", "population_risk", "updated",
             "noise1", "noise2", "noise3"]
        )
        rows = zip(trace.empirical_risks.tolist(), trace.released.tolist(),
                   trace.population_risks.tolist(), trace.updated.tolist(), trace.noise.tolist())
        for index, (empirical, released, population, updated, draws) in enumerate(rows, start=1):
            if clamp_releases:
                released = clamp_release(released)
            writer.writerow(
                [index, _fmt(empirical), _fmt(released), _fmt(population), int(updated),
                 *("" if math.isnan(d) else _fmt(d) for d in draws)]
            )
