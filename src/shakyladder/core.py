"""Shared value types and the model/oracle information barrier.

Models are represented extensionally: a model is its per-point loss vector on
the fixed holdout plus an analytically known population risk. Mechanisms
receive a model's empirical risk, and its loss vector if they read one; the
population risk travels alongside for the evaluation oracle (see
:mod:`shakyladder.audit`) and never enters a mechanism's decision logic. All
types here are immutable after construction and safe to share across threads,
and check their input when built, with the rules of :mod:`shakyladder.noise`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .noise import Rng, _binary, _integer, _unit, _unit_array

__all__ = [
    "INITIAL_RELEASE",
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

#: R_0, the release every mechanism starts from: round 1 updates when it releases less.
INITIAL_RELEASE = 1.0

#: Losses and empirical risks may stray from [0, 1] by at most this much
#: before rejection; every other [0, 1] value is checked exactly.
LOSS_TOLERANCE = 1e-12

#: Sub-stream tag used when generating hidden holdout labels from a seed.
LABEL_STREAM = 11


def _loss_vector(vector) -> np.ndarray:
    """``vector`` as an array, if nonempty, 1-d and within [0, 1] up to ``LOSS_TOLERANCE``."""
    vec = np.asarray(vector)
    _unit_array("loss values", vec, LOSS_TOLERANCE)
    return vec


def _readonly_copy(array, dtype=None) -> np.ndarray:
    """A read-only copy: the caller's array stays writable and its later writes do not reach it."""
    out = np.array(array, dtype=dtype)
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
        vec = _loss_vector(_readonly_copy(self.loss_vector))
        _unit("population_risk", self.population_risk)
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
        object.__setattr__(self, "size", _integer("sample size", self.size, 1))
        labels = _readonly_copy(self.hidden_labels)
        if labels.shape != (self.size,):
            raise ValueError("hidden_labels length must equal size")
        _binary("hidden_labels", labels)
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
    round 1 compared against ``INITIAL_RELEASE``.
    """

    empirical_risks: np.ndarray
    released: np.ndarray
    population_risks: np.ndarray
    noise: np.ndarray
    initial_noise: float = 0.0

    def __post_init__(self):
        for name in ("empirical_risks", "released", "population_risks", "noise"):
            object.__setattr__(self, name, _readonly_copy(getattr(self, name), float))
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
        return self.released < np.concatenate(([INITIAL_RELEASE], self.released[:-1]))

    @property
    def update_count(self) -> int:
        return int(np.count_nonzero(self.updated))

    @property
    def max_noise_magnitude(self) -> float:
        """Max over the initial threshold noise and every recorded draw."""
        return float(np.fmax.reduce(self.noise, axis=None, initial=self.initial_noise))


# Packed 0/1 rows, one bit per entry in the ``Rng.bit_rows`` layout: the
# attacks' queries and predictions, the hidden labels, and 0/1 estimator queries.


def _pack(bits: np.ndarray) -> np.ndarray:
    """A 0/1 vector as one row of the ``Rng.bit_rows`` layout."""
    words = np.zeros(-(-len(bits) // 64) * 8, dtype=np.uint8)
    words[:-(-len(bits) // 8)] = np.packbits(bits, bitorder="little")
    return words.view("<u8")


def _unpack(block: np.ndarray, n: int) -> np.ndarray:
    """Packed rows as uint8 0/1 rows of n entries."""
    return np.unpackbits(block.view(np.uint8), axis=-1, count=n, bitorder="little")


def _mismatches(block: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Per packed row, the entries where it differs from packed ``words``, as int64.

    The block is XORed and counted in one pass, each row summed in the narrowest type
    that holds its count (uint16 up to 65472 entries).
    """
    count_type = np.min_scalar_type(64 * len(words))
    return np.bitwise_count(block ^ words).sum(axis=-1, dtype=count_type).astype(np.int64)


def make_random_label_sample(n: int, seed: int | tuple[int, ...]) -> HoldoutSample:
    """Holdout with labels i.i.d. uniform over {0, 1}, deterministic in seed."""
    n = _integer("n", n, 1)
    rng = Rng(seed, LABEL_STREAM)  # checks the seed
    seed = rng.path[:-1] if isinstance(seed, (tuple, list)) else rng.path[0]
    return HoldoutSample(size=n, hidden_labels=rng.bits(n), seed=seed)


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
    _binary("predictions", preds)
    loss = preds.astype(np.uint8) != sample.hidden_labels
    return SubmittedModel(loss_vector=loss, population_risk=0.5)


def empirical_risk(model: SubmittedModel) -> float:
    """Mean of the per-point losses."""
    return float(np.mean(model.loss_vector))


def clamp_release(value: float) -> float:
    """Clamp into [0, 1]: a release for display, or a clamped estimator step's population risk.

    Mechanisms never clamp internally (noise rides on raw estimates and the
    zero-noise equivalence with the deterministic ladder depends on it), so
    apply this to a release only when displaying or serializing it.
    """
    return min(1.0, max(0.0, value))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_trace_csv(trace: Trace, path) -> None:
    """Serialize a trace as CSV with one row per round.

    Columns: round, empirical_risk, released, population_risk, updated,
    noise1, noise2, noise3 (missing draws are blank). UTF-8, LF endings,
    17 significant digits. Releases are written unclamped, as the mechanism
    made them.
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
            writer.writerow(
                [index, _fmt(empirical), _fmt(released), _fmt(population), int(updated),
                 *("" if math.isnan(d) else _fmt(d) for d in draws)]
            )
