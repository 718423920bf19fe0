"""Seeded randomness and distribution primitives.

Every random quantity in this package flows through :class:`Rng`, a thin
wrapper around numpy's counter-based Philox generator keyed by an explicit
integer path ``(seed, *stream)``. Equal paths give bit-identical streams
across runs and platforms; distinct paths give independent streams, which is
how parallel repetitions and mechanism instances stay reproducible.

The Laplace sampler is an explicit inverse-CDF transform (not a library
sampler) because the tail identity Pr{|X| > t*scale} = exp(-t) is asserted at
tight tolerances and golden files pin the exact draw sequence.
"""

from __future__ import annotations

import math
from math import fsum, lgamma

import numpy as np

__all__ = ["Rng", "laplace", "gaussian", "binomial_exceedance"]

_UINT64 = 2**64


def _seed_path(seed: int | tuple[int, ...] | list[int], stream: tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(seed, (tuple, list)):
        raw = (*seed, *stream)
    else:
        raw = (seed, *stream)
    path = tuple(int(part) for part in raw)
    for part in path:
        if not 0 <= part < _UINT64:
            raise ValueError(f"seed path parts must lie in [0, 2^64), got {part}")
    return path


class Rng:
    """Deterministic random stream keyed by an integer path.

    ``Rng(seed)`` is the root stream for a 64-bit seed; ``Rng(seed, a, b)``
    derives independent sub-streams, e.g. one per repetition index. The
    generator is Philox4x64 seeded through
    ``numpy.random.SeedSequence(entropy=path)``, so the mapping from path to
    stream is fixed and documented.
    """

    __slots__ = ("path", "_gen")

    def __init__(self, seed: int | tuple[int, ...], *stream: int):
        self.path = _seed_path(seed, stream)
        ss = np.random.SeedSequence(entropy=list(self.path))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def random(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size, dtype=dtype)

    def bits(self, size) -> np.ndarray:
        """Uniform 0/1 values as uint8, equal to ``integers(0, 2, size,
        dtype=int8 or uint8)`` on a fresh stream.

        numpy draws such a value with Lemire's method on one raw byte, which
        for the range {0, 1} reduces to the byte's top bit; bytes come from
        the raw 64-bit words in little-endian order. Taking the top bits
        directly skips the per-value rejection loop. Each call consumes
        ceil(size/8) raw words, so consecutive calls whose sizes are
        multiples of 8 continue one draw exactly.
        """
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        count = math.prod(shape)
        raw = self._gen.bit_generator.random_raw(-(-count // 8))
        return (raw.astype("<u8", copy=False).view(np.uint8)[:count] >> 7).reshape(shape)

    def bit_rows(self, rows: int, n: int) -> np.ndarray:
        """``rows`` rows of n uniform bits, packed one bit per entry into a
        ``(rows, ceil(n/64))`` little-endian uint64 array of raw Philox words.

        Entry j of a row is bit ``j % 64`` (least significant first) of word
        ``j // 64``; the bits at and above ``n % 64`` in a row's last word
        are zero. Calls continue one draw exactly for any row counts.
        """
        raw = self._gen.bit_generator.random_raw((rows, -(-n // 64))).astype("<u8", copy=False)
        raw[:, -1] &= np.uint64((_UINT64 - 1) >> (-n % 64))
        return raw

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(path={self.path})"


def laplace(rng: Rng, scale: float, size=None):
    """Centered Laplace draw(s) with the given scale parameter.

    Inverse CDF on u in (-1/2, 1/2]:  x = -scale * sign(u) * ln(1 - 2|u|),
    so Pr{|X| > t*scale} = exp(-t) exactly. Draws at scale s equal s times
    the draws at scale 1 from the same underlying uniform stream.
    """
    if not 0.0 < scale < math.inf:  # NaN fails too
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if size is None:
        v = rng.random()
        while v == 0.0:  # measure-zero endpoint would map to +inf
            v = rng.random()
        u = 0.5 - v
        # same numpy ops as the vector path so scalar draws equal vector prefixes
        return float(-scale * np.sign(u) * np.log1p(-2.0 * abs(u)))
    v = rng.random(size)
    mask = v == 0.0
    while np.any(mask):
        v[mask] = rng.random(int(np.count_nonzero(mask)))
        mask = v == 0.0
    u = 0.5 - v
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def gaussian(rng: Rng, stddev: float, size=None):
    """Centered normal draw(s) with the given standard deviation."""
    if not 0.0 < stddev < math.inf:  # NaN fails too
        raise ValueError(f"stddev must be positive and finite, got {stddev}")
    out = stddev * rng.standard_normal(size)
    return float(out) if size is None else out


def binomial_exceedance(m: int, p: float) -> float:
    """Exact Pr{Binomial(m, p) > m/2} by full log-space summation.

    All m+1 point masses are evaluated through lgamma and the upper tail is
    normalized by the computed total mass, which cancels the common
    evaluation error. Terms are assembled so that the j <-> m-j symmetry is
    exact in floating point; for p = 1/2 and odd m the result is exactly 0.5.
    No normal approximation is involved anywhere.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    m = int(m)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    log_p = math.log(p)
    # Reuse log_p when q == p so the two tails use the identical constant.
    log_q = log_p if (1.0 - p) == p else math.log1p(-p)
    lg_total = lgamma(m + 1)
    terms = []
    for j in range(m + 1):
        a, b = lgamma(j + 1), lgamma(m - j + 1)
        if a > b:
            a, b = b, a  # canonical order keeps j <-> m-j evaluation identical
        weight = j * log_p + (m - j) * log_q
        terms.append(math.exp((lg_total - a - b) + weight))
    upper = fsum(t for j, t in enumerate(terms) if 2 * j > m)
    return upper / fsum(terms)
