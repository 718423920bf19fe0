"""Seeded randomness and distribution primitives.

Every random quantity in this package flows through :class:`Rng`, a thin
wrapper around numpy's counter-based Philox generator keyed by an explicit
integer path ``(seed, *stream)``. Equal paths give bit-identical streams
across runs and platforms; distinct paths give independent streams, which is
how parallel repetitions and mechanism instances stay reproducible.

The Laplace sampler is an explicit inverse-CDF transform (not a library
sampler) because the tail identity Pr{|X| > t*scale} = exp(-t) is asserted at
tight tolerances and golden files pin the exact draw sequence.

It also holds the input rules, each written once: :func:`_integer`,
:func:`_unit` (a number) and :func:`_unit_array` (an array, up to a
tolerance) within [0, 1], :func:`_binary` (0/1 values), :func:`_shape` (a
draw's size, integers >= 0 that an array can hold), :func:`_positive` (a
positive, finite scale) and :func:`_non_negative` (a finite noise level >= 0),
both real numbers as :func:`_unit` takes them; every public entry point
checks its input with them.
"""

from __future__ import annotations

import math
import numbers
import operator
from math import fsum, lgamma

import numpy as np

__all__ = ["Rng", "laplace", "gaussian", "binomial_exceedance"]

_UINT64 = 2**64
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce  # the ufuncs behind .min() and .max()
_MAX_BYTES = int(np.iinfo(np.intp).max)  # the largest array numpy can make


def _integer(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int; a bool, a non-integer or one below ``least`` is a ValueError."""
    if type(value) is not int:  # a numpy integer passes through __index__, a bool fails
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _real(value) -> bool:
    """Whether ``value`` is a real number, not an array, a string or a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _unit(name: str, value) -> None:
    """Reject ``value`` unless it is a real number within [0, 1] (NaN fails too)."""
    if not (_real(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")


def _unit_array(name: str, values: np.ndarray, tolerance: float = 0.0) -> tuple[float, float]:
    """Reject ``values`` unless they form a nonempty 1-d array within [0, 1] up to
    ``tolerance``; returns their least and greatest value."""
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{name} must form a nonempty 1-d array")
    lo, hi = float(_MIN(values)), float(_MAX(values))
    # Written so that NaN, which fails every comparison, is rejected too.
    if not (lo >= -tolerance and hi <= 1.0 + tolerance):
        within = f" (tolerance {tolerance})" if tolerance else ""
        raise ValueError(f"{name} must lie in [0, 1]{within}, got values in [{lo}, {hi}]")
    return lo, hi


def _binary(name: str, values: np.ndarray) -> None:
    """Reject ``values`` unless every entry is 0 or 1."""
    if not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{name} must be binary")


def _shape(size, bits: int = 64) -> tuple[int, ...]:
    """``size``, one dimension or a tuple or list of them, as a shape of integers >= 0; a draw
    of it, ``bits`` raw bits an entry in 64-bit words, that no array holds is a MemoryError."""
    dims = tuple(size) if isinstance(size, (tuple, list)) else (size,)
    shape = tuple(_integer("size", dim, 0) for dim in dims)
    if 8 * -(-math.prod(shape) * bits // 64) > _MAX_BYTES:
        raise MemoryError(f"a draw of shape {shape} needs over {_MAX_BYTES} bytes, past any array")
    return shape


def _positive(name: str, value: float) -> None:
    """Reject ``value`` unless it is a real number, positive and finite (NaN fails too)."""
    if not (_real(value) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _non_negative(name: str, value: float) -> float:
    """``value``, a noise level, unless it is not a finite real number >= 0 (NaN fails too)."""
    if not (_real(value) and 0.0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def _seed_path(seed: int | tuple[int, ...] | list[int], stream: tuple[int, ...]) -> tuple[int, ...]:
    raw = (*seed, *stream) if isinstance(seed, (tuple, list)) else (seed, *stream)
    path = tuple(_integer("seed path parts", part, 0) for part in raw)
    if max(path, default=0) >= _UINT64:
        raise ValueError(f"seed path parts must lie in [0, 2^64), got {max(path)}")
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
        """Uniform draws in [0, 1); one float for ``size=None``."""
        return self._gen.random(size if size is None else _shape(size))

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size if size is None else _shape(size),
                                  dtype=dtype)

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
        shape = _shape(size, 8)
        count = math.prod(shape)
        raw = self._gen.bit_generator.random_raw(-(-count // 8))
        return (raw.astype("<u8", copy=False).view(np.uint8)[:count] >> 7).reshape(shape)

    def bit_rows(self, rows: int, n: int) -> np.ndarray:
        """``rows`` rows of n uniform bits, packed one bit per entry into a
        ``(rows, ceil(n/64))`` little-endian uint64 array of raw Philox words.

        Entry j of a row is bit ``j % 64`` (least significant first) of word
        ``j // 64``; the bits at and above ``n % 64`` in a row's last word
        are zero. Calls continue one draw exactly for any row counts, so the
        blocks of an attack's query stream (``analysts._query_blocks``), each
        drawn here in turn, are one draw.
        """
        rows, n = _integer("rows", rows, 0), _integer("n", n, 1)  # int n: a Python shift below
        shape = _shape((rows, -(-n // 64)))
        raw = self._gen.bit_generator.random_raw(shape).astype("<u8", copy=False)
        raw[:, -1] &= np.uint64((_UINT64 - 1) >> (-n % 64))
        return raw

    def standard_normal(self, size=None):
        """Standard normal draws; one float for ``size=None``."""
        return self._gen.standard_normal(size if size is None else _shape(size))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(path={self.path})"


def laplace(rng: Rng, scale: float, size=None):
    """Centered Laplace draw(s) with the given scale parameter.

    Inverse CDF on u in (-1/2, 1/2]:  x = -scale * sign(u) * ln(1 - 2|u|),
    so Pr{|X| > t*scale} = exp(-t) exactly. Draws at scale s equal s times
    the draws at scale 1 from the same underlying uniform stream.
    """
    _positive("scale", scale)
    if size is None:  # one draw of the vector path, so scalar draws equal vector prefixes
        return float(laplace(rng, scale, 1)[0])
    v = rng.random(size)
    mask = v == 0.0  # measure-zero endpoint would map to +inf
    while np.any(mask):
        v[mask] = rng.random(int(np.count_nonzero(mask)))
        mask = v == 0.0
    u = 0.5 - v
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def gaussian(rng: Rng, stddev: float, size=None):
    """Centered normal draw(s) with the given standard deviation."""
    _positive("stddev", stddev)
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
    m = _integer("m", m, 1)
    _unit("p", p)
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
