import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from shakyladder.noise import Rng, binomial_exceedance, gaussian, laplace


class TestRng:
    def test_same_path_same_stream(self):
        a = Rng(1234, 5).random(100)
        b = Rng(1234, 5).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(1234, 0).random(50)
        b = Rng(1234, 1).random(50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [
        (-1, ()), (2**64, ()), (0, (-1,)), ((3, 2**64), ()), ((3,), (-7, 1)),
    ])
    def test_out_of_range_seed_parts_rejected(self, seed, stream):
        # Reducing mod 2^64 would make -1 and 2^64 - 1 the same stream.
        with pytest.raises(ValueError):
            Rng(seed, *stream)

    def test_path_recorded(self):
        assert Rng(7, 1, 2).path == (7, 1, 2)
        assert Rng((7, 1), 2).path == (7, 1, 2)
        assert Rng(2**64 - 1, 0).path == (2**64 - 1, 0)


    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           shape=st.one_of(st.integers(0, 80),
                           st.tuples(st.integers(0, 6), st.integers(0, 80))),
           dtype=st.sampled_from([np.int8, np.uint8]))
    @example(seed=0, stream=2, shape=0, dtype=np.int8)
    @example(seed=0, stream=2, shape=1, dtype=np.uint8)
    @example(seed=0, stream=2, shape=7, dtype=np.int8)
    @example(seed=3, stream=1, shape=(3, 13), dtype=np.uint8)
    @example(seed=3, stream=1, shape=(1, 7), dtype=np.int8)
    @example(seed=3, stream=1, shape=(5, 40001), dtype=np.int8)
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_integers_zero_two(self, seed, stream, shape, dtype):
        # Rng.bits relies on numpy drawing integers(0, 2) as the top bit of
        # one raw byte; if numpy changes that algorithm this fails before
        # any golden drifts.
        bits = Rng(seed, stream).bits(shape)
        drawn = Rng(seed, stream).integers(0, 2, shape, dtype=dtype)
        assert bits.dtype == np.uint8
        assert bits.shape == drawn.shape
        assert np.array_equal(bits, drawn)

    @given(seed=st.integers(0, 2**32), n=st.integers(1, 40),
           blocks=st.lists(st.integers(1, 4), min_size=1, max_size=4), tail=st.integers(0, 9))
    @settings(max_examples=50, deadline=None)
    def test_bits_blocks_of_eight_rows_continue_one_draw(self, seed, n, blocks, tail):
        rng = Rng(seed)
        parts = [rng.bits((8 * b, n)) for b in blocks] + [rng.bits((tail, n))]
        rows = 8 * sum(blocks) + tail
        assert np.array_equal(np.vstack(parts), Rng(seed).bits((rows, n)))

    @given(seed=st.integers(0, 2**64 - 1), rows=st.integers(0, 4),
           n=st.one_of(st.sampled_from([1, 63, 64, 65, 128]), st.integers(1, 300)))
    @settings(max_examples=60, deadline=None)
    def test_bit_rows_layout(self, seed, rows, n):
        # entry j of a row is bit j % 64, least significant first, of the
        # row's word j // 64 of the raw stream; bits past n are zero
        words = -(-n // 64)
        packed = Rng(seed).bit_rows(rows, n)
        raw = Rng(seed)._gen.bit_generator.random_raw(rows * words)
        assert packed.dtype == np.dtype("<u8")
        assert packed.shape == (rows, words)
        for i in range(rows):
            for j in range(64 * words):
                expected = (int(raw[i * words + j // 64]) >> (j % 64)) & 1 if j < n else 0
                assert (int(packed[i, j // 64]) >> (j % 64)) & 1 == expected

    @given(seed=st.integers(0, 2**32), n=st.integers(1, 200),
           blocks=st.lists(st.integers(0, 5), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_bit_rows_calls_continue_one_draw(self, seed, n, blocks):
        rng = Rng(seed)
        parts = [rng.bit_rows(rows, n) for rows in blocks]
        assert np.array_equal(np.vstack(parts), Rng(seed).bit_rows(sum(blocks), n))

class TestLaplace:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace(Rng(0), 0.0)
        with pytest.raises(ValueError):
            laplace(Rng(0), -1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_rejects_nonfinite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            laplace(Rng(0), scale)
        with pytest.raises(ValueError, match="finite"):
            laplace(Rng(0), scale, size=3)

    def test_median_of_transform_is_zero(self):
        # u = 0 maps to the median: -scale * sign(0) * log1p(0) = 0.
        u = 0.0
        assert -2.5 * np.sign(u) * np.log1p(-2.0 * abs(u)) == 0.0

    def test_matches_documented_inverse_cdf(self):
        draws = laplace(Rng(5), 2.0, size=1000)
        v = Rng(5).random(1000)
        u = 0.5 - v
        expected = -2.0 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        assert np.array_equal(draws, expected)

    def test_scalar_draw_equals_vector_prefix(self):
        rng = Rng(42)
        first = laplace(rng, 0.5)
        vec = laplace(Rng(42), 0.5, size=3)
        assert first == vec[0]

    def test_scale_linearity_exact(self):
        base = laplace(Rng(17), 1.0, size=2000)
        scaled = laplace(Rng(17), 0.37, size=2000)
        assert np.array_equal(scaled, 0.37 * base)

    @pytest.mark.parametrize("scale", [0.01, 1.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 3.0])
    def test_tail_probability(self, scale, t):
        n = 10**6
        draws = laplace(Rng(271, int(scale * 100), int(t * 10)), scale, size=n)
        p_hat = float(np.mean(np.abs(draws) > t * scale))
        p = math.exp(-t)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(p_hat - p) < 4 * se

    def test_golden_stream(self, fixtures_dir):
        rng = Rng(42)
        got = [laplace(rng, 0.5) for _ in range(20)]
        lines = (fixtures_dir / "laplace_seed42_scale0.5.txt").read_text().splitlines()
        assert got == [float(line) for line in lines]


class TestGaussian:
    def test_rejects_nonpositive_stddev(self):
        with pytest.raises(ValueError):
            gaussian(Rng(0), 0.0)

    @pytest.mark.parametrize("stddev", [math.nan, math.inf])
    def test_rejects_nonfinite_stddev(self, stddev):
        with pytest.raises(ValueError, match="finite"):
            gaussian(Rng(0), stddev)
        with pytest.raises(ValueError, match="finite"):
            gaussian(Rng(0), stddev, size=3)

    def test_moments(self):
        n = 10**6
        draws = gaussian(Rng(33), 1.0, size=n)
        assert abs(float(np.mean(draws))) < 0.004
        assert abs(float(np.var(draws)) - 1.0) < 0.02

    def test_small_stddev_accepted(self):
        stddev = 3.0 / math.sqrt(10000)
        draws = gaussian(Rng(1), stddev, size=100)
        assert np.all(np.isfinite(draws))

    def test_golden_stream(self, fixtures_dir):
        rng = Rng(42)
        got = [gaussian(rng, 1.0) for _ in range(20)]
        lines = (fixtures_dir / "gaussian_seed42_stddev1.txt").read_text().splitlines()
        assert got == [float(line) for line in lines]


def test_uniform_golden_stream(fixtures_dir):
    rng = Rng(42)
    got = [rng.random() for _ in range(20)]
    lines = (fixtures_dir / "uniform_seed42.txt").read_text().splitlines()
    assert got == [float(line) for line in lines]


class TestBinomialExceedance:
    def test_single_trial(self):
        assert binomial_exceedance(1, 0.5) == 0.5

    def test_two_trials(self):
        # only X = 2 exceeds 1
        assert binomial_exceedance(2, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_endpoints(self):
        assert binomial_exceedance(10, 0.0) == 0.0
        assert binomial_exceedance(10, 1.0) == 1.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binomial_exceedance(0, 0.5)
        with pytest.raises(ValueError):
            binomial_exceedance(10, 1.5)
        with pytest.raises(ValueError):
            binomial_exceedance(10, -0.1)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_exact_half_for_odd_m(self, half):
        m = 2 * half + 1
        assert binomial_exceedance(m, 0.5) == 0.5

    @given(
        st.integers(min_value=1, max_value=300),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_in_p(self, m, p1, p2):
        lo, hi = sorted((p1, p2))
        assert binomial_exceedance(m, lo) <= binomial_exceedance(m, hi) + 1e-15

    @pytest.mark.parametrize("m", [11, 101, 1001])
    @pytest.mark.parametrize("coefficient", [0.1, 0.5, 1.0])
    def test_anticoncentration_gain(self, m, coefficient):
        eps = coefficient / math.sqrt(m)
        gain = binomial_exceedance(m, 0.5 + eps) - 0.5
        assert gain >= 0.3 * math.sqrt(m) * eps

    def test_m101_example(self):
        value = binomial_exceedance(101, 0.55)
        assert value >= 0.5 + 0.3 * math.sqrt(101) * 0.05
        # independent route: scipy's survival function
        assert value == pytest.approx(binom.sf(50, 101, 0.55), rel=1e-12)

    @pytest.mark.parametrize(
        "m,p", [(100, 0.25), (1001, 0.5123), (57, 0.93), (2, 0.75), (11, 0.6)]
    )
    def test_cross_check_scipy(self, m, p):
        assert binomial_exceedance(m, p) == pytest.approx(
            binom.sf(math.floor(m / 2), m, p), rel=1e-11, abs=1e-300
        )
