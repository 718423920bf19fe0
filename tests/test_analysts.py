import math
import threading
import tracemalloc
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shakyladder import analysts, reduction
from shakyladder.analysts import (
    AttackReport,
    HIDDEN_STREAM,
    QUERY_STREAM,
    _attack_cells,
    _add_votes,
    _pack,
    _submit_rows,
    majority_attack_direct,
    majority_attack_vs_mechanism,
    run_random_analyst,
    shifted_majority_attack,
)
from shakyladder.audit import EvaluationSession
from shakyladder.cli import cli_main
from shakyladder.core import (HoldoutSample, _unpack, empirical_risk,
                              make_random_label_sample, model_from_predictions)
from shakyladder.experiments import VARY_NOISE_GRID
from shakyladder.mechanisms import (
    MECHANISM_NAMES,
    BudgetExhaustedError,
    ExactEmpiricalOracle,
    Ladder,
    LadderConfig,
    PopulationMinOracle,
    ShakyLadder,
    make_mechanism,
    shaky_params,
)
from shakyladder.noise import Rng
from shakyladder.reduction import AdaptiveEstimator
from reference import query_bits, vector_shifted_attack, vstack_majority_attack
from synthetic import random_prediction_models, submit_all

# A shifted attack past the reduction's query budget must say so where it is meant.
pytestmark = pytest.mark.filterwarnings("error:.*reduction's budget:RuntimeWarning")


def loop_form_majority(hidden, queries, answers):
    """Independent re-implementation of the select/flip/vote step."""
    n = hidden.size
    weights = [0.0] * n
    for qi in range(queries.shape[0]):
        sign = 1.0 if answers[qi] > 0.0 else -1.0
        for j in range(n):
            weights[j] += sign * queries[qi, j]
    final = [1 if w >= 0.0 else -1 for w in weights]
    return sum(1 for j in range(n) if final[j] != hidden[j]) / n


class TestDirectAttack:
    def test_needs_positive_k_and_n(self):
        with pytest.raises(ValueError):
            majority_attack_direct(10, 0)
        with pytest.raises(ValueError):
            majority_attack_direct(0, 1)

    def test_numpy_integer_n(self):
        # n from a numpy array used to raise OverflowError in Rng.bit_rows
        assert majority_attack_direct(np.int64(400), 20) == majority_attack_direct(400, 20)

    def test_single_matching_query_recovers_hidden(self):
        # with one query equal to the hidden vector the answer is +1, the
        # query is kept as-is and the vote reproduces the labels exactly;
        # simulated by patching the drawn query to equal the hidden vector
        n = 64
        hidden = 2 * Rng(5, HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1
        queries = hidden.reshape(1, n).astype(np.float64)
        answers = (queries @ hidden) / n
        assert answers[0] == 1.0
        assert loop_form_majority(hidden, queries, answers) == 0.0

    def test_single_flipped_query_recovers_hidden(self):
        n = 64
        hidden = 2 * Rng(5, HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1
        queries = (-hidden).reshape(1, n).astype(np.float64)
        answers = (queries @ hidden) / n
        assert answers[0] == -1.0  # negated and re-added: error still zero
        assert loop_form_majority(hidden, queries, answers) == 0.0

    def test_loop_form_parity(self):
        # vectorized implementation against the plain-loop re-implementation
        for seed in range(6):
            n, k = 50, 21
            report = majority_attack_direct(n, k, None, seed=seed)
            hidden = 2 * Rng(seed, HIDDEN_STREAM).integers(0, 2, n, dtype=np.int8) - 1
            queries = 2.0 * query_bits(seed, k, n) - 1.0
            answers = (queries @ hidden) / n
            assert report.final_error == pytest.approx(
                loop_form_majority(hidden, queries, answers), abs=1e-15
            )

    def test_monte_carlo_pinned_mean(self):
        # regression value frozen from the seeded run on the packed query
        # stream (one bit per entry); the documented bound is far looser
        errs = [
            majority_attack_direct(10000, 500, None, seed=(31, rep)).final_error
            for rep in range(100)
        ]
        mean = float(np.mean(errs))
        assert mean == pytest.approx(0.42927200000000004, abs=1e-12)
        assert mean < 0.5 - 0.5 * math.sqrt(500 / 10000) * 0.2

    def test_bias_grows_with_k(self):
        means = []
        for k in (50, 400):
            errs = [
                majority_attack_direct(4000, k, None, seed=(77, k, rep)).final_error
                for rep in range(40)
            ]
            means.append(float(np.mean(errs)))
        assert means[1] < means[0] < 0.5

    def test_noise_weakens_the_attack(self):
        n, k = 4000, 300
        noisy, clean = [], []
        for rep in range(40):
            clean.append(majority_attack_direct(n, k, None, seed=(78, rep)).final_error)
            noisy.append(
                majority_attack_direct(n, k, 3.0 / math.sqrt(n), seed=(78, rep)).final_error
            )
        assert np.mean(clean) < np.mean(noisy) < 0.52

    @pytest.mark.parametrize("stddev", [math.nan, math.inf, -1.0])
    def test_bad_noise_rejected_before_drawing(self, stddev, no_draws):
        # nan used to end in a matmul shape error, inf returned a report, and
        # -1.0 was caught only after the whole query matrix was drawn
        with pytest.raises(ValueError, match="noise_stddev"):
            majority_attack_direct(40000, 1000, stddev)

    # k = 5.5 used to run 5 queries and report 5.5 issued, and True one reported as True
    @pytest.mark.parametrize("n,k", [(0, 1), (10, 0), (-3, 5), (100, 5.5), (100, True),
                                     (100, "5"), (100.5, 5)])
    def test_bad_sizes_rejected_before_drawing(self, n, k, no_draws):
        with pytest.raises(ValueError):
            majority_attack_direct(n, k, 0.5)

    @pytest.mark.parametrize("n,k", [
        (64, 2000),   # one sign pattern holds more than 255 rows of a block
        (4, 270000),  # ... and more than 65535 rows of one block here
    ])
    def test_pattern_counts_do_not_overflow(self, n, k):
        # each pattern's rows are summed in an integer type sized to its row count
        assert majority_attack_direct(n, k, None, seed=3) == vstack_majority_attack(n, k, None, 3)

    @pytest.mark.parametrize("ones,seed", [(False, 2), (True, 1), (True, 2)])
    @pytest.mark.parametrize("k", [63, 64, 16383, 16384])
    def test_count_type_switches(self, k, ones, seed, monkeypatch):
        # the counts are int8 up to k = 63, int16 up to 16383 and int32 from
        # 16384 on. All-ones query rows vote alike on the noiseless level, so
        # its doubled count reaches 2k when the hidden bits of seed 1 are
        # mostly ones, and -2k for seed 2: both ends of the type's range.
        n = 5
        if ones:
            row = _pack(np.ones(n, dtype=np.uint8))
            monkeypatch.setattr(Rng, "bit_rows", lambda self, rows, n: np.tile(row, (rows, 1)))
        stddevs = [0.0, 1.0 / math.sqrt(n)]
        _, errors, selected = _attack_cells(n, (k,), stddevs, seed)
        for level, stddev in enumerate(stddevs):
            ref = vstack_majority_attack(n, k, stddev, seed)
            assert (errors[0, level], selected[0, level]) == (ref.final_error,
                                                              ref.selected_count), level

    def test_group_parts_unpack_in_chunks(self, monkeypatch):
        # with BLOCK_ENTRIES at 3 rows of n entries, a grid block holds 6
        # rows, so one level's four threshold groups often get a part of
        # more than 3 rows; no unpack may take more than 3 rows at a time
        n, k_grid, seed = 100, (7, 600), 3
        monkeypatch.setattr(analysts, "BLOCK_ENTRIES", 3 * n)
        unpacked = []

        def spy(block, n):
            unpacked.append(len(block))
            return _unpack(block, n)

        monkeypatch.setattr(analysts, "_unpack", spy)
        ks, errors, selected = _attack_cells(n, k_grid, [1.0 / math.sqrt(n)], seed)
        assert max(unpacked) == 3 and sum(unpacked) == k_grid[-1]
        for cell, k in enumerate(ks):
            ref = vstack_majority_attack(n, k, 1.0 / math.sqrt(n), seed)
            assert (errors[cell, 0], selected[cell, 0]) == (ref.final_error, ref.selected_count)

    def test_more_levels_than_a_word_has_bits(self):
        # 70 distinct levels: a sign pattern keyed as an int64 bitmask would
        # merge rows that differ only at levels 64 and up
        n, k, seed = 100, 400, 5
        stddevs = [m / math.sqrt(n) for m in np.linspace(0.0, 6.0, 70)]
        _, errors, selected = _attack_cells(n, (k,), stddevs, seed)
        for level, stddev in enumerate(stddevs):
            ref = vstack_majority_attack(n, k, stddev, seed)
            assert (errors[0, level], selected[0, level]) == (ref.final_error,
                                                              ref.selected_count), level

    @pytest.mark.parametrize("stddev", [math.nan, math.inf])
    def test_grid_rejects_nonfinite_levels_before_drawing(self, stddev, no_draws):
        # the threshold groups need every level's sign to be monotone in its
        # scale, which a NaN or infinite scale breaks
        with pytest.raises(ValueError, match="finite"):
            _attack_cells(100, (10,), [0.1, stddev], 0)

    def test_equal_levels_give_equal_columns(self):
        n, k_grid, seed = 300, (40, 700), 9
        stddevs = [m / math.sqrt(n) for m in (1.0, 0.0, 1.0, 3.0, 0.0, 1.0)]
        _, errors, selected = _attack_cells(n, k_grid, stddevs, seed)
        for same in ([0, 2, 5], [1, 4]):
            for column in same[1:]:
                np.testing.assert_array_equal(errors[:, column], errors[:, same[0]])
                np.testing.assert_array_equal(selected[:, column], selected[:, same[0]])
        for level in (0, 1, 3):
            ref = vstack_majority_attack(n, k_grid[1], stddevs[level], seed)
            assert (errors[1, level], selected[1, level]) == (ref.final_error,
                                                              ref.selected_count)

    def test_pending_counts_flush_before_overflow(self, monkeypatch):
        # all-ones query rows, one per block: a group's uint8 pending row
        # then holds its row count in every column, so holding a 256th row
        # before the flush would wrap it to 0. Without noise the ~800 rows
        # of each of the two groups past k = 100 would lose 3 x 256 that way,
        # enough to move the vote (+/-1700) past its threshold (+/-850).
        n, k_grid, seed = 101, (100, 1700), 6
        ones = _pack(np.ones(n, dtype=np.uint8))
        monkeypatch.setattr(Rng, "bit_rows", lambda self, rows, n: np.tile(ones, (rows, 1)))
        monkeypatch.setattr(analysts, "BLOCK_ENTRIES", n)
        stddevs = [0.0, 2.0 / math.sqrt(n)]
        ks, errors, selected = _attack_cells(n, k_grid, stddevs, seed)
        for cell, k in enumerate(ks):
            for level, stddev in enumerate(stddevs):
                ref = vstack_majority_attack(n, k, stddev, seed)
                assert (errors[cell, level], selected[cell, level]) == (ref.final_error,
                                                                        ref.selected_count)

    @given(n=st.integers(1, 200),
           k_grid=st.lists(st.integers(0, 300) | st.integers(250, 1500), min_size=1, max_size=4),
           multipliers=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8),
           rows_per_block=st.sampled_from([None, 3, 16, 254, 255, 256]),
           seed=st.integers(0, 2**32), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_noise_order_permutes_columns(self, n, k_grid, multipliers, rows_per_block, seed,
                                          data):
        # the threshold groups follow the levels sorted by scale, whatever
        # order they are given in, so a shuffle only permutes the columns
        stddevs = [m / math.sqrt(n) for m in multipliers]
        perm = data.draw(st.permutations(range(len(stddevs))))
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block is not None:
                patch.setattr(analysts, "BLOCK_ENTRIES", rows_per_block * n)
            ks, errors, selected = _attack_cells(n, k_grid, stddevs, seed)
            shuffled = _attack_cells(n, k_grid, [stddevs[i] for i in perm], seed)
        assert shuffled[0] == ks
        np.testing.assert_array_equal(shuffled[1], errors[:, perm])
        np.testing.assert_array_equal(shuffled[2], selected[:, perm])

    def test_report_fields(self):
        report = majority_attack_direct(100, 7, None, seed=1)
        assert report.queries_issued == 7
        assert report.feedback_received == 7
        assert 0 <= report.selected_count <= 7
        assert math.isnan(report.final_released)


class TestVote:
    @given(k=st.integers(0, 12), n=st.integers(1, 12), seed=st.integers(0, 2**32),
           cuts=st.lists(st.integers(0, 12), max_size=4),
           signs_of=st.sampled_from(["random", "plus", "minus", "zero"]),
           block_rows=st.none() | st.integers(1, 4))
    @example(k=9, n=7, seed=3, cuts=[4], signs_of="plus", block_rows=None)  # no -1 rows
    @example(k=9, n=7, seed=3, cuts=[4], signs_of="minus", block_rows=None)  # no +1 rows
    @example(k=9, n=7, seed=4, cuts=[], signs_of="zero", block_rows=None)  # count unchanged
    @example(k=12, n=5, seed=5, cuts=[], signs_of="random", block_rows=2)  # parts of 2 rows
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_vote(self, k, n, seed, cuts, signs_of, block_rows):
        # the in-place folds, over any split of the rows into blocks, give
        # the label of the one-loop vote; ties and an empty selection give
        # label 0. Each side of a block is unpacked in parts of at most
        # BLOCK_ENTRIES entries, block_rows rows when it is patched, and a
        # side without rows not at all
        rng = Rng(seed)
        preds = rng.integers(0, 2, (k, n), dtype=np.int8).astype(np.uint8)
        signs = {"random": rng.integers(-1, 2, k, dtype=np.int8), "plus": np.ones(k, np.int8),
                 "minus": -np.ones(k, np.int8), "zero": np.zeros(k, np.int8)}[signs_of]
        weights = [sum(int(s) * (1 - 2 * int(p)) for s, p in zip(signs, preds[:, j]))
                   for j in range(n)]
        packed = np.array([_pack(row) for row in preds], dtype="<u8").reshape(k, -(-n // 64))
        bounds = [0, *sorted(min(cut, k) for cut in cuts), k]
        step = block_rows or max(k, 1)  # unpatched, one part holds every row
        count = np.arange(n, dtype=np.int64)  # a fold adds to what count holds
        unpacked, parts = [], []
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                patch.setattr(analysts, "BLOCK_ENTRIES", block_rows * n)
            patch.setattr(analysts, "_unpack",
                          lambda rows, n: unpacked.append(len(rows)) or _unpack(rows, n))
            for start, stop in zip(bounds, bounds[1:]):
                _add_votes(count, packed[start:stop], signs[start:stop])
                for sign in (1, -1):
                    rows = int(np.count_nonzero(signs[start:stop] == sign))
                    parts += [step] * (rows // step) + [rows % step] * (rows % step > 0)
        count -= np.arange(n)
        assert (2 * count > int(signs.sum())).astype(int).tolist() == [int(w < 0)
                                                                       for w in weights]
        assert unpacked == parts
        if signs_of == "zero":
            assert count.tolist() == [0] * n


class TestRiskProduct:
    @given(n=st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 300)),
           labels=st.sampled_from(["random", "zeros", "ones"]),
           seed=st.integers(0, 2**32), count=st.integers(0, 5))
    @example(n=10001, labels="ones", seed=3, count=2)
    @example(n=13, labels="zeros", seed=4, count=0)
    @settings(max_examples=100, deadline=None)
    def test_equals_empirical_risk_of_the_model(self, n, labels, seed, count):
        # rows come straight from Rng.bit_rows, so a set bit past n in a
        # row's last word would count as a mismatch; all-0 and all-1 rows
        # and labels included
        hidden = {"random": Rng(seed, 1).bits(n), "zeros": np.zeros(n, dtype=np.uint8),
                  "ones": np.ones(n, dtype=np.uint8)}[labels]
        sample = HoldoutSample(size=n, hidden_labels=hidden, seed=0)
        block = np.vstack([Rng(seed).bit_rows(count, n),
                           analysts._pack(np.zeros(n, dtype=np.uint8)),
                           analysts._pack(np.ones(n, dtype=np.uint8))])
        risks, released = _submit_rows(EvaluationSession(ExactEmpiricalOracle()), block,
                                       analysts._pack(hidden), sample)
        rows = np.unpackbits(block.view(np.uint8), axis=1, count=n, bitorder="little")
        expected = [float(np.mean(row != hidden)) for row in rows]
        assert risks.tolist() == expected
        assert released.tolist() == expected
        assert expected == [empirical_risk(model_from_predictions(row, sample)) for row in rows]


def _trace_columns(trace):
    """The trace's columns as bytes: equal exactly when bit-identical, NaN included."""
    return [column.tobytes() for column in (trace.empirical_risks, trace.released,
                                            trace.population_risks, trace.noise)]


class TestBlockIndependence:
    """Reports and traces do not depend on how the query stream is blocked.

    No n here is a multiple of 64 and some row counts are odd, so a block
    that did not end on a whole row's words would break the one continued
    ``Rng.bit_rows`` draw. A block holds ``2 * BLOCK_ENTRIES`` entries, so
    the patched value is half a block, rounded up: 2 * ceil(rows * n / 2)
    // n is rows for any n > 1, odd or even; an unpack then takes about
    half a block's rows at a time.
    """

    @staticmethod
    def _blocked(rows_per_block, n, run):
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block is not None:
                patch.setattr(analysts, "BLOCK_ENTRIES", -(-rows_per_block * n // 2))
            return run()

    @pytest.mark.parametrize("kind", MECHANISM_NAMES)
    def test_attack_vs_mechanism(self, kind):
        # theorem selection, the envelope experiment's, leaves whole blocks
        # without a voting row
        n, k = 1001, 70

        def run():
            sample = make_random_label_sample(n, (5, 1))
            mechanism = make_mechanism(kind, n=n, k=k + 1, seed=(5, 2))
            report, trace = majority_attack_vs_mechanism(mechanism, sample, k, (5, 3), selection)
            return report, _trace_columns(trace)

        for selection in ("direct", "theorem"):
            default = self._blocked(None, n, run)
            for rows in (1, 7, 24):
                assert self._blocked(rows, n, run) == default, selection

    @pytest.mark.parametrize("kind", ["ladder", "pf-ladder", "population-min"])
    def test_shifted_attack(self, kind):
        n, k = 401, 20

        def run():
            sample = make_random_label_sample(n, (6, 1))
            mechanism = make_mechanism(kind, n=n)
            report, trace = shifted_majority_attack(mechanism, sample, k, 0.05, (6, 3))
            return report, mechanism.round, _trace_columns(trace)

        with pytest.warns(RuntimeWarning, match="budget"):  # 21 queries against 6
            default = self._blocked(None, n, run)
            for rows in (3, 16):
                assert self._blocked(rows, n, run) == default

    def test_random_analyst(self):
        n, k = 601, 50

        def run():
            sample = make_random_label_sample(n, (7, 1))
            mechanism = make_mechanism("noisy", n=n, seed=(7, 2))
            released, trace = run_random_analyst(mechanism, sample, k, (7, 3))
            return released, _trace_columns(trace)

        default = self._blocked(None, n, run)
        for rows in (5, 24):
            assert self._blocked(rows, n, run) == default


@pytest.mark.parametrize("attack", ["vs-mechanism", "shifted"])
@pytest.mark.parametrize("kind", ["pf-ladder", "noisy"])
def test_attacks_unpack_in_chunks(attack, kind, monkeypatch):
    # with BLOCK_ENTRIES at 3 rows of n entries a block holds 6 rows: no
    # unpack, of a vote's side or of pf-ladder's loss vectors, may take more
    # than 3 rows at a time, and the reports stay those of the default blocks
    n, k = 301, 30

    def run():
        sample = make_random_label_sample(n, (4, 1))
        mechanism = make_mechanism(kind, n=n, seed=(4, 2))
        if attack == "shifted":
            with pytest.warns(RuntimeWarning, match="budget"):  # 31 queries against 6
                return shifted_majority_attack(mechanism, sample, k, 0.05, (4, 3))[0]
        return majority_attack_vs_mechanism(mechanism, sample, k, (4, 3), "direct")[0]

    default = repr(run())  # repr: a NaN final_released equals itself
    unpacked = []

    def spy(rows, n):
        unpacked.append(len(np.atleast_2d(rows)))  # an estimator query unpacks one 1-d row
        return _unpack(rows, n)

    monkeypatch.setattr(analysts, "_unpack", spy)
    monkeypatch.setattr(reduction, "_unpack", spy)
    monkeypatch.setattr(analysts, "BLOCK_ENTRIES", 3 * n)
    assert repr(run()) == default
    assert max(unpacked) == 3, unpacked


def test_attack_memory_does_not_grow_with_k():
    # the attack holds one query block, the one it folds, not the k x n
    # matrix: at n = 5000 a 5000-query matrix alone would take 25 MB as
    # bytes, 100 MB as float32
    def peak(n, k, selection="theorem"):
        sample = make_random_label_sample(n, 8)
        tracemalloc.start()
        try:
            majority_attack_vs_mechanism(ExactEmpiricalOracle(record=False), sample, k, 8,
                                         selection)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(5000, 500), peak(5000, 5000)
    assert large < 1.2 * small + 256 * 1024, (small, large)
    # with direct selection every row votes: per block (209 rows at n = 10^4,
    # 256 KB packed, one alive) a side's rows are copied packed and unpacked to
    # uint8 one part of at most BLOCK_ENTRIES entries (1 MB) at a time, each
    # part summed and folded into the count before the next; a float32 copy of
    # the block alone would take 8 MB
    direct = peak(10**4, 5000, "direct")
    assert direct < 2 * 2**20, direct

    # the vector attack's grid holds one packed block (256 KB at n = 40000)
    # and a copy of its rows sorted by threshold group, unpacks at
    # most BLOCK_ENTRIES entries at a time (1 MB as uint8 bits), and keeps per
    # group an int16 count row and a uint8 pending row (16 x 120 KB for seven
    # levels), whatever k: a peak of about 4.0 MiB
    n = 40000
    stddevs = [m / math.sqrt(n) for m in VARY_NOISE_GRID]

    def grid_peak(k):
        tracemalloc.start()
        try:
            _attack_cells(n, (100, k), stddevs, 8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = grid_peak(200), grid_peak(1000)
    assert large < 1.2 * small + 256 * 1024, (small, large)
    assert max(small, large) < 5 * 2**20, (small, large)


def test_envelope_cell_memory():
    # one rep of an envelope cell at n = 10^4, k = 1000: five blocks of 209
    # rows (256 KB packed), one alive at a time, its mismatch counts XORed
    # in one pass (a 256 KB temporary): a peak of about 0.69 MiB
    n, k = 10**4, 1000
    sample = make_random_label_sample(n, 8)
    mechanism = ShakyLadder(shaky_params(n, k + 1, 0.1), 8)
    tracemalloc.start()
    try:
        majority_attack_vs_mechanism(mechanism, sample, k, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.9 * 2**20, peak


def _stream(seed, k, n):
    return list(analysts._query_blocks(seed, k, n))


class TestDrawWorker:
    """There is no draw worker: ``_query_blocks`` draws each block with ``Rng.bit_rows`` on the
    calling thread as it is read, whether the process sees one CPU or several (``parallel``:
    where a draw thread once drew every block after a stream's first). The blocks are those of
    one draw, whatever their row counts or a failed draw."""

    @pytest.mark.parametrize("parallel", [True, False])
    @pytest.mark.parametrize("n, k, rows", [(1, 7, 3), (63, 40, 7), (64, 33, 1), (65, 50, 4),
                                            (1001, 20, 6), (3000, 9, 2)])
    def test_blocks_continue_one_draw(self, n, k, rows, parallel, visible_cpus, draw_threads,
                                      monkeypatch):
        visible_cpus(4 if parallel else 1)
        monkeypatch.setattr(analysts, "BLOCK_ENTRIES", -(-rows * max(n, 64) // 2))
        expected = Rng((3, n), QUERY_STREAM).bit_rows(k, n)
        draw_threads.clear()
        before = threading.enumerate()
        blocks = _stream((3, n), k, n)
        assert [len(block) for block in blocks] == [min(rows, k - s) for s in range(0, k, rows)]
        assert np.array_equal(np.concatenate(blocks), expected)
        assert draw_threads == [threading.main_thread()] * len(blocks)
        assert threading.enumerate() == before

    def test_draw_error_raised_at_its_block(self, monkeypatch):
        n, k, rows = 100, 30, 4
        monkeypatch.setattr(analysts, "BLOCK_ENTRIES", rows * n // 2)
        expected = Rng(0, QUERY_STREAM).bit_rows(k, n)
        calls, draw = [], Rng.bit_rows

        def failing(rng, rows, n):  # the third draw of the stream fails
            calls.append(rows)
            if len(calls) == 3:
                raise MemoryError("third block")
            return draw(rng, rows, n)

        monkeypatch.setattr(Rng, "bit_rows", failing)
        read = []
        with pytest.raises(MemoryError, match="third block"):
            for block in analysts._query_blocks(0, k, n):
                read.append(block)
        assert calls == [rows] * 3
        assert np.array_equal(np.concatenate(read), expected[:2 * rows])
        monkeypatch.setattr(Rng, "bit_rows", draw)
        assert np.array_equal(np.concatenate(_stream(0, k, n)), expected)

    def test_abandoned_stream_leaves_the_next_one_whole(self, monkeypatch):
        n, k = 200, 40
        monkeypatch.setattr(analysts, "BLOCK_ENTRIES", 5 * n // 2)
        blocks = analysts._query_blocks(1, k, n)
        next(blocks)
        blocks.close()  # its next block is never drawn
        for seed in (2, 1):
            assert np.array_equal(np.concatenate(_stream(seed, k, n)),
                                  Rng(seed, QUERY_STREAM).bit_rows(k, n))

    def test_one_block_stream_starts_no_thread(self, draw_threads):
        before = threading.enumerate()
        blocks = _stream(4, 50, 1000)
        assert len(blocks) == 1 and draw_threads == [threading.main_thread()]
        assert threading.enumerate() == before

    def test_one_cpu_starts_no_thread(self, visible_cpus, draw_threads):
        visible_cpus(1)
        before = threading.enumerate()
        majority_attack_direct(40000, 200)  # four blocks
        assert draw_threads == [threading.main_thread()] * 4
        assert threading.enumerate() == before

    def test_every_block_drawn_by_bit_rows_on_the_calling_thread(self, draw_threads, capsys):
        # vary-noise at n = 40000 reads 20 blocks of 52 queries: one bit_rows call each
        assert cli_main(["--experiment", "vary-noise", "--n", "40000", "--k", "100,1000",
                         "--reps", "1"]) == 0
        assert draw_threads == [threading.main_thread()] * 20


class TestAttackVsMechanism:
    @pytest.mark.parametrize("label", [0, 1])
    def test_sign_counts_do_not_overflow(self, label, monkeypatch):
        # all-ones query rows and constant labels: every row has risk 0 or 1,
        # so under direct selection all 300 rows of the one block vote with
        # the same sign. Each column then sums to 300, which a uint8 sum would
        # wrap to 44, flipping every label. The attack needs k <= n, so a
        # block holds more than 255 rows only from n = 256 up.
        n = k = 300
        labels = np.full(n, label, dtype=np.uint8)
        sample = HoldoutSample(size=n, hidden_labels=labels, seed=0)
        ones = _pack(np.ones(n, dtype=np.uint8))
        monkeypatch.setattr(Rng, "bit_rows", lambda self, rows, n: np.tile(ones, (rows, 1)))
        report, _ = majority_attack_vs_mechanism(ExactEmpiricalOracle(record=False), sample, k,
                                                 0, selection="direct")
        rows = np.ones((k, n), dtype=np.uint8)
        signs = [1 if np.mean(row != labels) < 0.5 else -1 for row in rows]
        votes = [sum(s * (1 - 2 * int(b)) for s, b in zip(signs, rows[:, j])) for j in range(n)]
        final = np.array([int(vote < 0) for vote in votes])
        assert report.final_error == float(np.mean(final != labels)) == 0.0
        assert report.selected_count == signs.count(1) == k * label

    def test_rejects_k_above_n(self):
        sample = make_random_label_sample(10, 0)
        with pytest.raises(ValueError):
            majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, 11, 0)

    def test_k_zero_empty_selection_convention(self):
        # majority over nothing is the all-plus-one prediction: label zero
        # everywhere, so the final error is the fraction of one-labels
        sample = make_random_label_sample(4000, 9)
        report, trace = majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, 0, 9)
        assert report.selected_count == 0
        assert report.queries_issued == 1
        assert report.final_error == pytest.approx(float(np.mean(sample.hidden_labels)))
        assert abs(report.final_error - 0.5) < 0.03

    @pytest.mark.parametrize("selection,constant,min_wins", [
        ("direct", 0.2, 34),    # constants fixed by the Monte Carlo oracle:
        ("theorem", 0.1, 34),   # direct achieves 0.2, theorem 0.1
    ])
    def test_overfits_exact_empirical_oracle(self, selection, constant, min_wins):
        n, k, reps = 10000, 500, 100
        bound = 0.5 - constant * math.sqrt(k / n)
        wins = 0
        for rep in range(reps):
            sample = make_random_label_sample(n, (37, rep))
            report, _ = majority_attack_vs_mechanism(
                ExactEmpiricalOracle(), sample, k, (37, rep), selection=selection
            )
            wins += report.final_error <= bound
        assert wins >= min_wins

    def test_trace_rounds_and_population_risks(self):
        sample = make_random_label_sample(200, 3)
        report, trace = majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, 5, 3)
        assert len(trace) == 6  # k queries plus the majority round
        assert np.all(trace.population_risks == 0.5)
        assert report.final_released == trace.released[-1]

    def test_budget_error_propagates(self, request):
        sample = make_random_label_sample(100, 4)
        request.getfixturevalue("no_draws")
        # mechanism sized for exactly k rounds cannot take the majority model;
        # the budget is checked before any query is drawn or submitted
        mech = Ladder(LadderConfig(eta=0.1), max_rounds=5)
        with pytest.raises(BudgetExhaustedError):
            majority_attack_vs_mechanism(mech, sample, 5, 4)
        assert mech.round == 0

    def test_unknown_selection_mode(self, request):
        sample = make_random_label_sample(10, 0)
        request.getfixturevalue("no_draws")
        for k in (0, 2):
            mechanism = ExactEmpiricalOracle()
            with pytest.raises(ValueError, match="selection"):
                majority_attack_vs_mechanism(mechanism, sample, k, 0, selection="best")
            assert mechanism.round == 0

    @pytest.mark.parametrize("attack", ["plain", "shifted", "random"])
    def test_size_mismatch_rejected_before_any_round(self, attack, request):
        # a Shaky Ladder for n = 10000 on a 300-point holdout: risks reach it
        # in batches, which skip the per-vector length check of submit
        mechanism = ShakyLadder(shaky_params(10000, 101 * 20, 0.1), seed=3)
        sample = make_random_label_sample(300, 3)
        request.getfixturevalue("no_draws")
        with pytest.raises(ValueError, match="length 300, expected 10000"):
            if attack == "plain":
                majority_attack_vs_mechanism(mechanism, sample, 100, 3)
            elif attack == "shifted":
                shifted_majority_attack(mechanism, sample, 100, 0.05, 3)
            else:
                run_random_analyst(mechanism, sample, 100, 3)
        assert mechanism.round == 0


class TestShiftedAttack:
    @pytest.mark.parametrize("alpha", [0.0, math.nan, -0.1, 0.5, math.inf, "0.1", None])
    def test_bad_alpha_rejected_before_drawing(self, alpha, request):
        # alpha = 0 used to raise ZeroDivisionError, NaN "cannot convert float
        # NaN to integer", a string or None "'<' not supported"
        sample = make_random_label_sample(100, 23)
        request.getfixturevalue("no_draws")
        with pytest.raises(ValueError, match="alpha"):
            shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample, 5, alpha, seed=23)

    def test_negative_k_rejected_before_drawing(self, request):
        # used to fail in numpy with "negative dimensions are not allowed"
        sample = make_random_label_sample(100, 24)
        request.getfixturevalue("no_draws")
        with pytest.raises(ValueError, match="k must be >= 0"):
            shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample, -1, 0.1, seed=24)
        with pytest.raises(ValueError, match="k must be >= 0"):
            majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, -1, 24)
        with pytest.raises(ValueError, match="k must be >= 0"):
            run_random_analyst(ExactEmpiricalOracle(), sample, -5, 24)

    @pytest.mark.parametrize("k", [5.5, True])
    def test_non_integer_k_rejected_before_drawing(self, k, request):
        # k = 5.5 used to fail in range() with a TypeError
        sample = make_random_label_sample(100, 24)
        request.getfixturevalue("no_draws")
        with pytest.raises(ValueError, match="k must be an integer"):
            shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample, k, 0.1, seed=24)
        with pytest.raises(ValueError, match="k must be an integer"):
            majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, k, 24)
        with pytest.raises(ValueError, match="k must be an integer"):
            run_random_analyst(ExactEmpiricalOracle(), sample, k, 24)

    def test_numpy_k_reported_as_python_int(self):
        sample = make_random_label_sample(100, 24)
        reports = [majority_attack_direct(100, np.int64(10), seed=24),
                   majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, np.int64(10),
                                                24)[0],
                   shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample,
                                           np.int64(10), 0.02, seed=24)[0]]
        assert [type(report.queries_issued) for report in reports] == [int] * 3
        assert [report.queries_issued for report in reports] == [10, 11, 11]

    def test_every_query_triggers_against_exact_oracle(self):
        # random queries have population mean 1/2 < 1 - 2*alpha, and each
        # triggered query lowers the threshold by alpha/2 here, so k = 8
        # keeps the whole attack above the threshold's floor of alpha/2; its
        # 9 queries stay inside the budget floor(1/(3 alpha)) = 11
        sample = make_random_label_sample(300, 21)
        mech = PopulationMinOracle()
        report, _ = shifted_majority_attack(mech, sample, 8, alpha=0.03, seed=21)
        assert report.feedback_received == 8
        assert report.queries_issued == 9

    def test_budget_checked_upfront(self):
        sample = make_random_label_sample(300, 22)
        mech = PopulationMinOracle(max_rounds=50)
        with pytest.raises(BudgetExhaustedError):
            shifted_majority_attack(mech, sample, 10, alpha=0.1, seed=22)

    def test_forces_more_feedback_than_plain_attack_on_ladder(self):
        # paired comparison on identical seeds; the offset schedule converts
        # silent rounds into answered queries (31 of them, inside the budget of 33)
        n, k, alpha = 400, 30, 0.01
        for rep in range(100):
            sample = make_random_label_sample(n, (61, rep))
            plain_mech = Ladder(LadderConfig(eta=alpha / 2))
            plain, _ = majority_attack_vs_mechanism(plain_mech, sample, k, (61, rep))
            shifted_mech = Ladder(LadderConfig(eta=alpha / 2))
            shifted, _ = shifted_majority_attack(
                shifted_mech, sample, k, alpha, (61, rep)
            )
            assert shifted.feedback_received >= plain.feedback_received

    @pytest.mark.parametrize("k,expected", [(100, [0, 0, 0]), (120, [0, 0, 0]),
                                            (200, [70, 67, 68])])
    def test_clamped_queries_counted(self, k, expected, monkeypatch):
        # the query budget floor(1/(3 alpha)) is 133 here: k = 100 and 120
        # stay inside it, while k = 200 goes past it, warns, and clamps from
        # about query 130 on; the count includes the final query
        n, alpha = 2500, 1 / 400
        outcomes = []
        answer = AdaptiveEstimator.answer

        def recording_answer(self, query):
            outcomes.append(answer(self, query))
            return outcomes[-1]

        monkeypatch.setattr(AdaptiveEstimator, "answer", recording_answer)
        counts = []
        for rep in range(3):
            outcomes.clear()
            sample = make_random_label_sample(n, (rep, 0))
            mech = Ladder(LadderConfig(eta=alpha / 2), record=False)
            with pytest.warns(RuntimeWarning, match="budget") if k + 1 > 133 else nullcontext():
                report, _ = shifted_majority_attack(mech, sample, k, alpha, (rep, 0))
            assert len(outcomes) == report.queries_issued == k + 1
            assert report.clamped_queries == sum(out.clamped for out in outcomes)
            assert report.untriggered_queries == 0
            counts.append(report.clamped_queries)
        assert counts == expected

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    @pytest.mark.parametrize("k,alpha,selection", [(5, 0.05, "direct"), (40, 0.05, "direct"),
                                                   (40, 0.05, "theorem")])
    def test_equals_vector_queries_per_step(self, name, k, alpha, selection):
        # packed queries through the batch schedule against float64 vector
        # queries one round per step; k = 40 runs far past the query budget
        # of 6, so that the schedule clamps
        n, steps = 401, math.ceil(1 / alpha)
        runs = []
        for attack in (shifted_majority_attack, vector_shifted_attack):
            sample = make_random_label_sample(n, (31, k))
            mechanism = make_mechanism(name, n=n, k=(k + 1) * steps, eta=alpha / 2, seed=(31, 1))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report, trace = attack(mechanism, sample, k, alpha, (31, 2), selection)
            runs.append((repr(report), _trace_columns(trace), mechanism.round,
                         mechanism.update_count))
        assert runs[0] == runs[1]
        if k > 6 and name in ("ladder", "empirical", "population-min"):
            assert "clamped_queries=0," not in runs[0][0]

    def test_query_budget_warns_before_drawing(self, request):
        # floor(1/(3 alpha)) = 133 at alpha = 1/400: 201 queries are past it
        sample = make_random_label_sample(2500, 0)
        request.getfixturevalue("no_draws")
        with pytest.warns(RuntimeWarning, match=r"k\+1 = 201 .* = 133;"):
            with pytest.raises(AssertionError, match="drew before"):
                shifted_majority_attack(Ladder(LadderConfig(eta=1 / 800)), sample, 200, 1 / 400, 0)

    @pytest.mark.parametrize("k,warns", [(100, False), (132, False), (133, True), (200, True)])
    def test_query_budget_warning_once_and_only_past_it(self, k, warns):
        sample = make_random_label_sample(2500, (0, 0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report, _ = shifted_majority_attack(Ladder(LadderConfig(eta=1 / 800), record=False),
                                                sample, k, 1 / 400, (0, 0))
        assert [str(w.message).split(";")[0] for w in caught] == [
            f"the shifted attack sends k+1 = {k + 1} estimator queries, more than the "
            "reduction's budget floor(1/(3 alpha)) = 133"] * warns
        assert report.queries_issued == k + 1

    def test_untriggered_queries_counted(self):
        # a ladder with eta = 1/2 never releases below the threshold, so no
        # query triggers, the final one included
        sample = make_random_label_sample(200, 3)
        with pytest.warns(RuntimeWarning, match="budget"):  # 6 queries against 3
            report, _ = shifted_majority_attack(Ladder(LadderConfig(eta=0.5)), sample, 5, 0.1, 3)
        assert (report.feedback_received, report.untriggered_queries) == (0, 6)
        assert report.clamped_queries == 0
        assert math.isnan(report.final_released)

    def test_other_attacks_report_no_estimator_queries(self):
        sample = make_random_label_sample(200, 4)
        plain, _ = majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, 20, 4)
        for report in (plain, majority_attack_direct(200, 20, 0.1, seed=4)):
            assert (report.clamped_queries, report.untriggered_queries) == (0, 0)

    def test_neutralized_by_randomized_ladder(self):
        # at parameters where the randomized ladder is alive, the shifted
        # attack extracts nothing: mean final error stays at one half; its 31
        # queries stay inside the budget floor(1/(3 alpha)) = 33
        n, k, alpha = 10000, 30, 0.01
        steps = math.ceil(1 / alpha)
        params = shaky_params(n, (k + 1) * steps, 0.1)
        errs = []
        for rep in range(20):
            sample = make_random_label_sample(n, (62, rep))
            mech = ShakyLadder(params, seed=(62, rep), record=False)
            report, _ = shifted_majority_attack(mech, sample, k, alpha, (62, rep))
            errs.append(report.final_error)
        assert abs(float(np.mean(errs)) - 0.5) < 0.01


class TestRandomAnalyst:
    def test_models_are_deterministic(self):
        sample = make_random_label_sample(50, 5)
        a = random_prediction_models(sample, 3, 5)
        b = random_prediction_models(sample, 3, 5)
        for x, y in zip(a, b):
            assert np.array_equal(x.loss_vector, y.loss_vector)
            assert x.population_risk == 0.5

    def test_run_returns_scored_trace(self):
        sample = make_random_label_sample(50, 6)
        released, trace = run_random_analyst(ExactEmpiricalOracle(), sample, 4, 6)
        assert len(released) == 4
        assert np.all(trace.population_risks == 0.5)

    @pytest.mark.parametrize("kind", MECHANISM_NAMES)
    def test_equals_whole_models_one_round_each(self, kind):
        # the batch of product risks against the models' loss vectors
        n, k = 10000, 300
        sample = make_random_label_sample(n, 12)
        fast = make_mechanism(kind, n=n, k=k, seed=13)
        released, trace = run_random_analyst(fast, sample, k, 14)
        slow = make_mechanism(kind, n=n, k=k, seed=13)
        session = EvaluationSession(slow)
        assert released == submit_all(session, random_prediction_models(sample, k, 14))
        assert _trace_columns(trace) == _trace_columns(session.trace())
        assert (fast.round, fast.update_count) == (slow.round, slow.update_count)


def test_attack_report_validation():
    with pytest.raises(ValueError):
        AttackReport(final_error=1.5, selected_count=0, queries_issued=1, feedback_received=0)
    with pytest.raises(ValueError):
        AttackReport(final_error=0.5, selected_count=2, queries_issued=1, feedback_received=0)
    for field in ("clamped_queries", "untriggered_queries"):
        for bad in (-1, 4):
            with pytest.raises(ValueError, match=field):
                AttackReport(final_error=0.5, selected_count=0, queries_issued=3,
                             feedback_received=0, **{field: bad})
        report = AttackReport(final_error=0.5, selected_count=0, queries_issued=3,
                              feedback_received=0, **{field: 3})
        assert getattr(report, field) == 3
