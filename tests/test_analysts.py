import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shakyladder import analysts
from shakyladder.analysts import (
    FLOAT32_EXACT,
    AttackReport,
    HIDDEN_STREAM,
    _attack_cells,
    _query_blocks,
    _submit_rows,
    _vote_weight,
    majority_attack_direct,
    majority_attack_vs_mechanism,
    run_random_analyst,
    shifted_majority_attack,
)
from shakyladder.audit import EvaluationSession
from shakyladder.core import (HoldoutSample, empirical_risk, make_random_label_sample,
                              model_from_predictions)
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
from reference import query_bits, vstack_majority_attack
from synthetic import random_prediction_models, submit_all


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

    @pytest.mark.parametrize("n,k", [
        (1, FLOAT32_EXACT), (64, FLOAT32_EXACT + 1), (FLOAT32_EXACT + 5, 2**30),
    ])
    def test_float32_bound_checked_before_drawing(self, n, k, no_draws):
        with pytest.raises(ValueError, match="2\\^24"):
            majority_attack_direct(n, k, 0.5)

    @pytest.mark.parametrize("n,k", [(0, 1), (10, 0), (-3, 5)])
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

    @given(n=st.integers(1, 200), k_grid=st.lists(st.integers(0, 300), min_size=1, max_size=4),
           multipliers=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=8),
           rows_per_block=st.sampled_from([None, 3, 16]), seed=st.integers(0, 2**32),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_noise_order_permutes_columns(self, n, k_grid, multipliers, rows_per_block, seed,
                                          data):
        # the sign patterns are bits in the order of the levels given; any
        # order counts the same rows, so a shuffle only permutes the columns
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
           cuts=st.lists(st.integers(0, 12), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_vote(self, k, n, seed, cuts):
        # the per-block weights, summed over any split of the rows into
        # blocks, give the label of the one-loop vote; ties and an empty
        # selection give label 0
        rng = Rng(seed)
        preds = rng.integers(0, 2, (k, n), dtype=np.int8)
        signs = rng.integers(-1, 2, k, dtype=np.int8)
        weights = [sum(int(s) * (1 - 2 * int(p)) for s, p in zip(signs, preds[:, j]))
                   for j in range(n)]
        bounds = [0, *sorted(min(cut, k) for cut in cuts), k]
        vote = np.zeros(n, dtype=np.float32)
        for start, stop in zip(bounds, bounds[1:]):
            vote += _vote_weight(preds[start:stop].astype(np.float32), signs[start:stop])
        assert (vote < 0).astype(int).tolist() == [int(w < 0) for w in weights]

    @pytest.mark.parametrize("shape", [(2**24, 1), (2**24 + 5, 2**24)])
    def test_float32_bound_checked(self, shape, no_draws):
        # the reader checks k before it draws a query
        k, n = shape
        with pytest.raises(ValueError, match="2\\^24"):
            _query_blocks(0, k, n)


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
    ``Rng.bit_rows`` draw.
    """

    @staticmethod
    def _blocked(rows_per_block, n, run):
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block is not None:
                patch.setattr(analysts, "BLOCK_ENTRIES", rows_per_block * n)
            return run()

    @pytest.mark.parametrize("kind", MECHANISM_NAMES)
    def test_attack_vs_mechanism(self, kind):
        n, k = 1001, 70

        def run():
            sample = make_random_label_sample(n, (5, 1))
            mechanism = make_mechanism(kind, n=n, k=k + 1, seed=(5, 2))
            report, trace = majority_attack_vs_mechanism(mechanism, sample, k, (5, 3), "direct")
            return report, _trace_columns(trace)

        default = self._blocked(None, n, run)
        for rows in (1, 7, 24):
            assert self._blocked(rows, n, run) == default

    @pytest.mark.parametrize("kind", ["ladder", "pf-ladder", "population-min"])
    def test_shifted_attack(self, kind):
        n, k = 401, 20

        def run():
            sample = make_random_label_sample(n, (6, 1))
            mechanism = make_mechanism(kind, n=n)
            report, trace = shifted_majority_attack(mechanism, sample, k, 0.05, (6, 3))
            return report, mechanism.round, _trace_columns(trace)

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


def test_attack_memory_does_not_grow_with_k():
    # the attack holds one query block, not the k x n matrix: at n = 5000 a
    # 5000-query matrix alone would take 25 MB as bytes, 100 MB as float32
    n = 5000

    def peak(k):
        sample = make_random_label_sample(n, 8)
        tracemalloc.start()
        try:
            majority_attack_vs_mechanism(ExactEmpiricalOracle(record=False), sample, k, 8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(500), peak(5000)
    assert large < 1.2 * small + 256 * 1024, (small, large)

    # the vector attack's grid holds one block as uint8 bits (1 MB) and one
    # float32 count row per sign pattern (at most 14 x 160 KB), whatever k
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
    assert max(small, large) < 8 * 2**20, (small, large)


class TestAttackVsMechanism:
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

    def test_budget_error_propagates(self, no_draws):
        sample = make_random_label_sample(100, 4)
        # mechanism sized for exactly k rounds cannot take the majority model;
        # the budget is checked before any query is drawn or submitted
        mech = Ladder(LadderConfig(eta=0.1), max_rounds=5)
        with pytest.raises(BudgetExhaustedError):
            majority_attack_vs_mechanism(mech, sample, 5, 4)
        assert mech.round == 0

    def test_unknown_selection_mode(self, no_draws):
        sample = make_random_label_sample(10, 0)
        for k in (0, 2):
            mechanism = ExactEmpiricalOracle()
            with pytest.raises(ValueError, match="selection"):
                majority_attack_vs_mechanism(mechanism, sample, k, 0, selection="best")
            assert mechanism.round == 0

    @pytest.mark.parametrize("attack", ["plain", "shifted", "random"])
    def test_size_mismatch_rejected_before_any_round(self, attack, no_draws):
        # a Shaky Ladder for n = 10000 on a 300-point holdout: risks reach it
        # in batches, which skip the per-vector length check of submit
        mechanism = ShakyLadder(shaky_params(10000, 101 * 20, 0.1), seed=3)
        sample = make_random_label_sample(300, 3)
        with pytest.raises(ValueError, match="length 300, expected 10000"):
            if attack == "plain":
                majority_attack_vs_mechanism(mechanism, sample, 100, 3)
            elif attack == "shifted":
                shifted_majority_attack(mechanism, sample, 100, 0.05, 3)
            else:
                run_random_analyst(mechanism, sample, 100, 3)
        assert mechanism.round == 0


class TestShiftedAttack:
    @pytest.mark.parametrize("alpha", [0.0, math.nan, -0.1, 0.5, math.inf])
    def test_bad_alpha_rejected_before_drawing(self, alpha, no_draws):
        # alpha = 0 used to raise ZeroDivisionError, NaN "cannot convert float
        # NaN to integer"
        sample = make_random_label_sample(100, 23)
        with pytest.raises(ValueError, match="alpha"):
            shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample, 5, alpha, seed=23)

    def test_negative_k_rejected_before_drawing(self, no_draws):
        # used to fail in numpy with "negative dimensions are not allowed"
        sample = make_random_label_sample(100, 24)
        with pytest.raises(ValueError, match="k must be >= 0"):
            shifted_majority_attack(Ladder(LadderConfig(eta=0.01)), sample, -1, 0.1, seed=24)
        with pytest.raises(ValueError, match="k must be >= 0"):
            majority_attack_vs_mechanism(ExactEmpiricalOracle(), sample, -1, 24)

    def test_every_query_triggers_against_exact_oracle(self):
        # random queries have population mean 1/2 < 1 - 2*alpha, and each
        # triggered query lowers the threshold by alpha/2 here, so k = 8
        # keeps the whole attack above the threshold's floor of alpha/2
        sample = make_random_label_sample(300, 21)
        mech = PopulationMinOracle()
        report, _ = shifted_majority_attack(mech, sample, 8, alpha=0.1, seed=21)
        assert report.feedback_received == 8
        assert report.queries_issued == 9

    def test_budget_checked_upfront(self):
        sample = make_random_label_sample(300, 22)
        mech = PopulationMinOracle(max_rounds=50)
        with pytest.raises(BudgetExhaustedError):
            shifted_majority_attack(mech, sample, 10, alpha=0.1, seed=22)

    def test_forces_more_feedback_than_plain_attack_on_ladder(self):
        # paired comparison on identical seeds; the offset schedule converts
        # silent rounds into answered queries
        n, k, alpha = 400, 30, 0.02
        for rep in range(100):
            sample = make_random_label_sample(n, (61, rep))
            plain_mech = Ladder(LadderConfig(eta=alpha / 2))
            plain, _ = majority_attack_vs_mechanism(plain_mech, sample, k, (61, rep))
            shifted_mech = Ladder(LadderConfig(eta=alpha / 2))
            shifted, _ = shifted_majority_attack(
                shifted_mech, sample, k, alpha, (61, rep)
            )
            assert shifted.feedback_received >= plain.feedback_received

    def test_neutralized_by_randomized_ladder(self):
        # at parameters where the randomized ladder is alive, the shifted
        # attack extracts nothing: mean final error stays at one half
        n, k, alpha = 10000, 30, 0.02
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
