import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakyladder.audit import EvaluationSession
from shakyladder.mechanisms import (
    BudgetExhaustedError,
    ExactEmpiricalOracle,
    Ladder,
    LadderConfig,
    PopulationMinOracle,
    make_mechanism,
)
from shakyladder.noise import Rng
from shakyladder.reduction import (
    AdaptiveEstimator,
    Query,
    run_estimator_session,
    write_session_csv,
)
from synthetic import PerturbedMinOracle, StaleDipOracle


def fresh_estimator(alpha, mechanism=None):
    mechanism = mechanism if mechanism is not None else PopulationMinOracle()
    return AdaptiveEstimator(EvaluationSession(mechanism), alpha)


def const_query(mean, n=50):
    return Query(values=np.full(n, mean), population_mean=mean)


class TestQueryValidation:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            Query(values=np.array([0.5, 1.2]), population_mean=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError):
            Query(values=[bad, 0.5], population_mean=0.5)

    def test_rejects_bad_mean(self):
        with pytest.raises(ValueError):
            Query(values=np.array([0.5]), population_mean=-0.1)

    def test_values_read_only(self):
        q = const_query(0.5)
        with pytest.raises(ValueError):
            q.values[0] = 0.0


class TestHandWorkedAnswers:
    def test_mean_point_six(self):
        # exact oracle, c = 1/2, alpha = 0.1: the schedule walks the risk
        # down in alpha/2 steps; the extracted answer recovers the mean
        # exactly. In real arithmetic the crossing lands at i = 8 with
        # r = 0.40; in binary floats the constructed risk at i = 7 evaluates
        # one ulp below the threshold, so the trigger fires a step early
        # with the same extracted answer.
        est = fresh_estimator(alpha=0.1)
        out = est.answer(const_query(0.6))
        assert out.triggered and not out.clamped
        assert out.trigger_index == 7
        assert out.answer == pytest.approx(0.6, abs=1e-12)
        assert est.c == out.r_value

    def test_mean_zero_exercises_strict_boundary(self):
        # at i = 1 the released value equals c - alpha/2 exactly and the
        # strict comparison must not fire; i = 2 triggers with r = 0.40
        est = fresh_estimator(alpha=0.1)
        out = est.answer(const_query(0.0))
        assert out.trigger_index == 2
        assert out.r_value == pytest.approx(0.40, abs=1e-12)
        assert out.answer == pytest.approx(0.0, abs=1e-12)

    def test_dyadic_alpha_matches_exact_arithmetic(self):
        # alpha = 1/16 and dyadic means keep every quantity exactly
        # representable, so the trigger index equals the real-arithmetic one:
        # first i with (i - 1) * alpha > mean, here i = 12 for mean 0.625.
        est = fresh_estimator(alpha=0.0625)
        out = est.answer(const_query(0.625))
        assert out.trigger_index == 12
        assert out.r_value == 0.5 - 12 * 0.03125 + 0.3125  # exact dyadic
        assert out.answer == 0.625

    def test_dyadic_boundary_does_not_fire_on_equality(self):
        # mean 0.5 = (9 - 1) * alpha exactly: at i = 9 the release equals
        # c - alpha/2 and must not trigger; i = 10 does.
        est = fresh_estimator(alpha=0.0625)
        out = est.answer(const_query(0.5))
        assert out.trigger_index == 10
        assert out.answer == 0.5

    def test_mean_one_exhausts_schedule(self):
        # triggering requires mean < 1 - 2*alpha; the fallback answers 1.0
        est = fresh_estimator(alpha=0.1)
        out = est.answer(const_query(1.0))
        assert out.no_trigger and not out.triggered
        assert out.answer == 1.0
        assert math.isnan(out.r_value)
        assert est.c == 0.5  # threshold untouched on fallback

    def test_session_chain_with_descending_threshold(self):
        outs = run_estimator_session(
            PopulationMinOracle(), [const_query(m) for m in (0.6, 0.3, 0.5)], alpha=0.1
        )
        for out, mean in zip(outs, (0.6, 0.3, 0.5)):
            assert out.triggered and not out.clamped
            assert out.answer == pytest.approx(mean, abs=1e-12)


class TestBudgets:
    def test_query_budget_boundary(self):
        # floor(1/(3 * 0.1)) = 3 queries fit; a fourth breaks the budget
        queries = [const_query(0.4) for _ in range(3)]
        run_estimator_session(PopulationMinOracle(), queries, alpha=0.1)
        with pytest.raises(BudgetExhaustedError):
            run_estimator_session(
                PopulationMinOracle(), queries + [const_query(0.4)], alpha=0.1
            )

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            run_estimator_session(PopulationMinOracle(), [const_query(0.4)], alpha=0.6)
        with pytest.raises(ValueError):
            AdaptiveEstimator(EvaluationSession(PopulationMinOracle()), alpha=0.0)

    def test_underlying_budget_checked_upfront(self):
        mech = PopulationMinOracle(max_rounds=5)  # fewer than ceil(1/alpha) = 10
        est = fresh_estimator(0.1, mech)
        with pytest.raises(BudgetExhaustedError):
            est.answer(const_query(0.6))

    def test_mid_loop_budget_error_carries_state(self):
        # a shared or externally throttled mechanism can die mid-schedule
        # even though the upfront check passed; the error carries the state
        class ThrottledOracle(PopulationMinOracle):
            def rounds_remaining(self):
                return math.inf  # defeats the upfront estimate

        mech = ThrottledOracle(max_rounds=13)
        est = fresh_estimator(0.1, mech)
        est.answer(const_query(0.9))  # consumes 10 rounds, no trigger
        with pytest.raises(BudgetExhaustedError) as excinfo:
            est.answer(const_query(0.9))
        assert excinfo.value.partial["query_index"] == 1
        assert excinfo.value.partial["i"] == 3


class TestConstructedFunctionRange:
    def test_no_clamping_at_initial_threshold(self):
        # at c = 1/2 every constructed value stays inside [0, 1]
        rng = Rng(3)
        for _ in range(20):
            est = fresh_estimator(0.1)
            values = rng.random(30)
            out = est.answer(Query(values=values, population_mean=float(values.mean())))
            assert not out.clamped

    def test_clamping_flagged_when_threshold_low(self):
        est = fresh_estimator(alpha=0.1)
        for mean in (0.0, 0.0, 0.0):  # drive c down toward 0.2
            est.answer(const_query(mean))
        assert est.c < 0.25
        # a spread-out query now pushes constructed values below zero
        values = np.concatenate([np.zeros(25), np.ones(25)])
        out = est.answer(Query(values=values, population_mean=0.5))
        assert out.clamped

    def test_clamped_loss_vectors_stay_in_range(self):
        est = fresh_estimator(alpha=0.1)
        est.c = 0.05  # simulate a deeply descended threshold
        model, clamped = est._constructed_model(const_query(0.0, n=8), 5)
        assert clamped
        assert float(model.loss_vector.min()) >= 0.0


class TestScalarSchedule:
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64),
        c=st.floats(-0.5, 1.0),
        alpha=st.floats(0.01, 0.49),
        position=st.floats(0.0, 1.0, exclude_max=True),
        population_mean=st.floats(0.0, 1.0),
    )
    @settings(max_examples=500, deadline=None)
    def test_closed_form_matches_constructed_model(self, values, c, alpha, position,
                                                   population_mean):
        est = fresh_estimator(alpha)
        est.c = c
        i = int(position * est.steps_per_query)
        query = Query(values=np.array(values), population_mean=population_mean)
        model, clamped = est._constructed_model(query, i)
        stats = (float(np.mean(query.values)), float(query.values.min()),
                 float(query.values.max()))
        risk, population_risk, closed_clamped = est._scheduled_risks(stats, population_mean, i)
        assert closed_clamped == clamped
        assert population_risk == model.population_risk
        if not clamped:
            assert abs(risk - float(np.mean(model.loss_vector))) <= 1e-15

    @pytest.mark.parametrize("name,reads_vectors", [("pf-ladder", True), ("ladder", False)])
    def test_loss_vectors_built_only_where_read(self, name, reads_vectors):
        # pf-ladder decides on the loss vector itself; the Ladder gets the
        # scalar risk of every unclamped step.
        mech = make_mechanism(name, n=40, eta=0.05)
        session = EvaluationSession(mech)
        vectors = []
        submit = session.submit

        def spy(model):
            vectors.append(model.loss_vector)
            return submit(model)

        session.submit = spy
        out = AdaptiveEstimator(session, alpha=0.1).answer(
            Query(values=Rng(4).random(40), population_mean=0.5))
        assert not out.clamped and mech.round == out.submissions
        assert len(vectors) == (out.submissions if reads_vectors else 0)


class TestOracleExactness:
    def test_thousand_random_triggered_queries(self):
        # sessions sized so thresholds stay high and nothing clamps
        alpha = 0.05
        rng = Rng(101)
        checked = 0
        session_index = 0
        while checked < 1000:
            mech = PopulationMinOracle()
            est = fresh_estimator(alpha, mech)
            for _ in range(4):
                mean = float(0.05 + 0.75 * rng.random())
                values = np.clip(mean + 0.2 * (rng.random(40) - 0.5), 0.0, 1.0)
                out = est.answer(Query(values=values, population_mean=mean))
                assert out.triggered, "means below 1 - 2*alpha must trigger"
                if not out.clamped:
                    assert abs(out.answer - mean) < 1e-12
                    checked += 1
            session_index += 1
        assert session_index <= 300


class TestAccuracyTransfer:
    """Against any alpha/2-accurate refresh-on-update mechanism the
    extracted answers are alpha-accurate and the threshold falls by at most
    3*alpha/2 per query."""

    ALPHA = 0.05

    def _run_patterns(self, mode, patterns, queries_per_pattern=4):
        alpha = self.ALPHA
        rng = Rng(777, hash(mode) % 1000)
        worst_answer = 0.0
        worst_descent = 0.0
        triggered = 0
        for pattern in range(patterns):
            mech = PerturbedMinOracle(alpha / 2, rng.substream(pattern), mode=mode)
            est = fresh_estimator(alpha, mech)
            for _ in range(queries_per_pattern):
                mean = float(0.05 + 0.7 * rng.random())
                c_before = est.c
                out = est.answer(const_query(mean, n=20))
                if out.triggered:
                    triggered += 1
                    worst_answer = max(worst_answer, abs(out.answer - mean))
                    worst_descent = max(worst_descent, c_before - est.c)
        assert triggered > patterns  # the families do produce triggers
        assert worst_answer <= self.ALPHA + 1e-12
        assert worst_descent <= 1.5 * self.ALPHA + 1e-12

    def test_nonnegative_offset_patterns(self):
        self._run_patterns("nonnegative", patterns=500)

    def test_constant_offset_patterns(self):
        self._run_patterns("constant", patterns=500)

    def test_false_trigger_boundary_demonstration(self):
        # Stale releases that dip below the threshold right after a query
        # boundary falsely trigger the very first offset round, and the
        # extracted answer can then miss by far more than alpha even though
        # the mechanism honors the leaderboard-error contract throughout.
        # This is why the adversary families above refresh only on new
        # minima: so the guarantee being tested is the one that holds.
        alpha = 0.1
        probe = StaleDipOracle(alpha / 2, dip_round=10**9)
        est = fresh_estimator(alpha, probe)
        first = est.answer(const_query(0.2))
        assert first.triggered
        dip_round = first.submissions  # dip exactly at the next query's start
        mech = StaleDipOracle(alpha / 2, dip_round=dip_round)
        est = fresh_estimator(alpha, mech)
        est.answer(const_query(0.2))
        out = est.answer(const_query(0.8))
        assert out.triggered and out.trigger_index == 0
        assert abs(out.answer - 0.8) > alpha


def test_session_csv_schema(tmp_path):
    outs = run_estimator_session(
        PopulationMinOracle(), [const_query(0.6), const_query(1.0)], alpha=0.15
    )
    path = tmp_path / "session.csv"
    write_session_csv(outs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "query_index,i_triggered,r_value,a_value,c_after,clamped,no_trigger"
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[1] == ""  # no trigger index on the fallback
    assert lines[2].split(",")[6] == "1"


def test_works_against_empirical_mechanisms():
    # constructed functions are plain loss vectors, so ordinary mechanisms
    # can sit under the estimator too
    est = fresh_estimator(0.1, Ladder(LadderConfig(eta=0.05)))
    out = est.answer(const_query(0.4, n=30))
    assert out.triggered
    assert out.answer == pytest.approx(0.4, abs=1e-9)
    est2 = fresh_estimator(0.1, ExactEmpiricalOracle())
    out2 = est2.answer(const_query(0.4, n=30))
    assert out2.triggered
    assert out2.answer == pytest.approx(0.4, abs=1e-9)
