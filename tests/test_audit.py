import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakyladder.audit import (
    EvaluationSession,
    envelope_check,
    faithfulness_audit,
    leaderboard_error,
    error_rate_ratio,
)
from shakyladder.core import make_random_label_sample
from shakyladder.mechanisms import (
    ExactEmpiricalOracle,
    Ladder,
    LadderConfig,
    MechanismParams,
    ParameterFreeLadder,
    PopulationMinOracle,
    ShakyLadder,
    shaky_params,
)
from shakyladder.analysts import run_random_analyst
from synthetic import build_trace, random_prediction_models, submit_all


def brute_force_lberr(population_risks, released):
    worst = 0.0
    for t in range(len(released)):
        best_so_far = min(population_risks[: t + 1])
        worst = max(worst, abs(best_so_far - released[t]))
    return worst


class TestLeaderboardError:
    def test_exact_tracking_is_zero(self):
        trace = build_trace([0.5, 0.4], [0.5, 0.4])
        assert leaderboard_error(trace) == 0.0

    def test_single_round(self):
        trace = build_trace([0.5], [0.3])
        assert leaderboard_error(trace) == pytest.approx(0.2, abs=1e-15)

    def test_hand_example(self):
        trace = build_trace([0.5, 0.6, 0.3], [0.48, 0.48, 0.35])
        assert leaderboard_error(trace) == pytest.approx(0.05, abs=1e-15)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            leaderboard_error(build_trace([], []))

    def test_missing_population_risks_rejected(self):
        with pytest.raises(ValueError, match="population risks"):
            leaderboard_error(build_trace([math.nan], [0.5]))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=-0.2, max_value=1.2),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, rows):
        pops = [r[0] for r in rows]
        rels = [r[1] for r in rows]
        trace = build_trace(pops, rels)
        assert leaderboard_error(trace) == pytest.approx(
            brute_force_lberr(pops, rels), abs=1e-15
        )

    def test_depends_only_on_running_min_and_releases(self):
        # different population-risk sequences with identical running minima
        a = build_trace([0.5, 0.6, 0.3, 0.9], [0.5, 0.45, 0.35, 0.35])
        b = build_trace([0.5, 0.5, 0.3, 0.3], [0.5, 0.45, 0.35, 0.35])
        assert leaderboard_error(a) == leaderboard_error(b)


class TestEnvelopeCheck:
    def test_zero_noise_trace_deterministic(self):
        params = MechanismParams(n=64, k=50, beta=0.1, delta=1e-6,
                                 epsilon=0.05, lam=0.1, sigma=0.01)
        mech = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=0)
        session = EvaluationSession(mech)
        from shakyladder.core import SubmittedModel
        for risk in (0.8, 0.6, 0.4):
            session.submit(SubmittedModel(np.full(64, risk), risk))
        report = envelope_check(session.trace(), params)
        assert report.max_noise == 0.0
        assert report.envelope == pytest.approx(
            18 * params.epsilon * math.sqrt(report.update_count) + params.lam
        )
        assert report.envelope_satisfied

    def test_forced_violation_detected(self):
        params = MechanismParams(n=64, k=4, beta=0.1, delta=1e-6,
                                 epsilon=0.001, lam=0.05, sigma=0.01)
        # releases pinned at 1 while the true best is 0.2: lberr 0.8
        trace = build_trace([0.2, 0.2], [1.0, 1.0], draws=[(0.01, 0.0, 0.0)] * 2)
        report = envelope_check(trace, params)
        assert report.lberr == pytest.approx(0.8)
        assert not report.envelope_satisfied

    def test_requires_noise_records(self):
        trace = build_trace([0.5], [0.5])
        params = shaky_params(10000, 100, 0.1)
        with pytest.raises(ValueError, match="noise"):
            envelope_check(trace, params)

    def test_recomputes_update_count_from_releases(self):
        draws = [(0.0, 0.0, 0.0)] * 3
        trace = build_trace([0.5, 0.5, 0.5], [0.9, 0.7, 0.7], draws=draws)
        params = MechanismParams(n=4, k=3, beta=0.1, delta=1e-6,
                                 epsilon=0.01, lam=0.05, sigma=0.01)
        report = envelope_check(trace, params)
        assert report.update_count == 2


class TestFaithfulnessAudit:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-0.2, max_value=1.2),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=10000),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference(self, rows, n):
        released = [r[0] for r in rows]
        empirical = [r[1] for r in rows]
        bound = 1.0 / (2.0 * math.sqrt(n))
        prev, updates, violations, worst = 1.0, 0, 0, 0.0
        for rel, emp in zip(released, empirical):
            if rel < prev:
                updates += 1
                worst = max(worst, abs(rel - emp))
                violations += abs(rel - emp) > bound
            prev = rel
        trace = build_trace([0.5] * len(rows), released, empirical=empirical)
        assert trace.update_count == updates
        assert faithfulness_audit(trace, n) == (violations, worst)

    def test_ladder_has_zero_violations(self):
        ladder = Ladder(LadderConfig(eta=0.02))
        session = EvaluationSession(ladder)
        sample = make_random_label_sample(400, 3)
        submit_all(session, random_prediction_models(sample, 200, 3))
        violations, worst = faithfulness_audit(session.trace(), 400)
        assert violations == 0
        assert worst == 0.0

    def test_constructed_violation(self):
        trace = build_trace([0.5, 0.5], [0.9, 0.6], empirical=[0.9, 0.4])
        violations, worst = faithfulness_audit(trace, 100)  # bound 0.05
        assert violations == 1
        assert worst == pytest.approx(0.2)

    def test_shaky_violates_at_flagship_parameters(self):
        params = shaky_params(10000, 100, 0.1)
        total = 0
        for rep in range(30):
            sample = make_random_label_sample(10000, (71, rep))
            mech = ShakyLadder(params, seed=(71, rep))
            _, trace = run_random_analyst(mech, sample, 100, (71, rep))
            violations, _ = faithfulness_audit(trace, 10000)
            total += violations
        assert total > 0  # noise scale dwarfs 1/(2 sqrt(n))


class TestTheoremUbRatio:
    def test_nonnegative(self):
        params = shaky_params(10000, 100, 0.1)
        trace = build_trace([0.5], [0.6], draws=[(0.01, 0.0, 0.0)])
        assert error_rate_ratio(trace, params) >= 0.0

    def test_pinned_percentile_regression(self):
        # regression number pinned from the first seeded oracle run
        params = shaky_params(10000, 1000, 0.1)
        ratios = []
        for rep in range(50):
            sample = make_random_label_sample(10000, (41, rep))
            mech = ShakyLadder(params, seed=(41, rep))
            _, trace = run_random_analyst(mech, sample, 1000, (41, rep))
            ratios.append(error_rate_ratio(trace, params))
        p95 = float(np.percentile(ratios, 95))
        assert p95 == pytest.approx(4.5729725786452216, abs=1e-9)

    def test_median_ratio_does_not_grow_with_n(self):
        medians = {}
        for n in (10000, 20000):
            params = shaky_params(n, 500, 0.1)
            ratios = []
            for rep in range(30):
                sample = make_random_label_sample(n, (43, n, rep))
                mech = ShakyLadder(params, seed=(43, n, rep))
                _, trace = run_random_analyst(mech, sample, 500, (43, n, rep))
                ratios.append(error_rate_ratio(trace, params))
            medians[n] = float(np.median(ratios))
        assert medians[20000] <= medians[10000]


class TestEvaluationSession:
    def test_requires_fresh_mechanism(self):
        oracle = ExactEmpiricalOracle()
        oracle.submit(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            EvaluationSession(oracle)

    @pytest.mark.parametrize("risk,population_risk", [
        (math.nan, 0.5), (math.inf, 0.5), (1.5, 0.5), (-0.1, 0.5),
        (0.5, math.nan), (0.5, -math.inf), (0.5, 1.2),
        # population risks built on call, for the recorded trace: checked as an array is
        pytest.param(0.5, lambda: (math.nan,), id="callable-nan"),
        pytest.param(0.5, lambda: (1.2,), id="callable-above-1"),
        pytest.param(0.5, lambda: (-0.1,), id="callable-below-0"),
        pytest.param(0.5, lambda: (0.5, 0.5), id="callable-length"),
        pytest.param(0.5, lambda: 0.5, id="callable-scalar"),
    ])
    def test_submit_risk_rejects_bad_values(self, risk, population_risk):
        session = EvaluationSession(ExactEmpiricalOracle())
        with pytest.raises(ValueError):
            session.submit_risks((risk,), population_risk if callable(population_risk)
                                 else (population_risk,))
        assert session.mechanism.round == 0

    @pytest.mark.parametrize("make,calls", [
        (lambda: Ladder(LadderConfig(0.1), record=False), 0),
        (lambda: ExactEmpiricalOracle(record=False), 0),
        (lambda: PopulationMinOracle(record=False), 1),
        (PopulationMinOracle, 1),
        (lambda: Ladder(LadderConfig(0.1)), 1),
    ], ids=["ladder", "empirical", "population-min", "population-min-recording",
            "ladder-recording"])
    def test_population_risks_built_only_where_read(self, make, calls):
        # a callable is called once by a mechanism that reads population risks
        # or records them in its trace, and never by one that reads risks only
        made = []
        mechanism = make()
        session = EvaluationSession(mechanism)
        released = session.submit_risks([0.75, 0.5, 0.25],
                                         lambda: made.append(1) or [0.5, 0.375, 0.5])
        assert len(made) == calls and mechanism.round == 3
        if mechanism.needs_population_risk:
            assert released.tolist() == [0.5, 0.375, 0.375]
        if mechanism.records_trace:
            assert session.trace().population_risks.tolist() == [0.5, 0.375, 0.5]

    @pytest.mark.parametrize("risks,losses", [
        ([0.5], None), ([0.5, 0.25], None), ([0.5, 0.25], [np.zeros(4)]), ([0.5], []),
    ])
    def test_vector_reader_needs_a_loss_vector_per_risk(self, risks, losses):
        # pf-ladder reads each round's loss vector: a missing or short column
        # is rejected at the session, before any round runs
        session = EvaluationSession(ParameterFreeLadder())
        with pytest.raises(ValueError, match="reads loss vectors"):
            session.submit_risks(risks, [0.5] * len(risks), losses=losses)
        assert session.mechanism.round == 0
        assert len(session.trace()) == 0

    @pytest.mark.parametrize("losses,rounds,match", [
        ([np.zeros(4), np.ones(5)], 1, "length 5, the incumbent's is 4"),
        ([np.full(4, 9.0), np.full(4, -3.0)], 0, r"\[0, 1\]"),
        ([np.zeros(4), np.full(4, -3.0)], 1, r"\[0, 1\]"),
        ([np.zeros(4), np.full(4, 1.0 + 1e-9)], 1, r"\[0, 1\]"),
        ([np.full(4, np.nan), np.zeros(4)], 0, r"\[0, 1\]"),
        ([np.zeros((2, 2)), np.zeros(4)], 0, "nonempty 1-d"),
        ([np.zeros(0), np.zeros(4)], 0, "nonempty 1-d"),
    ], ids=["length", "above-1", "below-0", "past-tolerance", "nan", "2-d", "empty"])
    def test_vector_reader_rejects_a_bad_loss_vector(self, losses, rounds, match):
        # pf-ladder checks each vector as SubmittedModel does, and its length
        # against the incumbent's, before the vector's round commits
        session = EvaluationSession(ParameterFreeLadder())
        with pytest.raises(ValueError, match=match):
            session.submit_risks([0.5, 0.25], [0.5, 0.5], losses=losses)
        assert session.mechanism.round == rounds
        assert len(session.trace()) == rounds
        # a rejected vector leaves the incumbent as it was
        assert session.submit_risks([0.5], [0.5], losses=[np.full(4, 0.5)]).size == 1

    def test_risk_readers_ignore_the_loss_column(self):
        session = EvaluationSession(ExactEmpiricalOracle())
        assert session.submit_risks([0.5, 0.25], [0.5, 0.5]).tolist() == [0.5, 0.25]
        assert session.submit_risks([0.125], [0.5], losses=[]).tolist() == [0.125]

    def test_trace_carries_population_risks(self):
        from shakyladder.core import SubmittedModel
        session = EvaluationSession(ExactEmpiricalOracle())
        session.submit(SubmittedModel(np.array([0.0, 1.0]), 0.25))
        trace = session.trace()
        assert trace.population_risks[0] == 0.25
        assert leaderboard_error(trace) == pytest.approx(0.25)
