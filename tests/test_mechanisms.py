import dataclasses
import functools
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakyladder import mechanisms
from shakyladder.audit import EvaluationSession
from shakyladder.core import SubmittedModel, make_random_label_sample, write_trace_csv
from shakyladder.mechanisms import (
    BudgetExhaustedError,
    ExactEmpiricalOracle,
    Ladder,
    LadderConfig,
    LeaderboardMechanism,
    MECHANISM_NAMES,
    MechanismParams,
    NoisyEmpiricalOracle,
    ParameterFreeLadder,
    ParameterRegimeError,
    PopulationMinOracle,
    ShakyLadder,
    make_mechanism,
    shaky_params,
)
from shakyladder.analysts import run_random_analyst
from shakyladder.noise import Rng
from synthetic import random_prediction_models, submit_all

FLAGSHIP = dict(n=10000, k=100, beta=0.1)


def off_regime_params(n=64, k=500, lam=0.08, sigma=0.01):
    """Hand-built params for tests that do not need the derived regime."""
    return MechanismParams(n=n, k=k, beta=0.1, delta=1e-8, epsilon=0.05, lam=lam, sigma=sigma)


class TestShakyParams:
    def test_flagship_values(self):
        p = shaky_params(**FLAGSHIP)
        # frozen from an independent evaluation of the closed-form settings
        assert p.delta == pytest.approx(1e-7, rel=1e-12)
        assert p.epsilon == pytest.approx(0.0292278106180236, rel=1e-12)
        assert p.sigma == pytest.approx(0.0137360094106399, rel=1e-12)
        assert p.lam == pytest.approx(0.4557085756350237, rel=1e-12)
        # and consistent with their commonly quoted 4-digit roundings
        assert p.epsilon == pytest.approx(0.02925, rel=2e-3)
        assert p.sigma == pytest.approx(0.013726, rel=2e-3)
        assert p.lam == pytest.approx(0.4554, rel=2e-3)

    def test_derived_fields_recomputable(self):
        p = shaky_params(**FLAGSHIP)
        assert p.delta == p.beta / (p.k * p.n)
        assert p.sigma == pytest.approx(
            math.sqrt(math.log(1 / p.delta)) / (p.epsilon * p.n), rel=1e-12
        )
        assert p.lam == pytest.approx(
            4 * math.log(4 * p.k / p.beta) * p.sigma, rel=1e-12
        )

    def test_small_n_rejected(self):
        # epsilon evaluates to about 1.56 here, far outside (0, 1/3)
        with pytest.raises(ParameterRegimeError, match="epsilon"):
            shaky_params(10, 100, 0.1)

    def test_epsilon_decreases_as_beta_grows(self):
        lo = shaky_params(10000, 100, 0.1)
        hi = shaky_params(10000, 100, 0.2)
        assert hi.epsilon < lo.epsilon

    def test_warns_below_sample_requirement(self):
        with pytest.warns(RuntimeWarning, match="generalization requirement"):
            shaky_params(**FLAGSHIP)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shaky_params(0, 10, 0.1)
        with pytest.raises(ValueError):
            shaky_params(100, 10, 1.5)


class TestShakyLadder:
    def test_zero_noise_accepts_clear_improvement(self):
        params = off_regime_params(n=4, lam=0.5)
        mech = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=0)
        assert mech.submit(np.full(4, 0.3)) == 0.3

    def test_zero_noise_rejects_insufficient_improvement(self):
        params = off_regime_params(n=4, lam=0.5)
        mech = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=0)
        assert mech.submit(np.full(4, 0.6)) == 1.0

    def test_budget_error(self):
        params = off_regime_params(n=4, k=2)
        mech = ShakyLadder(params, seed=0)
        mech.submit(np.full(4, 0.5))
        mech.submit(np.full(4, 0.5))
        with pytest.raises(BudgetExhaustedError):
            mech.submit(np.full(4, 0.5))

    def test_length_mismatch(self):
        params = off_regime_params(n=4)
        mech = ShakyLadder(params, seed=0)
        with pytest.raises(ValueError):
            mech.submit(np.full(5, 0.5))

    def test_draw_accounting_is_3k_plus_1(self):
        # one threshold draw up front, three per round
        params = off_regime_params(n=8, k=20)
        mech = ShakyLadder(params, seed=3)
        rng = Rng(77)
        for _ in range(20):
            mech.submit(rng.random(8))
        trace = mech.trace()
        draw_count = int(np.count_nonzero(~np.isnan(trace.noise))) + 1
        assert draw_count == 3 * 20 + 1

    def test_golden_trace(self, fixtures_dir, tmp_path):
        params = shaky_params(**FLAGSHIP)
        sample = make_random_label_sample(10000, 7)
        mech = ShakyLadder(params, seed=7)
        _, trace = run_random_analyst(mech, sample, 100, 7)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        assert out.read_bytes() == (fixtures_dir / "shaky_trace_seed7.csv").read_bytes()


class TestZeroNoiseDegeneration:
    def test_matches_ladder_on_random_streams(self):
        # same submissions through both mechanisms, compared field by field
        params = off_regime_params(n=32, k=300, lam=0.06)
        for seed in range(5):
            shaky = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=seed)
            ladder = Ladder(LadderConfig(eta=params.lam))
            rng = Rng(1000 + seed)
            for _ in range(300):
                vec = rng.random(32)
                assert shaky.submit(vec) == ladder.submit(vec)
            st, lt = shaky.trace(), ladder.trace()
            assert np.array_equal(st.released, lt.released)
            assert np.array_equal(st.empirical_risks, lt.empirical_risks)
            assert st.update_count == lt.update_count
            assert st.max_noise_magnitude == 0.0


class TestLadder:
    def test_release_on_clear_improvement(self):
        ladder = Ladder(LadderConfig(eta=0.1))
        ladder.submit(np.full(2, 0.5))
        assert ladder.submit(np.full(2, 0.30)) == pytest.approx(0.30, abs=1e-15)

    def test_no_update_within_margin(self):
        ladder = Ladder(LadderConfig(eta=0.1))
        ladder.submit(np.full(2, 0.5))
        assert ladder.submit(np.full(2, 0.45)) == 0.5

    def test_rounded_release(self):
        ladder = Ladder(LadderConfig(eta=0.1, rounding="multiples-of-eta"))
        ladder.submit(np.full(4, 0.5))
        assert ladder.submit(np.full(4, 0.333)) == pytest.approx(0.3, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LadderConfig(eta=0.0)
        with pytest.raises(ValueError):
            LadderConfig(eta=0.1, rounding="up")

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_config_rejects_nonfinite_eta(self, eta):
        # such a step never updates, so every run would report B = 0
        with pytest.raises(ValueError, match="finite"):
            LadderConfig(eta=eta)


class TestParameterFreeLadder:
    def test_first_submission_always_updates(self):
        pf = ParameterFreeLadder()
        assert pf.submit(np.full(4, 0.375)) == 0.375

    def test_identical_resubmission_never_updates(self):
        pf = ParameterFreeLadder()
        vec = Rng(5).random(16)
        first = pf.submit(vec)
        assert pf.submit(vec.copy()) == first
        assert not pf.trace().updated[1]

    def test_update_when_gap_beats_step(self):
        n = 100
        incumbent = np.full(n, 0.6)
        diff = np.where(np.arange(n) < 50, 0.4, -0.6)  # mean -0.1, sd about 0.5
        challenger = incumbent + diff
        pf = ParameterFreeLadder()
        pf.submit(incumbent)
        step = np.std(diff, ddof=1) / math.sqrt(n)
        assert 1.0 / math.sqrt(n) > step  # gap 0.1 clears the data-driven step
        released = pf.submit(challenger)
        assert released == pytest.approx(0.5, abs=1e-12)  # rounded at granularity 0.01
        assert pf.trace().updated[1]

    def test_release_rounded_to_leading_digit_of_step(self):
        n = 100
        incumbent = np.full(n, 0.6)
        diff = np.where(np.arange(n) < 50, 0.4, -0.6) - 0.023
        challenger = np.clip(incumbent + diff, 0, 1)
        pf = ParameterFreeLadder()
        pf.submit(incumbent)
        released = pf.submit(challenger)
        risk = float(np.mean(challenger))
        step = np.std(challenger - incumbent, ddof=1) / math.sqrt(n)
        granularity = 10.0 ** math.floor(math.log10(step))  # 0.01 here
        assert granularity == pytest.approx(0.01)
        assert released == pytest.approx(round(risk / granularity) * granularity, abs=1e-12)
        assert abs(released - risk) <= granularity / 2 + 1e-12


class TestOracles:
    def test_empirical_oracle(self):
        oracle = ExactEmpiricalOracle()
        assert oracle.submit(np.array([0.0, 1.0])) == 0.5

    def test_population_min_running_minimum(self):
        oracle = PopulationMinOracle()
        out = [
            oracle.submit(np.full(2, 0.5), population_risk=r)
            for r in (0.5, 0.4, 0.45)
        ]
        assert out == [0.5, 0.4, 0.4]

    def test_population_min_requires_risk(self):
        oracle = PopulationMinOracle()
        with pytest.raises(ValueError):
            oracle.submit(np.full(2, 0.5))

    def test_noisy_oracle_clt(self):
        n = 10000
        stddev = 3.0 / math.sqrt(n)
        oracle = NoisyEmpiricalOracle(stddev, seed=9)
        vec = np.full(16, 0.25)
        calls = 10**4
        mean = np.mean([oracle.submit(vec) for _ in range(calls)])
        assert abs(mean - 0.25) < 4 * stddev / math.sqrt(calls)

    def test_noisy_oracle_validation(self):
        with pytest.raises(ValueError):
            NoisyEmpiricalOracle(0.0, seed=1)

    @pytest.mark.parametrize("stddev", [math.nan, math.inf])
    def test_noisy_oracle_rejects_nonfinite_stddev(self, stddev):
        with pytest.raises(ValueError, match="finite"):
            NoisyEmpiricalOracle(stddev, seed=1)


class TestMonotoneReleases:
    @pytest.mark.parametrize("kind", ["ladder", "pf-ladder"])
    def test_deterministic_mechanisms(self, kind):
        mech = make_mechanism(kind, n=32, eta=0.02)
        rng = Rng(8)
        released = [mech.submit(rng.random(32)) for _ in range(400)]
        assert all(a >= b for a, b in zip(released, released[1:]))

    def test_population_min(self):
        oracle = PopulationMinOracle()
        rng = Rng(9)
        released = [
            oracle.submit(np.full(2, 0.5), population_risk=float(r))
            for r in rng.random(400)
        ]
        assert all(a >= b for a, b in zip(released, released[1:]))

    def test_shaky_under_zero_noise(self):
        params = off_regime_params(n=32, k=400, lam=0.03)
        mech = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=2)
        rng = Rng(10)
        released = [mech.submit(rng.random(32)) for _ in range(400)]
        assert all(a >= b for a, b in zip(released, released[1:]))


@pytest.fixture(scope="module")
def corpus():
    params = shaky_params(**FLAGSHIP)
    traces = []
    for rep in range(200):
        sample = make_random_label_sample(10000, (55, rep))
        mech = ShakyLadder(params, seed=(55, rep))
        _, trace = run_random_analyst(mech, sample, 100, (55, rep))
        traces.append(trace)
    return params, traces


class TestShakyNoiseBounds:
    """Statistical behavior of the randomized ladder at the flagship scale.

    Smaller-scale versions of the acceptance checks; the full-strength runs
    live in test_acceptance.
    """

    def test_update_count_conditional_bound(self, corpus):
        params, traces = corpus
        conditioned = [t for t in traces if t.max_noise_magnitude <= params.lam / 4]
        assert len(conditioned) > 100  # the conditioning event is common
        assert all(t.update_count <= 4 / params.lam for t in conditioned)

    def test_noise_magnitude_tail(self, corpus):
        params, traces = corpus
        threshold = math.log(4 * params.k / params.beta) * params.sigma
        frac = np.mean([t.max_noise_magnitude > threshold for t in traces])
        assert frac <= params.beta + 3 * math.sqrt(params.beta / len(traces))


class TestInformationBarrier:
    def test_releases_invariant_to_population_risk(self):
        # same loss vectors, different oracle-side risks: identical releases
        params = shaky_params(**FLAGSHIP)
        sample = make_random_label_sample(10000, 60)
        models = random_prediction_models(sample, 30, 60)
        first = EvaluationSession(ShakyLadder(params, seed=61))
        out_a = submit_all(first, models)
        altered = [
            type(m)(loss_vector=m.loss_vector, population_risk=0.123)
            for m in models
        ]
        second = EvaluationSession(ShakyLadder(params, seed=61))
        out_b = submit_all(second, altered)
        assert out_a == out_b
        assert first.trace().population_risks[0] == 0.5
        assert second.trace().population_risks[0] == 0.123


def assert_same_trace(a, b):
    for column in ("empirical_risks", "released", "population_risks", "noise"):
        assert np.array_equal(getattr(a, column), getattr(b, column), equal_nan=True)
    assert a.initial_noise == b.initial_noise


def test_make_mechanism_factory():
    assert isinstance(make_mechanism("shaky", n=10000, k=100), ShakyLadder)
    assert isinstance(make_mechanism("ladder", n=16, eta=0.1), Ladder)
    assert isinstance(make_mechanism("pf-ladder", n=16), ParameterFreeLadder)
    assert isinstance(make_mechanism("empirical", n=16), ExactEmpiricalOracle)
    noisy = make_mechanism("noisy", n=100, seed=1)
    assert isinstance(noisy, NoisyEmpiricalOracle)
    assert noisy.stddev == pytest.approx(0.3)
    assert isinstance(make_mechanism("population-min", n=16), PopulationMinOracle)
    with pytest.raises(ValueError):
        make_mechanism("bootstrap", n=16)
    with pytest.raises(ValueError):
        make_mechanism("shaky", n=16)  # k is required


@pytest.mark.parametrize("build", [
    lambda: make_mechanism("noisy", n=0),  # ZeroDivisionError
    lambda: make_mechanism("noisy", n=-4),  # math domain error
    lambda: make_mechanism("noisy", n=2.5),  # stddev 3/sqrt(2.5)
    lambda: make_mechanism("shaky", n=10000.0, k=100),
    lambda: make_mechanism("ladder", n=10, k=2.5),  # ran 3 rounds, then 0.5 - 1 remained
    lambda: Ladder(LadderConfig(0.1), max_rounds=-1),
    lambda: ExactEmpiricalOracle(max_rounds=True),
], ids=["noisy-n0", "noisy-n-4", "noisy-n2.5", "shaky-float-n", "ladder-k2.5",
        "ladder-budget-1", "budget-bool"])
def test_constructors_reject_bad_integers_before_any_draw(build, no_draws):
    with pytest.raises(ValueError, match="must be (an integer|>= )"):
        build()


def test_record_false_keeps_counters_only():
    params = off_regime_params(n=8, k=50)
    mech = ShakyLadder(params, seed=4, record=False)
    rng = Rng(12)
    for _ in range(50):
        mech.submit(rng.random(8))
    assert mech.round == 50
    with pytest.raises(RuntimeError):
        mech.trace()


def test_record_false_runs_in_constant_memory():
    # A recording run keeps five doubles per round, and its session one
    # population risk; a non-recording one only the counters, however many
    # rounds it runs, whether one at a time or as one batch.
    risks = Rng(13).random(50_000)
    risk_list = risks.tolist()

    def growth(record, route):
        ladder = Ladder(LadderConfig(eta=0.01), record=record)
        session = EvaluationSession(ladder)
        tracemalloc.start()
        try:
            if route == "mechanism":
                for risk in risk_list:
                    ladder.submit_risk(risk)
            elif route == "session":
                for risk in risk_list:
                    session.submit_risks((risk,), (0.5,))
            else:
                session.submit_risks(risks, risks)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    for route in ("mechanism", "session", "session batch"):
        assert growth(False, route) < 64 * 1024, route
        assert growth(True, route) > 1024 * 1024, route


_LOSS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@pytest.mark.parametrize("name", MECHANISM_NAMES)
@given(
    stream=st.lists(
        st.tuples(st.lists(_LOSS, min_size=8, max_size=8), st.floats(0.0, 1.0)),
        max_size=30,
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_trace_agrees_with_running_counters(name, stream, seed):
    # The counters are all a record=False run keeps; the trace derives the
    # same quantities from its columns.
    if name == "shaky":
        mech = ShakyLadder(off_regime_params(n=8, k=30), seed=seed)
    else:
        mech = make_mechanism(name, n=8, k=30, seed=seed)
    session = EvaluationSession(mech)
    released = [session.submit(SubmittedModel(np.array(losses), risk)) for losses, risk in stream]
    trace = session.trace()
    assert len(trace) == mech.round == len(stream)
    assert trace.update_count == mech.update_count
    assert trace.max_noise_magnitude == mech.max_noise_magnitude
    assert np.array_equal(trace.released, released)
    assert np.array_equal(trace.population_risks, [risk for _, risk in stream])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(trace, path)
        assert len(path.read_text().splitlines()) == 1 + mech.round


@pytest.mark.parametrize("name", MECHANISM_NAMES)
@given(
    stream=st.lists(
        st.tuples(st.lists(_LOSS, min_size=8, max_size=8), st.floats(0.0, 1.0)),
        max_size=30,
    ),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_submit_equals_submit_risk_of_mean(name, stream, seed):
    def build():
        if name == "shaky":
            return ShakyLadder(off_regime_params(n=8, k=30), seed=seed)
        return make_mechanism(name, n=8, k=30, seed=seed)

    by_vector, by_risk = build(), build()
    for losses, population_risk in stream:
        vec = np.array(losses)
        oracle_side = (population_risk,) if by_vector.needs_population_risk else ()
        vector_side = (vec,) if by_vector.needs_loss_vector else ()
        assert (by_vector.submit(vec, *oracle_side)
                == by_risk.submit_risk(float(np.mean(vec)), *oracle_side, *vector_side))
    assert_same_trace(by_vector.trace(), by_risk.trace())


@pytest.mark.parametrize("name", MECHANISM_NAMES)
@pytest.mark.parametrize("vector", [
    np.full(4, 5.0), np.array([0.5, -0.5, 0.5, 0.5]), np.full(4, np.nan), np.array([]),
    np.zeros((2, 2)),
], ids=["above-1", "below-0", "nan", "empty", "2-d"])
def test_submit_rejects_an_invalid_vector_before_its_round(name, vector):
    # the SubmittedModel rule for losses, checked before the round commits:
    # no round, no noise drawn, and the next valid round is the first one
    def build():
        if name == "shaky":
            return ShakyLadder(off_regime_params(n=4, k=30), seed=3)
        return make_mechanism(name, n=4, k=30, seed=3)

    mech, fresh = build(), build()
    oracle_side = (0.5,) if mech.needs_population_risk else ()
    with pytest.raises(ValueError, match=r"\[0, 1\]|nonempty 1-d"):
        mech.submit(vector, *oracle_side)
    assert mech.round == 0
    valid = np.array([0.0, 1.0, 0.0, 0.0])
    assert mech.submit(valid, *oracle_side) == fresh.submit(valid, *oracle_side)
    assert_same_trace(mech.trace(), fresh.trace())


def test_pf_ladder_checks_a_submitted_vector_once(monkeypatch):
    # submit checks the vector with the rule for losses; submit_risk, which
    # checks the vectors a session hands it, does not check it again
    checks = []
    unit_array = mechanisms._unit_array
    monkeypatch.setattr(mechanisms, "_unit_array",
                        lambda *args: checks.append(args[0]) or unit_array(*args))
    pf = ParameterFreeLadder()
    assert pf.submit(np.full(4, 0.5)) == 0.5
    assert checks == ["loss values"]
    pf.submit_risk(0.5, np.full(4, 0.5))
    assert checks == ["loss values"] * 2


def test_pf_ladder_decides_on_the_risk_it_is_handed():
    # the risk handed decides and is released; the loss vector only sets the
    # step s_t = std(vector - incumbent, ddof=1) / sqrt(n)
    pf = ParameterFreeLadder()
    assert pf.needs_loss_vector
    incumbent, other = np.array([0.0, 1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0, 1.0])
    assert pf.submit_risk(0.3, incumbent) == 0.3  # the first round, released exactly
    assert pf.submit_risk(0.0, incumbent) == 0.3  # s_t = 0: no update, whatever the risk
    assert pf.submit_risk(0.1, other) == 0.3  # s_t = 0.25, and 0.1 is not below 0.3 - s_t
    assert pf.submit_risk(0.01, other) == 0.0  # below it: 0.01 rounded to s_t's tenths
    assert (pf.incumbent_risk, pf.update_count) == (0.01, 2)


_TIE_RISK = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])


@pytest.mark.parametrize("name", MECHANISM_NAMES)
@given(
    batches=st.lists(st.tuples(st.lists(st.one_of(_TIE_RISK, st.floats(0.0, 1.0)), max_size=40),
                               st.one_of(st.none(), _TIE_RISK, st.floats(0.0, 1.0))),
                     max_size=4),
    budget=st.integers(0, 80),
    record=st.booleans(),
    variant=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_submit_risks_equals_the_round_loop(name, batches, budget, record, variant, seed):
    # The Ladder and Shaky Ladder scans against the base class's loop over
    # submit_risk on a twin. Risks, stops and the step (eta = lam = 1/8) are
    # dyadic often enough to tie the threshold exactly; ``variant`` switches
    # the Ladder to multiples-of-eta rounding and the Shaky Ladder to sigma = 0,
    # where every comparison is a bare tie test.
    def build():
        if name == "shaky":
            params = off_regime_params(n=8, k=budget, lam=0.125, sigma=0.0 if variant else 0.05)
            return ShakyLadder(params, seed=seed, record=record)
        if name == "ladder":
            config = LadderConfig(eta=0.125, rounding="multiples-of-eta" if variant else "none")
            return Ladder(config, max_rounds=budget, record=record)
        return make_mechanism(name, n=8, k=budget, seed=seed, record=record)

    scan, loop = build(), build()
    for risks, stop_below in batches:
        columns = (np.array(risks[::-1]),) if scan.needs_population_risk else ()
        if scan.needs_loss_vector:  # each round's vector, as the session hands it on
            columns += (Rng(seed, len(risks)).random(8 * len(risks)).reshape(-1, 8),)
        results = []
        for submit_risks in (scan.submit_risks,
                             functools.partial(LeaderboardMechanism.submit_risks, loop)):
            try:
                results.append(submit_risks(np.array(risks), *columns, stop_below=stop_below))
            except BudgetExhaustedError:
                results.append(None)
        assert (results[0] is None) == (results[1] is None)
        if results[0] is not None:
            assert np.array_equal(results[0], results[1])
        for counter in ("round", "update_count", "max_noise_magnitude", "last_release"):
            assert getattr(scan, counter) == getattr(loop, counter), counter
        if record:
            assert_same_trace(scan.trace(), loop.trace())


@pytest.mark.parametrize("name", ["ladder", "shaky"])
@given(
    batches=st.lists(st.tuples(st.lists(st.one_of(_TIE_RISK, st.floats(0.0, 1.0)), max_size=40),
                               st.one_of(st.none(), _TIE_RISK, st.floats(0.0, 1.0))),
                     max_size=4),
    variant=st.booleans(),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_scan_runs_each_success_through_submit_risk(name, batches, variant, seed):
    # The scan only finds the next comparison success: submit_risk runs it,
    # once per success, and every comparison, within a batch and after it,
    # reads the incumbent from last_release. Ties and ``variant`` as above.
    if name == "shaky":
        params = off_regime_params(n=8, k=200, lam=0.125, sigma=0.0 if variant else 0.05)
        mech = ShakyLadder(params, seed=seed)
        noise, threshold = mech._round_noise, mech.threshold_noise
    else:
        config = LadderConfig(eta=0.125, rounding="multiples-of-eta" if variant else "none")
        mech = Ladder(config, max_rounds=200)
        noise, threshold = np.zeros((200, 3)), 0.0
    calls = []
    run_round = mech.submit_risk

    def counted(risk):
        calls.append(mech.round)
        return run_round(risk)

    mech.submit_risk = counted
    successes = 0
    for risks, stop_below in batches:
        calls.clear()
        incumbent, first = mech.last_release, mech.round
        released = mech.submit_risks(np.array(risks), stop_below=stop_below)
        expected = []
        for t, (risk, out) in enumerate(zip(risks, released.tolist()), start=first):
            if risk + noise[t, 0] < incumbent - 0.125 + threshold:
                expected.append(t)
                threshold = noise[t, 2]
            else:
                assert out == incumbent
            incumbent = out
        assert calls == expected
        assert incumbent == mech.last_release
        successes += len(expected)
    if name == "ladder" or variant:  # every success then releases below the incumbent
        assert successes == mech.update_count
