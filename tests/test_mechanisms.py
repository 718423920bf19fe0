import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakyladder.audit import EvaluationSession
from shakyladder.core import SubmittedModel, make_random_label_sample, write_trace_csv
from shakyladder.mechanisms import (
    BudgetExhaustedError,
    ExactEmpiricalOracle,
    Ladder,
    LadderConfig,
    MECHANISM_NAMES,
    MECHANISM_STREAM,
    MechanismParams,
    NoisyEmpiricalOracle,
    ParameterFreeLadder,
    ParameterRegimeError,
    PopulationMinOracle,
    ShakyLadder,
    make_mechanism,
    shaky_params,
    zero_noise_hook,
)
from shakyladder.analysts import random_prediction_models, run_random_analyst
from shakyladder.noise import Rng, laplace

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
        mech = ShakyLadder(params, seed=0, noise_hook=zero_noise_hook)
        assert mech.submit(np.full(4, 0.3)) == 0.3

    def test_zero_noise_rejects_insufficient_improvement(self):
        params = off_regime_params(n=4, lam=0.5)
        mech = ShakyLadder(params, seed=0, noise_hook=zero_noise_hook)
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

    def test_predrawn_noise_equals_scalar_draws(self):
        # The default mechanism draws its 3k+1 variables as one vector; a hook
        # drawing scalars from the same stream must see the same run.
        params = off_regime_params(n=8, k=40, lam=0.02, sigma=0.05)
        stream = Rng((5, 1), MECHANISM_STREAM)
        scales = []

        def scalar_draw(scale):
            scales.append(scale)
            return laplace(stream, scale)

        predrawn = ShakyLadder(params, seed=(5, 1))
        scalar = ShakyLadder(params, seed=(5, 1), noise_hook=scalar_draw)
        rng = Rng(78)
        for _ in range(params.k):
            vec = rng.random(8)
            assert predrawn.submit(vec) == scalar.submit(vec)
        assert scales == [params.sigma] * (3 * params.k + 1)
        assert_same_trace(predrawn.trace(), scalar.trace())
        assert predrawn.update_count > 1

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
            shaky = ShakyLadder(params, seed=seed, noise_hook=zero_noise_hook)
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
        mech = ShakyLadder(params, seed=2, noise_hook=zero_noise_hook)
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
        out_a = first.submit_all(models)
        altered = [
            type(m)(loss_vector=m.loss_vector, population_risk=0.123)
            for m in models
        ]
        second = EvaluationSession(ShakyLadder(params, seed=61))
        out_b = second.submit_all(altered)
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


def test_record_false_keeps_counters_only():
    params = off_regime_params(n=8, k=50)
    mech = ShakyLadder(params, seed=4, record=False)
    rng = Rng(12)
    for _ in range(50):
        mech.submit(rng.random(8))
    assert mech.round == 50
    with pytest.raises(RuntimeError):
        mech.trace()


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


@pytest.mark.parametrize("name", [name for name in MECHANISM_NAMES if name != "pf-ladder"])
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
        assert (by_vector.submit(vec, *oracle_side)
                == by_risk.submit_risk(float(np.mean(vec)), *oracle_side))
    assert_same_trace(by_vector.trace(), by_risk.trace())


def test_pf_ladder_reads_vectors_only():
    pf = ParameterFreeLadder()
    assert pf.needs_loss_vector
    with pytest.raises(NotImplementedError):
        pf.submit_risk(0.5)
