"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line with its measured quantities (visible
with ``pytest -s`` or on failure). The statistical criteria run at the full
sizes they are stated for; expect the module to take a few minutes.
"""

import dataclasses
import math

import numpy as np
import pytest

from shakyladder.analysts import (
    majority_attack_vs_mechanism,
    run_random_analyst,
    shifted_majority_attack,
)
from shakyladder.audit import envelope_check, faithfulness_audit
from shakyladder.core import make_random_label_sample
from shakyladder.experiments import _attack_grid
from shakyladder.mechanisms import (
    Ladder,
    LadderConfig,
    MechanismParams,
    PopulationMinOracle,
    ShakyLadder,
    shaky_params,
)
from shakyladder.noise import Rng, binomial_exceedance, laplace
from shakyladder.reduction import AdaptiveEstimator, Query
from shakyladder.audit import EvaluationSession
from shakyladder.cli import cli_main
from synthetic import PerturbedMinOracle

FLAGSHIP = dict(n=10000, k=100, beta=0.1)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def flagship_corpus():
    """1000 seeded randomized-ladder runs with a random analyst."""
    params = shaky_params(**FLAGSHIP)
    traces = []
    for rep in range(1000):
        sample = make_random_label_sample(10000, (99, rep))
        mech = ShakyLadder(params, seed=(99, rep))
        _, trace = run_random_analyst(mech, sample, 100, (99, rep))
        traces.append(trace)
    return params, traces


def test_01_zero_noise_degeneration():
    """Zero-noise randomized ladder reproduces the deterministic ladder
    exactly over 100 random 1000-round submission streams."""
    params = MechanismParams(n=64, k=1000, beta=0.1, delta=1e-8,
                             epsilon=0.05, lam=0.05, sigma=0.01)
    for stream in range(100):
        shaky = ShakyLadder(dataclasses.replace(params, sigma=0.0), seed=stream)
        ladder = Ladder(LadderConfig(eta=params.lam, rounding="none"))
        rng = Rng(5000, stream)
        for _ in range(1000):
            vec = rng.random(64)
            assert shaky.submit(vec) == ladder.submit(vec)
        st, lt = shaky.trace(), ladder.trace()
        assert np.array_equal(st.released, lt.released)
        assert np.array_equal(st.empirical_risks, lt.empirical_risks)
        assert np.array_equal(st.updated, lt.updated)
    report("1 zero-noise degeneration", "100 streams x 1000 rounds, exact equality")


def test_02_laplace_tail():
    """Pr{|X| > t*scale} matches exp(-t) within 4 binomial standard errors
    over one million draws, for t in {0.5, 1, 2, 3}."""
    n = 10**6
    draws = np.abs(laplace(Rng(2024), 1.0, size=n))
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 3.0):
        p = math.exp(-t)
        se = math.sqrt(p * (1 - p) / n)
        deviation = abs(float(np.mean(draws > t)) - p)
        worst = max(worst, deviation / se)
        assert deviation < 4 * se
    report("2 laplace tail", f"worst deviation {worst:.2f} standard errors (limit 4)")


def test_03_update_count_conditional(flagship_corpus):
    """On every trace whose observed max noise magnitude is at most lam/4,
    the update count is at most 4/lam. Zero tolerance."""
    params, traces = flagship_corpus
    conditioned = [t for t in traces if t.max_noise_magnitude <= params.lam / 4]
    assert len(conditioned) > 500  # conditioning event holds for most runs
    bound = 4.0 / params.lam
    violations = sum(1 for t in conditioned if t.update_count > bound)
    assert violations == 0
    report(
        "3 update-count conditional",
        f"{len(conditioned)}/1000 traces conditioned, 0 violations of B <= {bound:.2f}",
    )


def test_04_noise_magnitude_tail(flagship_corpus):
    """The fraction of runs whose max noise magnitude exceeds
    ln(4k/beta) * sigma is at most beta + 3 sqrt(beta/1000)."""
    params, traces = flagship_corpus
    threshold = math.log(4 * params.k / params.beta) * params.sigma
    frac = float(np.mean([t.max_noise_magnitude > threshold for t in traces]))
    limit = params.beta + 3 * math.sqrt(params.beta / len(traces))
    assert frac <= limit
    report("4 noise-magnitude tail", f"exceedance fraction {frac:.4f} <= {limit:.4f}")


def test_05_envelope_check():
    """Under the selection-mode majority attack at n=10^4, k=10^3, the
    leaderboard error stays within 18 eps sqrt(B) + lam + 2L in at least 95
    of 100 runs."""
    n, k = 10000, 1000
    params = shaky_params(n, k + 1, 0.1)  # one extra round for the vote model
    satisfied = 0
    for rep in range(100):
        sample = make_random_label_sample(n, (105, rep))
        mech = ShakyLadder(params, seed=(105, rep))
        _, trace = majority_attack_vs_mechanism(
            mech, sample, k, (105, rep), selection="theorem"
        )
        satisfied += envelope_check(trace, params).envelope_satisfied
    assert satisfied >= 95
    report("5 envelope check", f"{satisfied}/100 runs inside the envelope")


def test_06_reduction_exactness_and_transfer():
    """Exact oracle: triggered unclamped answers equal the population mean to
    1e-12 over 1000 random queries. Perturbed oracles within alpha/2: answers
    within alpha and per-query threshold descent within 3*alpha/2."""
    alpha = 0.05
    rng = Rng(106)
    checked = 0
    while checked < 1000:
        est = AdaptiveEstimator(EvaluationSession(PopulationMinOracle()), alpha)
        for _ in range(4):
            mean = float(0.05 + 0.75 * rng.random())
            values = np.clip(mean + 0.2 * (rng.random(50) - 0.5), 0.0, 1.0)
            out = est.answer(Query(values=values, population_mean=mean))
            if out.triggered and not out.clamped:
                assert abs(out.answer - mean) <= 1e-12
                checked += 1

    worst_answer = 0.0
    worst_descent = 0.0
    triggered = 0
    for pattern in range(1000):
        mode = "nonnegative" if pattern % 2 == 0 else "constant"
        mech = PerturbedMinOracle(alpha / 2, Rng(107, pattern), mode=mode)
        est = AdaptiveEstimator(EvaluationSession(mech), alpha)
        for _ in range(4):
            mean = float(0.05 + 0.7 * rng.random())
            c_before = est.c
            out = est.answer(Query(values=np.full(20, mean), population_mean=mean))
            if out.triggered:
                triggered += 1
                worst_answer = max(worst_answer, abs(out.answer - mean))
                worst_descent = max(worst_descent, c_before - est.c)
    assert triggered >= 1000
    assert worst_answer <= alpha + 1e-12
    assert worst_descent <= 1.5 * alpha + 1e-12
    report(
        "6 reduction exactness",
        f"1000 exact answers; perturbed: worst |a-Eg| {worst_answer:.4f} <= {alpha}, "
        f"worst descent {worst_descent:.4f} <= {1.5 * alpha}",
    )


def test_07_majority_attack_bias_shape():
    """Mean attack bias grows with k and fits sqrt(k/n) linearly with
    R^2 >= 0.9 (n=10^4, no noise, 200 repetitions)."""
    n = 10000
    k_grid = (50, 200, 800)
    cells = _attack_grid(n, k_grid, (0.0,), reps=200, seed=701)
    biases = np.array([0.5 - np.mean(cells[(k, 0.0)]) for k in k_grid])
    assert biases[0] < biases[1] < biases[2]
    x = np.sqrt(np.array(k_grid) / n)
    slope, intercept = np.polyfit(x, biases, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((biases - fitted) ** 2))
    ss_tot = float(np.sum((biases - biases.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.9
    report(
        "7 bias shape",
        f"biases {np.round(biases, 4).tolist()} increasing, R^2 {r_squared:.4f} >= 0.9",
    )


def test_08_noise_ordering():
    """For n in {10^4, 4x10^4} and every k in the default grid, mean final
    error orders no-noise < 1/sqrt(n) < 3/sqrt(n) with at least one paired
    standard error of separation, and the 3/sqrt(n) means sit within 0.01
    of 1/2 at n = 4x10^4."""
    k_grid = tuple(range(100, 1001, 100))
    worst_margin = math.inf
    worst_center = 0.0
    for n in (10000, 40000):
        cells = _attack_grid(n, k_grid, (0.0, 1.0, 3.0), reps=100, seed=702)
        for k in k_grid:
            series = {m: np.array(cells[(k, m)]) for m in (0.0, 1.0, 3.0)}
            for lo, hi in ((0.0, 1.0), (1.0, 3.0)):
                diff = series[hi] - series[lo]
                se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size)
                margin = float(np.mean(diff)) / se
                worst_margin = min(worst_margin, margin)
                assert np.mean(diff) >= se, (n, k, lo, hi)
            if n == 40000:
                center = abs(float(np.mean(series[3.0])) - 0.5)
                worst_center = max(worst_center, center)
                assert center < 0.01, (n, k)
    report(
        "8 noise ordering",
        f"min separation {worst_margin:.1f} paired SEs; "
        f"worst |mean-0.5| at 3x, n=4e4: {worst_center:.4f} < 0.01",
    )


def test_09_faithfulness_separation(flagship_corpus):
    """Deterministic ladder: zero faithfulness violations. Randomized ladder
    at flagship parameters: violations occur. The attack's true-vs-released
    gap matches the random-analyst baseline within 0.01 against the
    randomized ladder and exceeds 0.05 against the deterministic ladder at
    k = 800 (offset schedule forcing feedback)."""
    # deterministic ladder releases empirical risks on update: faithful
    for seed in range(10):
        sample = make_random_label_sample(400, (109, seed))
        ladder = Ladder(LadderConfig(eta=0.01))
        _, trace = run_random_analyst(ladder, sample, 200, (109, seed))
        violations, _ = faithfulness_audit(trace, 400)
        assert violations == 0

    # randomized ladder at flagship parameters: the release noise dwarfs
    # 1/(2 sqrt(n)), so update rounds violate faithfulness
    params, traces = flagship_corpus
    shaky_violations = sum(faithfulness_audit(t, params.n)[0] for t in traces[:100])
    assert shaky_violations > 0

    # neutralization: plain attack gains nothing over a random analyst
    n, k = 10000, 800
    attack_params = shaky_params(n, k + 1, 0.1)
    attack_gaps, random_gaps = [], []
    for rep in range(20):
        sample = make_random_label_sample(n, (110, rep))
        mech = ShakyLadder(attack_params, seed=(110, rep))
        rep_attack, _ = majority_attack_vs_mechanism(
            mech, sample, k, (110, rep), selection="direct"
        )
        attack_gaps.append(0.5 - rep_attack.final_released)
        mech_b = ShakyLadder(attack_params, seed=(110, rep))
        released, _ = run_random_analyst(mech_b, sample, k + 1, (110, rep, 1))
        random_gaps.append(0.5 - released[-1])
    gap_difference = abs(float(np.mean(attack_gaps)) - float(np.mean(random_gaps)))
    assert gap_difference < 0.01

    # effectiveness: with feedback forced by the offset schedule, the
    # faithful ladder hands the attacker an overfit estimate
    ladder_gaps = []
    for rep in range(2):
        sample = make_random_label_sample(2500, (111, rep))
        ladder = Ladder(LadderConfig(eta=1.0 / 4000.0), record=False)
        rep_attack, _ = shifted_majority_attack(
            ladder, sample, 800, alpha=1.0 / 2000.0, seed=(111, rep), selection="direct"
        )
        ladder_gaps.append(0.5 - rep_attack.final_released)
        assert ladder_gaps[-1] > 0.05
    report(
        "9 faithfulness separation",
        f"ladder violations 0, randomized-ladder violations {shaky_violations}; "
        f"attack-vs-baseline gap difference {gap_difference:.4f} < 0.01; "
        f"ladder gaps {np.round(ladder_gaps, 3).tolist()} > 0.05",
    )


def test_10_binomial_anticoncentration():
    """Exact summation: the exceedance at p = 1/2 equals 1/2 exactly for odd
    m, and the gain at p = 1/2 + eps is at least 0.3 sqrt(m) eps for
    eps <= 1/sqrt(m)."""
    worst_ratio = math.inf
    for m in (11, 101, 1001):
        assert binomial_exceedance(m, 0.5) == 0.5
        for coefficient in (0.1, 0.5, 1.0):
            eps = coefficient / math.sqrt(m)
            gain = binomial_exceedance(m, 0.5 + eps) - 0.5
            bound = 0.3 * math.sqrt(m) * eps
            worst_ratio = min(worst_ratio, gain / bound)
            assert gain >= bound
    report(
        "10 binomial anti-concentration",
        f"exact halves at odd m; min gain/bound ratio {worst_ratio:.2f} >= 1",
    )


def test_11_determinism(tmp_path, fixtures_dir):
    """Reruns with the same seed produce byte-identical CSV, and the checked
    in golden fixture still matches."""
    args = ["--experiment", "vary-queries", "--n", "400", "--k", "20,50",
            "--reps", "5", "--seed", "1"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    golden = fixtures_dir / "vq_small.csv"
    assert cli_main(args + ["--out", str(out_a), "--golden", str(golden)]) == 0
    report("11 determinism", "byte-identical rerun and golden fixture match")
