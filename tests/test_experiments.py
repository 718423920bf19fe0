import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import vstack_majority_attack

from shakyladder import analysts
from shakyladder.analysts import majority_attack_direct
from shakyladder.experiments import (
    DEFAULT_K_GRID,
    _attack_grid,
    ExperimentConfig,
    VARY_NOISE_GRID,
    VARY_QUERIES_NOISE_GRID,
    experiment_csv,
    render_csv,
    run_attack_vs_mechanism,
    run_envelope,
    run_experiment,
    run_reduction_oracle,
    run_vary,
)


def small_config(**overrides):
    base = dict(experiment="vary-queries", n=400, k_grid=(20, 50), reps=5, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig(experiment="vary-queries", n=1000)
        assert config.k_grid == DEFAULT_K_GRID
        assert config.resolved_noise_grid() == VARY_QUERIES_NOISE_GRID
        noise_cfg = ExperimentConfig(experiment="vary-noise", n=1000)
        assert noise_cfg.resolved_noise_grid() == VARY_NOISE_GRID

    def test_options_default_only_where_read(self):
        envelope = ExperimentConfig(experiment="envelope", n=10000, k_grid=(100,))
        assert envelope.beta == 0.1
        assert (envelope.mechanism, envelope.eta, envelope.alpha, envelope.noise_grid) == (
            None, None, None, None)
        ladder = ExperimentConfig(experiment="attack-vs-mechanism", n=400, k_grid=(20,),
                                  mechanism="ladder")
        assert (ladder.eta, ladder.beta, ladder.alpha) == (0.01, None, None)
        oracle = ExperimentConfig(experiment="reduction-oracle", n=100)
        assert (oracle.alpha, oracle.mechanism, oracle.k_grid) == (0.05, None, None)
        with pytest.raises(ValueError, match="reduction-oracle does not read --beta"):
            ExperimentConfig(experiment="reduction-oracle", n=100, beta=0.1)
        # the session is sized from alpha: a k grid used to be accepted and ignored
        with pytest.raises(ValueError, match="reduction-oracle does not read --k"):
            ExperimentConfig(experiment="reduction-oracle", n=100, k_grid=(5,))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bootstrap", n=100)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="vary-queries", n=100, reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="vary-queries", n=100, k_grid=())
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="vary-queries", n=0)


class TestVaryQueries:
    def test_row_count(self):
        rows = run_vary(small_config())
        assert len(rows) == 2 * 3  # two k values, three default noise levels

    def test_cells_match_standalone_attack(self):
        # every grid cell equals a standalone run seeded with (seed, rep)
        config = small_config(noise_grid=(0.0, 2.0))
        rows = run_vary(config)
        for cell in rows:
            stddev = cell.noise_multiplier / math.sqrt(config.n)
            for rep_index, rep in enumerate(cell.reps):
                report = majority_attack_direct(
                    config.n, cell.k,
                    None if cell.noise_multiplier == 0.0 else stddev,
                    seed=(config.seed, rep_index),
                )
                assert rep.final_error == report.final_error

    def test_mean_error_decreases_with_k_without_noise(self):
        config = ExperimentConfig(
            experiment="vary-queries", n=2000, k_grid=(50, 400), reps=30, seed=3,
            noise_grid=(0.0,),
        )
        rows = {cell.k: cell.mean_error for cell in run_vary(config)}
        assert rows[400] < rows[50] < 0.5

    def test_std_error_is_sample_standard_deviation(self):
        rows = run_vary(small_config())
        for cell in rows:
            errors = [rep.final_error for rep in cell.reps]
            assert cell.std_error == pytest.approx(np.std(errors, ddof=1), abs=1e-12)


    @given(n=st.integers(1, 300),
           k_grid=st.lists(st.integers(1, 100), min_size=1, max_size=5)
           .map(lambda ks: (*ks, 1, ks[0])),
           extra=st.lists(st.floats(0.1, 6.0), max_size=3, unique=True),
           rows_per_block=st.sampled_from([None, 8, 16, 24, 64]),
           reps=st.integers(1, 2), seed=st.integers(0, 2**32))
    @example(n=61, k_grid=(13, 1, 100, 13, 8), extra=[3.0], rows_per_block=16, reps=1, seed=4)
    @settings(max_examples=80, deadline=None)
    def test_cells_equal_vstack_reference(self, n, k_grid, extra, rows_per_block, reps, seed):
        # unsorted k grids with duplicates, k = 1, k values inside and at
        # the end of a block, and multiplier 0 next to noisy ones
        multipliers = (*extra, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block is not None:  # blocks of that many rows of n entries
                patch.setattr(analysts, "BLOCK_ENTRIES", rows_per_block * n)
            cells = _attack_grid(n, k_grid, multipliers, reps, seed)
        assert set(cells) == {(k, m) for k in k_grid for m in multipliers}
        for (k, mult), errors in cells.items():
            stddev = None if mult == 0.0 else mult * (1.0 / math.sqrt(n))
            assert errors == [vstack_majority_attack(n, k, stddev, seed=(seed, rep)).final_error
                              for rep in range(reps)]

class TestVaryNoise:
    def test_zero_multiplier_matches_vary_queries(self):
        vq = {(c.k, 0.0): c for c in run_vary(small_config(noise_grid=(0.0, 1.0)))
              if c.noise_multiplier == 0.0}
        vn = {(c.k, 0.0): c for c in run_vary(
            small_config(experiment="vary-noise", noise_grid=(0.0, 2.0, 5.0)))
            if c.noise_multiplier == 0.0}
        for key, cell in vn.items():
            assert [r.final_error for r in cell.reps] == [
                r.final_error for r in vq[key].reps
            ]

    def test_error_nondecreasing_in_noise(self):
        config = ExperimentConfig(
            experiment="vary-noise", n=2000, k_grid=(200,), reps=40, seed=5,
            noise_grid=(0.0, 1.0, 3.0),
        )
        cells = sorted(run_vary(config), key=lambda c: c.noise_multiplier)
        means = [c.mean_error for c in cells]
        ses = [c.std_error / math.sqrt(len(c.reps)) for c in cells]
        for i in range(len(means) - 1):
            assert means[i] < means[i + 1] + (ses[i] + ses[i + 1])


class TestRepPurity:
    def test_order_independent_and_thread_safe(self):
        # each repetition is a pure function of (seed, rep): running the
        # standalone attack in a shuffled order or across threads reproduces
        # the grid's per-rep values exactly
        config = small_config(reps=6, noise_grid=(0.0,))
        cells = {c.k: [r.final_error for r in c.reps] for c in run_vary(config)}

        def standalone(args):
            k, rep = args
            return k, rep, majority_attack_direct(config.n, k, None, seed=(config.seed, rep)).final_error

        jobs = [(k, rep) for k in config.k_grid for rep in range(config.reps)]
        jobs = jobs[::-1]  # reversed order
        with ThreadPoolExecutor(max_workers=4) as pool:
            for k, rep, err in pool.map(standalone, jobs):
                assert cells[k][rep] == err


class TestOtherRunners:
    def test_envelope_runner(self):
        config = ExperimentConfig(
            experiment="envelope", n=2000, k_grid=(20,), reps=4, seed=2,
        )
        rows = run_envelope(config)
        assert len(rows) == 1
        cell = rows[0]
        assert cell.mechanism == "shaky"
        for rep in cell.reps:
            assert rep.final_error == rep.lberr
            assert rep.updates >= 0
            assert rep.max_noise > 0

    def test_reduction_oracle_runner_is_exact(self):
        config = ExperimentConfig(
            experiment="reduction-oracle", n=100, reps=5, seed=4,
        )
        rows = run_reduction_oracle(config)
        cell = rows[0]
        assert cell.k == math.floor(1 / (3 * config.alpha))
        for rep in cell.reps:
            assert rep.final_error < 1e-12  # exact oracle, exact answers
            assert rep.lberr == 0.0  # running-min oracle tracks perfectly

    def test_attack_vs_mechanism_runner(self):
        config = ExperimentConfig(
            experiment="attack-vs-mechanism", n=500, k_grid=(30,), reps=3, seed=6,
            mechanism="ladder", eta=0.02,
        )
        rows = run_attack_vs_mechanism(config)
        cell = rows[0]
        assert cell.mechanism == "ladder"
        for rep in cell.reps:
            assert 0 <= rep.final_error <= 1
            assert math.isfinite(rep.lberr)

    def test_noisy_multiplier_zero_is_exact_feedback(self):
        base = dict(experiment="attack-vs-mechanism", n=400, k_grid=(20,), reps=2, seed=0)
        noisy = {c.noise_multiplier: c for c in run_attack_vs_mechanism(
            ExperimentConfig(mechanism="noisy", noise_grid=(0.0, 3.0), **base))}
        (exact,) = run_attack_vs_mechanism(ExperimentConfig(mechanism="empirical", **base))
        assert noisy[0.0].reps == exact.reps
        assert noisy[0.0].reps != noisy[3.0].reps

    def test_run_time_failures_rejected_up_front(self):
        with pytest.raises(ValueError, match="k <= n"):
            ExperimentConfig(experiment="envelope", n=50, k_grid=(100,))
        with pytest.raises(ValueError, match="epsilon"):
            ExperimentConfig(experiment="attack-vs-mechanism", n=64, k_grid=(10,))
        with pytest.raises(ValueError, match="eta"):
            ExperimentConfig(experiment="attack-vs-mechanism", n=64, k_grid=(10,),
                             mechanism="ladder", eta=0.0)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(experiment="reduction-oracle", n=64, alpha=0.4)
        with pytest.raises(ValueError, match="noise"):
            ExperimentConfig(experiment="vary-noise", n=64, noise_grid=(-1.0,))
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                ExperimentConfig(experiment="vary-queries", n=64, seed=seed)
        ExperimentConfig(experiment="vary-queries", n=2**24 - 1, k_grid=(2**24 - 1,))

    def test_float32_bound_is_on_k_only(self, no_draws):
        # correlations and risks are exact popcounts for any n; only the
        # float32 vote bounds k
        for n in (2**24, 2**30):
            ExperimentConfig(experiment="vary-noise", n=n, k_grid=(10,))
        for n, k in ((64, 2**24), (2**24, 2**24 + 1)):
            with pytest.raises(ValueError, match="2\\^24"):
                ExperimentConfig(experiment="vary-noise", n=n, k_grid=(10, k))

    def test_regime_check_does_not_warn(self, recwarn):
        # The run's shaky_params calls are the only source of regime warnings.
        ExperimentConfig(experiment="envelope", n=10000, k_grid=(100, 1000))
        assert not [w for w in recwarn if "generalization requirement" in str(w.message)]

    def test_dispatch(self):
        rows = run_experiment(small_config())
        assert rows[0].experiment == "vary-queries"


class TestCsvRendering:
    def test_schema_and_determinism(self):
        config = small_config()
        text_a = experiment_csv(config)
        text_b = experiment_csv(config)
        assert text_a == text_b
        lines = text_a.splitlines()
        assert lines[0] == "experiment,mechanism,n,k,noise_multiplier,rep_count,mean_error,std_error"
        assert len(lines) == 1 + 6
        assert text_a.endswith("\n") and "\r" not in text_a

    def test_seed_changes_output(self):
        assert experiment_csv(small_config()) != experiment_csv(small_config(seed=2))

    def test_per_rep_schema(self):
        config = small_config(per_rep=True)
        lines = experiment_csv(config).splitlines()
        assert lines[0].endswith(",rep,final_error,lberr,updates_B,max_noise_L")
        assert len(lines) == 1 + 6 * config.reps
        row = lines[1].split(",")
        assert row[8] == "0"  # first rep index
        assert row[10] == "nan"  # no mechanism trace for the vector attack

    def test_float_formatting_17_digits(self):
        rows = run_vary(small_config())
        text = render_csv(rows)
        value = text.splitlines()[1].split(",")[6]
        assert float(value) == rows[0].mean_error
