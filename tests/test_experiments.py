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
    EXPERIMENTS,
    _RUNNERS,
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


#: A valid value of each option some runs do not read.
OPTION_VALUES = {"k_grid": (10,), "noise_grid": (1.0,), "mechanism": "ladder",
                 "beta": 0.1, "eta": 0.01, "alpha": 0.05}
K_DEFAULT = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)
#: Per run, the options it reads and their documented defaults.
READ_CASES = [
    ("vary-queries", None, {"k_grid": K_DEFAULT, "noise_grid": (0.0, 1.0, 3.0)}),
    ("vary-noise", None, {"k_grid": K_DEFAULT,
                          "noise_grid": (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)}),
    ("envelope", None, {"k_grid": K_DEFAULT, "beta": 0.1}),
    ("reduction-oracle", None, {"alpha": 0.05}),
    ("attack-vs-mechanism", None, {"k_grid": K_DEFAULT, "mechanism": "shaky", "beta": 0.1}),
    ("attack-vs-mechanism", "shaky", {"k_grid": K_DEFAULT, "mechanism": "shaky", "beta": 0.1}),
    ("attack-vs-mechanism", "ladder", {"k_grid": K_DEFAULT, "mechanism": "ladder", "eta": 0.01}),
    ("attack-vs-mechanism", "pf-ladder", {"k_grid": K_DEFAULT, "mechanism": "pf-ladder"}),
    ("attack-vs-mechanism", "empirical", {"k_grid": K_DEFAULT, "mechanism": "empirical"}),
    ("attack-vs-mechanism", "noisy", {"k_grid": K_DEFAULT, "mechanism": "noisy",
                                      "noise_grid": (0.0, 1.0, 3.0)}),
    ("attack-vs-mechanism", "population-min", {"k_grid": K_DEFAULT,
                                               "mechanism": "population-min"}),
]


def small_config(**overrides):
    base = dict(experiment="vary-queries", n=400, k_grid=(20, 50), reps=5, seed=1)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults(self):
        config = ExperimentConfig(experiment="vary-queries", n=1000)
        assert config.k_grid == DEFAULT_K_GRID
        assert config.noise_grid == VARY_QUERIES_NOISE_GRID
        noise_cfg = ExperimentConfig(experiment="vary-noise", n=1000)
        assert noise_cfg.noise_grid == VARY_NOISE_GRID

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

    @pytest.mark.parametrize("experiment, mechanism, expected", READ_CASES)
    def test_read_options_take_their_defaults(self, experiment, mechanism, expected):
        config = ExperimentConfig(experiment=experiment, n=10000, mechanism=mechanism)
        for name in OPTION_VALUES:
            assert getattr(config, name) == expected.get(name), name

    @pytest.mark.parametrize("experiment, mechanism, name", [
        (experiment, mechanism, name) for experiment, mechanism, expected in READ_CASES
        for name in OPTION_VALUES if name not in expected])
    def test_unread_option_is_rejected(self, experiment, mechanism, name):
        flag = {"k_grid": "--k", "noise_grid": "--noise"}.get(name, f"--{name}")
        with pytest.raises(ValueError, match=f"^{experiment} does not read {flag}$"):
            ExperimentConfig(**{"experiment": experiment, "n": 10000, "mechanism": mechanism,
                                name: OPTION_VALUES[name]})

    def test_every_experiment_has_a_runner(self):
        assert set(_RUNNERS) == set(EXPERIMENTS)

    @pytest.mark.parametrize("overrides, message", [
        (dict(experiment="attack-vs-mechanism", mechanism="bogus"), "mechanism must be one of .*, got 'bogus'"),
        (dict(k_grid=(5.5,)), "k must be an integer, got 5.5"),
        (dict(k_grid=(True, 5)), "k must be an integer, got True"),
        (dict(n=100.5), "n must be an integer, got 100.5"),
        (dict(reps=2.0), "reps must be an integer, got 2.0"),
        (dict(seed=False), "seed must be an integer, got False"),
        (dict(per_rep="no"), "per_rep must be a bool, got 'no'"),
        (dict(experiment="reduction-oracle", k_grid=None, alpha="0.05"),
         "alpha must lie in .*, got '0.05'"),
        (dict(experiment="envelope", beta="0.1"),
         r"beta must lie in \(0, 1\), got '0.1'"),
        (dict(experiment=["vary-noise"]), r"unknown experiment \['vary-noise'\]"),
        (dict(k_grid=5), "k_grid must be a collection of values, got 5"),
        (dict(noise_grid=1.0), "noise_grid must be a collection of values, got 1.0"),
    ])
    def test_bad_values_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            small_config(**overrides)

    def test_numpy_integers_accepted(self):
        config = small_config(n=np.int64(400), k_grid=(np.int32(50), np.uint16(20)),
                              reps=np.int8(5), seed=np.uint64(1))
        assert (config.n, config.k_grid, config.reps, config.seed) == (400, (20, 50), 5, 1)
        assert all(type(v) is int for v in (config.n, *config.k_grid, config.reps, config.seed))
        assert experiment_csv(config) == experiment_csv(small_config())
        assert small_config(k_grid=np.array([50, 20, 50])).k_grid == (20, 50)

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
           k_grid=st.lists(st.integers(1, 100) | st.integers(250, 1200), min_size=1, max_size=5)
           .map(lambda ks: (*ks, 1, ks[0])),
           extra=st.lists(st.floats(0.1, 6.0), max_size=3, unique=True),
           rows_per_block=st.sampled_from([None, 8, 16, 24, 64, 254, 255, 256]),
           vote_columns=st.sampled_from([None, 5, 64]),
           reps=st.integers(1, 2), seed=st.integers(0, 2**32))
    @example(n=61, k_grid=(13, 1, 100, 13, 8), extra=[3.0], rows_per_block=16,
             vote_columns=None, reps=1, seed=4)
    @example(n=23, k_grid=(1200, 1, 600), extra=[0.5], rows_per_block=255, vote_columns=5,
             reps=1, seed=5)
    @settings(max_examples=80, deadline=None)
    def test_cells_equal_vstack_reference(self, n, k_grid, extra, rows_per_block, vote_columns,
                                          reps, seed):
        # unsorted k grids with duplicates, k = 1, k values inside and at
        # the end of a block, multiplier 0 next to noisy ones, blocks on
        # both sides of the 255 rows a uint8 pending count holds, k values
        # far enough apart for its flushes, and vote slices with a short last
        multipliers = (*extra, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            if rows_per_block is not None:  # half a block: that many rows of n entries
                patch.setattr(analysts, "BLOCK_ENTRIES", rows_per_block * n)
            if vote_columns is not None:
                patch.setattr(analysts, "VOTE_COLUMNS", vote_columns)
            cells = _attack_grid(n, k_grid, multipliers, reps, seed)
        assert set(cells) == {(k, m) for k in k_grid for m in multipliers}
        for (k, mult), errors in cells.items():
            stddev = None if mult == 0.0 else mult / math.sqrt(n)
            assert errors == [vstack_majority_attack(n, k, stddev, seed=(seed, rep)).final_error
                              for rep in range(reps)]

    def test_multiplier_to_stddev_is_one_division(self, monkeypatch):
        # 3 * (1 / sqrt(400)) is 0.15000000000000002, one ulp from the
        # 3 / sqrt(400) that the standalone attack is called with
        seen = []
        cells = analysts._attack_cells

        def spy(n, k_grid, noise_stddevs, seed):
            seen.extend(noise_stddevs)
            return cells(n, k_grid, noise_stddevs, seed)

        monkeypatch.setattr(analysts, "_attack_cells", spy)
        _attack_grid(400, (5,), (3.0,), 1, 0)
        assert seen == [3 / math.sqrt(400)]


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
            experiment="envelope", n=2000, k_grid=(20, 60), reps=4, seed=2,
        )
        rows = run_envelope(config)
        assert len(rows) == 2
        for cell in rows:
            assert cell.mechanism == "shaky"
            for rep in cell.reps:
                assert rep.final_error == rep.lberr
                assert rep.updates >= 0
                assert rep.max_noise > 0
        # envelope is attack-vs-mechanism on shaky with the lberr as its error
        attacked = run_attack_vs_mechanism(ExperimentConfig(
            experiment="attack-vs-mechanism", n=2000, k_grid=(20, 60), reps=4, seed=2,
            mechanism="shaky"))
        assert ([[(r.lberr, r.updates, r.max_noise) for r in cell.reps] for cell in rows]
                == [[(r.lberr, r.updates, r.max_noise) for r in cell.reps] for cell in attacked])

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

    def test_vector_attack_bounds_neither_n_nor_k(self, no_draws):
        # correlations are exact popcounts and votes exact integer counts for
        # any n and k; the grid's vote was float32, exact only below k = 2^24
        for n in (2**24, 2**30):
            ExperimentConfig(experiment="vary-noise", n=n, k_grid=(10,))
        ExperimentConfig(experiment="vary-noise", n=64, k_grid=(2**24,))
        with pytest.raises(AssertionError, match="drew before validating"):
            majority_attack_direct(64, 2**24)

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
