import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shakyladder.core import (
    HoldoutSample,
    SubmittedModel,
    Trace,
    _mismatches,
    _pack,
    clamp_release,
    empirical_risk,
    make_random_label_sample,
    model_from_predictions,
    write_trace_csv,
)
from synthetic import build_trace


class TestRandomLabelSample:
    def test_deterministic_in_seed(self):
        a = make_random_label_sample(4, 99)
        b = make_random_label_sample(4, 99)
        assert np.array_equal(a.hidden_labels, b.hidden_labels)

    def test_distinct_seeds_differ(self):
        a = make_random_label_sample(64, 1)
        b = make_random_label_sample(64, 2)
        assert not np.array_equal(a.hidden_labels, b.hidden_labels)

    def test_label_balance_large_n(self):
        sample = make_random_label_sample(10**6, 123)
        assert abs(float(np.mean(sample.hidden_labels)) - 0.5) < 0.002

    def test_single_point(self):
        sample = make_random_label_sample(1, 5)
        assert sample.hidden_labels[0] in (0, 1)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            make_random_label_sample(0, 1)

    def test_numpy_integer_seed(self):
        # the seed was kept as tuple(seed), a TypeError for a numpy integer
        sample = make_random_label_sample(8, np.int64(3))
        assert sample.seed == 3 and type(sample.seed) is int
        assert np.array_equal(sample.hidden_labels, make_random_label_sample(8, 3).hidden_labels)

    def test_labels_read_only(self):
        sample = make_random_label_sample(8, 3)
        with pytest.raises(ValueError):
            sample.hidden_labels[0] = 1

    def test_view_does_not_follow_later_writes(self):
        # the labels used to be kept as is: writing through the base of a view
        # changed them after validation, even to a value that is not binary,
        # and the caller's own array became read-only
        base = np.zeros(8, dtype=np.uint8)
        sample = HoldoutSample(4, base[::2], 0)
        base[0] = 7
        assert sample.hidden_labels.tolist() == [0, 0, 0, 0]
        labels = np.array([0, 1], dtype=np.uint8)
        sample = HoldoutSample(2, labels, 0)
        labels[0] = 1
        assert sample.hidden_labels.tolist() == [0, 1]


class TestModelFromPredictions:
    def test_perfect_predictions(self):
        sample = make_random_label_sample(32, 0)
        model = model_from_predictions(sample.hidden_labels.copy(), sample)
        assert empirical_risk(model) == 0.0
        assert model.population_risk == 0.5

    def test_complement_predictions(self):
        sample = make_random_label_sample(32, 0)
        model = model_from_predictions(1 - sample.hidden_labels, sample)
        assert np.all(model.loss_vector == 1)

    def test_random_predictions_near_half(self):
        sample = make_random_label_sample(10**4, 11)
        preds = make_random_label_sample(10**4, 12).hidden_labels
        model = model_from_predictions(preds, sample)
        assert abs(empirical_risk(model) - 0.5) < 0.015

    def test_length_mismatch(self):
        sample = make_random_label_sample(8, 3)
        with pytest.raises(ValueError):
            model_from_predictions(np.zeros(7, dtype=int), sample)


class TestEmpiricalRisk:
    @pytest.mark.parametrize(
        "losses,expected",
        [([0, 0, 0, 0], 0.0), ([1, 1], 1.0), ([0.2, 0.4, 0.6], 0.4)],
    )
    def test_hand_values(self, losses, expected):
        model = SubmittedModel(np.array(losses, dtype=float), 0.5)
        assert empirical_risk(model) == pytest.approx(expected, abs=1e-15)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, base, a, b):
        u = np.array(base)
        v = 1.0 - u
        combined = a * u + b * v
        if combined.max() > 1.0:
            return
        left = empirical_risk(SubmittedModel(combined, 0.5))
        right = a * empirical_risk(SubmittedModel(u, 0.5)) + b * empirical_risk(
            SubmittedModel(v, 0.5)
        )
        assert left == pytest.approx(right, abs=1e-12)


class TestSubmittedModelValidation:
    def test_rejects_out_of_range_losses(self):
        with pytest.raises(ValueError):
            SubmittedModel(np.array([0.5, 1.0 + 1e-9]), 0.5)
        with pytest.raises(ValueError):
            SubmittedModel(np.array([-1e-9, 0.5]), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_losses(self, bad):
        with pytest.raises(ValueError):
            SubmittedModel(np.array([0.5, bad]), 0.5)

    def test_tolerates_tiny_overshoot(self):
        model = SubmittedModel(np.array([1.0 + 5e-13, 0.0]), 0.5)
        assert model.size == 2

    def test_rejects_bad_population_risk(self):
        with pytest.raises(ValueError):
            SubmittedModel(np.array([0.5]), 1.5)

    def test_loss_vector_read_only(self):
        model = SubmittedModel(np.array([0.5, 0.25]), 0.5)
        with pytest.raises(ValueError):
            model.loss_vector[0] = 0.0

    def test_view_does_not_follow_later_writes(self):
        # a view used to be kept as is: writing through its base changed the
        # model's losses after validation
        base = np.zeros(6)
        model = SubmittedModel(base[::2], 0.5)
        base[0] = 7.0
        assert model.loss_vector.tolist() == [0.0, 0.0, 0.0]
        assert empirical_risk(model) == 0.0

    def test_callers_array_stays_writable(self):
        losses = np.array([0.5, 0.25])
        model = SubmittedModel(losses, 0.5)
        losses[0] = 1.0
        assert losses.flags.writeable
        assert model.loss_vector.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.float32, np.float64])
    def test_keeps_the_input_dtype(self, dtype):
        losses = np.array([1, 0, 0, 1, 1], dtype=dtype)
        model = SubmittedModel(losses, 0.5)
        assert model.loss_vector.dtype == losses.dtype
        assert empirical_risk(model) == float(np.mean(losses))


class TestTraceValidation:
    def test_first_round_compares_to_one(self):
        trace = build_trace([0.5], [1.0], empirical=[0.5])
        assert trace.update_count == 0

    def test_initial_noise_enters_max(self):
        trace = build_trace([0.5], [0.4], draws=[(0.1,)], initial_noise=0.3)
        assert trace.max_noise_magnitude == 0.3

    def test_update_count_counts_strict_decreases(self):
        trace = build_trace([0.5] * 3, [0.6, 0.6, 0.5])
        assert trace.update_count == 2

    def test_column_shapes_enforced(self):
        with pytest.raises(ValueError):
            Trace(empirical_risks=[0.5], released=[0.4], population_risks=[0.5, 0.5],
                  noise=np.full((1, 3), math.nan))
        with pytest.raises(ValueError):
            Trace(empirical_risks=[0.5], released=[0.4], population_risks=[0.5],
                  noise=np.full((1, 2), math.nan))

    def test_view_does_not_follow_later_writes(self):
        # the columns used to be kept as is: a trace built from views of one
        # row array followed later writes to it, and an array passed whole
        # became read-only for its caller
        rows = np.array([[0.5, 0.4, 0.1, math.nan, math.nan]])
        released = np.array([0.4])
        trace = Trace(empirical_risks=rows[:, 0], released=released,
                      population_risks=rows[:, 0], noise=rows[:, 2:])
        rows[0] = 0.9
        released[0] = 1.0
        assert trace.empirical_risks.tolist() == trace.population_risks.tolist() == [0.5]
        assert trace.released.tolist() == [0.4]
        assert trace.max_noise_magnitude == 0.1
        assert trace.update_count == 1

    def test_columns_read_only(self):
        trace = build_trace([0.5], [0.4], draws=[(0.1, 0.2, 0.3)])
        with pytest.raises(ValueError):
            trace.released[0] = 0.0
        with pytest.raises(ValueError):
            trace.noise[0, 0] = 0.0


def test_trace_csv_schema(tmp_path):
    trace = build_trace([0.5, 0.5], [0.4, 0.4], empirical=[0.45, 0.5],
                        draws=[(0.01, 0.02, 0.03), ()])
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,empirical_risk,released,population_risk,updated,noise1,noise2,noise3"
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "1"
    assert [float(x) for x in first[5:]] == [0.01, 0.02, 0.03]
    assert lines[2].endswith(",,,")  # no draws on the second round


def test_trace_csv_presentation_clamp(tmp_path):
    # The CSV keeps the raw release; clamping is left to whoever displays it.
    trace = build_trace([0.5], [1.02], empirical=[0.99], draws=[(0.05,)])
    raw = tmp_path / "raw.csv"
    write_trace_csv(trace, raw)
    written = raw.read_text().splitlines()[1].split(",")[2]
    assert written == "1.02"
    assert clamp_release(float(written)) == 1.0
    assert clamp_release(-0.01) == 0.0


def test_holdout_sample_validation():
    with pytest.raises(ValueError):
        HoldoutSample(size=2, hidden_labels=np.array([0, 2]), seed=0)
    with pytest.raises(ValueError):
        HoldoutSample(size=3, hidden_labels=np.array([0, 1]), seed=0)


@pytest.mark.parametrize("labels", [[True, False, True], [0.0, 1.0, 1.0], [1, 0, 0]])
def test_holdout_sample_accepts_binary_labels(labels):
    assert HoldoutSample(size=3, hidden_labels=np.array(labels), seed=0).size == 3


@pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
def test_holdout_sample_rejects_non_binary_labels(bad):
    with pytest.raises(ValueError, match="binary"):
        HoldoutSample(size=3, hidden_labels=np.array([0, 1, bad]), seed=0)


@pytest.mark.parametrize("n", [65472, 65473], ids=["uint16", "uint32"])
def test_mismatches_count_full_rows_exactly(n):
    # rows of up to 65472 entries sum their popcounts in uint16, longer ones in
    # uint32; an all-ones row against zeros is the largest count either holds
    ones, zeros = _pack(np.ones(n, dtype=np.uint8)), _pack(np.zeros(n, dtype=np.uint8))
    counts = _mismatches(np.stack([ones, zeros, ones]), zeros)
    assert counts.dtype == np.int64
    assert counts.tolist() == [n, 0, n]
