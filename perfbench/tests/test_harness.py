"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import shakyladder  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestTailLatency:
    @pytest.mark.parametrize("count, rank, percentile", [
        (100, 90, 90.0),
        (44, 34, 100.0 * 34 / 44),
        (20, 10, 50.0),
        (11, 1, 100.0 / 11),
    ])
    def test_ten_samples_beyond(self, count, rank, percentile):
        latencies = [float(v) for v in range(count, 0, -1)]  # any order
        value, pct, samples = worker.tail_latency(latencies)
        assert value == float(rank)
        assert pct == pytest.approx(percentile)
        assert samples == count
        assert sum(v > value for v in latencies) == 10

    def test_too_few_samples_reports_the_maximum(self):
        assert worker.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


class TestSelfTimes:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def inner(step):
            clock.now += step

        def outer():
            clock.now += 5
            traced_inner(3)
            clock.now += 7
            traced_inner(4)
            clock.now += 1

        traced_inner = tracer.wrap(inner, "noise.inner")
        traced_outer = tracer.wrap(outer, "core.outer")
        for _ in range(2):
            with tracer.operation():
                clock.now += 2
                traced_outer()
        matrix, labels, wall = tracer.self_times()
        by_layer = dict(zip(labels, matrix[1]))
        assert by_layer["core"] == 13
        assert by_layer["noise"] == 7
        assert by_layer["remainder"] == 2
        assert sum(by_layer.values()) == wall[1] == 22
        assert tracer.span_count("noise") == 4
        assert tracer.inclusive_ns(lambda name: name == "core.outer") == 40

    def test_same_layer_recursion(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def countdown(depth):
            clock.now += 1
            if depth:
                traced(depth - 1)

        traced = tracer.wrap(countdown, "core.countdown")
        with tracer.operation():
            traced(3)
        matrix, labels, wall = tracer.self_times()
        assert matrix[0][labels.index("core")] == 4 == wall[0]

    def test_calls_outside_an_operation_are_not_recorded(self):
        tracer = tracing.Tracer()
        assert tracer.wrap(lambda: 7, "core.seven")() == 7
        assert len(tracer.name_col) == 0


def test_install_wraps_every_binding_and_restores():
    tracer = tracing.Tracer()
    original = shakyladder.core.make_random_label_sample
    init = shakyladder.core.SubmittedModel.__init__
    with tracer.installed(), tracer.operation():
        assert shakyladder.experiments.make_random_label_sample is not original
        assert shakyladder.core.SubmittedModel.__init__ is not init
        shakyladder.experiments.make_random_label_sample(10, 1)
    assert shakyladder.experiments.make_random_label_sample is original
    assert shakyladder.core.SubmittedModel.__init__ is init
    names = {tracer.names[i] for i in tracer.name_col}
    assert {"core.make_random_label_sample", "noise.Rng.__init__", "noise.Rng.integers"} <= names


class TestFailedShare:
    def test_corrupted_output_is_counted(self):
        workload = workloads.EnvelopeShaky()
        s = 5
        good = workload.run(s)
        code, text = good
        lines = text.split("\n")
        fields = lines[1].split(",")
        fields[10] = "0.75"  # lberr no longer equals final_error
        corrupted = [
            (code, text.replace("updates_B", "updates")),
            (code, "\n".join([lines[0], ",".join(fields)] + lines[2:])),
            (code, "\n".join(lines[:-2]) + "\n"),
            (1, text),
        ]
        ops = [worker.Op(s, good, None, 0.1, False)]
        ops += [worker.Op(s, bad, None, 0.1, False) for bad in corrupted]
        ops.append(worker.Op(s, None, "ValueError: boom", 0.1, False))
        failures = worker.check_ops(workload, ops)
        assert sorted(failures) == [1, 2, 3, 4, 5]

    def test_malformed_grid_row_is_counted(self):
        text = workloads.CSV_HEADER + "\nvary-noise,direct,40000,many,0,1,0.5,nan\n"
        failures = worker.check_ops(workloads.AttackGrid(), [worker.Op(1, (0, text), None, 0.1, False)])
        assert list(failures) == [0]
        assert "ValueError" in failures[0]

    def test_measure_counts_failed_checks(self, monkeypatch):
        class Flaky:
            name = "flaky"
            regime_warnings = 0

            def run(self, s):
                return s

            def check(self, s, output):
                return ["odd output"] if output % 2 else []

            def render(self, output):
                return str(output)

            def cli_bytes(self, output):
                return 0

        monkeypatch.setitem(workloads.WORKLOADS, "flaky", Flaky)
        result = worker.measure("flaky", 0, 0.05, False, worker.time.monotonic(),
                                worker.hostspeed.calibrate(), None)
        attempted, failed = result["attempted"], result["failed"]
        assert attempted >= 2
        assert failed == (attempted + 1) // 2  # ops 1, 3, 5, ... are corrupted
        assert all("odd output" in line for line in result["failures"])

    def test_unexpected_regime_warning_fails_the_op(self):
        class Warns:
            regime_warnings = 0

            def run(self, s):
                shakyladder.shaky_params(1000, 10, 0.1)
                return s

        output, _, error = worker.run_op(Warns(), 1)
        assert output == 1
        assert error == "1 regime warnings, expected 0"


def test_expected_regime_warnings_match_the_package():
    import warnings

    workload = workloads.EnvelopeShaky
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for k in workload.k_grid:
            shakyladder.shaky_params(workload.n, k + 1, workload.beta)
    assert len(caught) == workload.regime_warnings


def test_reported_metrics_match_benchmark_json():
    import json

    import run

    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    tracer = tracing.Tracer()
    with tracer.operation():
        pass
    metrics, problems = worker.layer_metrics(tracer, workloads.ShiftedLadder(), [1.0], [1.0])
    assert problems == []
    assert {(m["name"], m["unit"]) for m in bench["per_layer"]} == {
        (name, run._layer_unit(name)) for name in metrics}


def test_timings_are_rescaled_to_the_reference_host_speed(monkeypatch):
    class Steady:
        name = "steady"
        regime_warnings = 0

        def run(self, s):
            return s

        def check(self, s, output):
            return []

        def render(self, output):
            return str(output)

    slow_kernel = 2 * worker.hostspeed.NOMINAL_S  # a host at half the reference speed
    monkeypatch.setattr(worker.hostspeed, "calibrate", lambda: slow_kernel)
    monkeypatch.setitem(workloads.WORKLOADS, "steady", Steady)
    result = worker.measure("steady", 0, 0.05, False, worker.time.monotonic(), slow_kernel, None)
    assert result["setup_s"] == pytest.approx(result["setup_wall_s"] / 2)
    assert result["op_ms_p50"] == pytest.approx(result["wall"]["op_ms_p50"] / 2)
    assert result["ops_per_s"] == pytest.approx(result["wall"]["ops_per_s"] * 2)
    assert set(result["speeds"]) == {0.5}
