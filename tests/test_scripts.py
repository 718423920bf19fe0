"""Smoke runs of the result scripts, which build ExperimentConfig directly."""

import importlib.util
import sys
from pathlib import Path

from shakyladder.experiments import CSV_HEADER

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS", tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()
    return {path.name: path.read_text(encoding="utf-8").splitlines()
            for path in tmp_path.iterdir()}


def test_run_figures(tmp_path, monkeypatch):
    written = run_script("run_figures", ["--reps", "1"], tmp_path, monkeypatch)
    # vary-queries: 10 k values x 3 noise levels; vary-noise: 3 k values x 7 levels.
    expected = {"vary_queries_10000.csv": 30, "vary_noise_10000.csv": 21,
                "vary_queries_40000.csv": 30, "vary_noise_40000.csv": 21}
    assert {name: len(lines) - 1 for name, lines in written.items()} == expected
    for lines in written.values():
        assert lines[0] == CSV_HEADER

