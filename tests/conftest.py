import os
import sys
import threading
from pathlib import Path

import pytest

from shakyladder.noise import Rng, _seed_path

# Make sibling test helpers (synthetic.py) importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).resolve().parent))

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def no_draws(monkeypatch):
    """Make any draw fail the test: checks must come first.

    Every module that builds an ``Rng`` gets one that checks its seed path as
    ``Rng`` does, so that a bad seed is still a ValueError, and then fails. A
    test whose inputs draw (a holdout, a Shaky Ladder) builds them first and
    then calls ``request.getfixturevalue("no_draws")``.
    """
    def refuse(seed, *stream):
        _seed_path(seed, stream)
        raise AssertionError("drew before validating its input")
    for module in ("core", "mechanisms", "analysts", "experiments"):
        monkeypatch.setattr(f"shakyladder.{module}.Rng", refuse)


@pytest.fixture
def draw_threads(monkeypatch):
    """Record the thread of each ``Rng.bit_rows`` call, in call order."""
    threads, draw = [], Rng.bit_rows

    def spy(rng, rows, n):
        threads.append(threading.current_thread())
        return draw(rng, rows, n)

    monkeypatch.setattr(Rng, "bit_rows", spy)
    return threads


@pytest.fixture
def visible_cpus(monkeypatch):
    """Set how many CPUs the process sees: ``visible_cpus(count)``."""
    def see(count):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return see
