import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

from shakyladder import analysts
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
def worker_draws(monkeypatch):
    """Send every block after a stream's first to the draw worker; returns the thread
    of each ``Rng.bit_rows`` call, in call order.

    The worker is used whatever the CPU count. A caller that needs a draw the worker
    has not begun takes it back (``Future.cancel()``) and draws it itself; here it first
    waits up to 10 s for the worker to begin, so that the worker draws every queued block.
    """
    threads, draw, cancel = [], Rng.bit_rows, Future.cancel

    def spy(rng, rows, n):
        threads.append(threading.current_thread())
        return draw(rng, rows, n)

    def patient(future):
        deadline = time.monotonic() + 10
        while not (future.running() or future.done()) and time.monotonic() < deadline:
            time.sleep(1e-4)
        return cancel(future)

    monkeypatch.setattr(Rng, "bit_rows", spy)
    monkeypatch.setattr(Future, "cancel", patient)
    monkeypatch.setattr(analysts, "_multiple_cpus", lambda: True)
    return threads
