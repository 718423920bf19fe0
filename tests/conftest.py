import sys
import threading
import time
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
    """Send every block after a stream's first to the draw thread; returns the thread of
    each call of the raw-draw seam ``Rng._raw_words``, in call order.

    The thread is used whatever the CPU count. A caller that needs a block whose request
    the thread has not claimed claims it and draws the block itself; here each request,
    once queued, waits up to 10 s for the thread to claim it, so that the thread draws
    every queued block.
    """
    threads, draw, requests = [], Rng._raw_words, analysts._requests

    def spy(rng, shape):
        threads.append(threading.current_thread())
        return draw(rng, shape)

    class Patient:
        def put(self, request):
            requests().put(request)
            _, _, claim, _ = request
            deadline = time.monotonic() + 10
            while not claim.locked() and time.monotonic() < deadline:
                time.sleep(1e-4)

    monkeypatch.setattr(Rng, "_raw_words", spy)
    monkeypatch.setattr(analysts, "_requests", Patient)
    monkeypatch.setattr(analysts, "_multiple_cpus", lambda: True)
    return threads
