import sys
from pathlib import Path

import pytest

# Make sibling test helpers (synthetic.py) importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).resolve().parent))

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def no_draws(monkeypatch):
    """Make any draw by the attacks fail the test: checks must come first."""
    def refuse(*args, **kwargs):
        raise AssertionError("the attack drew before validating its input")
    monkeypatch.setattr("shakyladder.analysts.Rng", refuse)
