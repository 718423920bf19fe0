import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_goldens.py"


def load_script():
    spec = importlib.util.spec_from_file_location("make_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_passes_on_committed_fixtures():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr


def test_check_names_changed_and_missing_files(tmp_path, monkeypatch, capsys, fixtures_dir):
    module = load_script()
    shutil.copytree(fixtures_dir, tmp_path, dirs_exist_ok=True)
    (tmp_path / "vq_small.csv").write_bytes((tmp_path / "vq_small.csv").read_bytes() + b"\n")
    (tmp_path / "uniform_seed42.txt").unlink()
    monkeypatch.setattr(module, "FIXTURES", tmp_path)
    assert module.main(["--check"]) == 1
    named = sorted(Path(line.split(": ", 1)[1]).name
                   for line in capsys.readouterr().err.splitlines())
    assert named == ["uniform_seed42.txt", "vq_small.csv"]
