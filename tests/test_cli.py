import contextlib
import io
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shakyladder import cli, experiments
from shakyladder.cli import cli_main
from shakyladder.noise import Rng

BASE = ["--experiment", "vary-queries", "--n", "400", "--k", "20,50",
        "--reps", "5", "--seed", "1"]


def test_success_row_count(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert cli_main(BASE + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6  # header + 2 k-values x 3 default noise levels


def test_stdout_when_no_out_flag(capsys):
    assert cli_main(BASE) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("experiment,mechanism,")


def test_missing_n_exits_2(capsys):
    assert cli_main(["--experiment", "vary-queries"]) == 2


def test_missing_experiment_exits_2(capsys):
    assert cli_main(["--n", "100"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert cli_main(BASE + ["--frobnicate"]) == 2


@pytest.mark.parametrize("extra", [["--frobnicate"], ["--frobnicate=1", "x", "y"]])
def test_unknown_arguments_reported_as_parse_args_reports_them(extra, capsys):
    assert cli_main(BASE + extra) == 2
    with contextlib.redirect_stderr(io.StringIO()) as expected, pytest.raises(SystemExit):
        cli._build_parser().parse_args(BASE + extra)
    assert capsys.readouterr().err == expected.getvalue()
    assert "unrecognized arguments: " + " ".join(extra) in expected.getvalue()


def test_argv_parsed_once_without_config(monkeypatch, capsys):
    parser, calls = cli._build_parser(), []
    parse = parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args",
                        lambda *args, **kwargs: calls.append(args) or parse(*args, **kwargs))
    assert cli_main(BASE) == 0
    assert len(calls) == 1


def test_bad_grid_exits_2(capsys):
    assert cli_main(["--experiment", "vary-queries", "--n", "100", "--k", "a,b"]) == 2


def test_invalid_reps_exits_2(capsys):
    assert cli_main(BASE[:-2] + ["--reps", "0"]) == 2


def test_golden_match_and_mismatch(tmp_path, fixtures_dir, capsys):
    golden = fixtures_dir / "vq_small.csv"
    out = tmp_path / "r.csv"
    assert cli_main(BASE + ["--out", str(out), "--golden", str(golden)]) == 0
    # perturbed seed must be detected byte-for-byte
    args = [a if a != "1" else "2" for a in BASE]
    assert cli_main(args + ["--out", str(out), "--golden", str(golden)]) == 3


def test_unwritable_output_exits_1(tmp_path, capsys):
    missing_dir = tmp_path / "nope" / "r.csv"
    assert cli_main(BASE + ["--out", str(missing_dir)]) == 1
    assert "nope" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# vary-queries smoke\n"
        "experiment = vary-queries\n"
        "n = 400\n"
        "k = 20,50\n"
        "reps = 5\n"
        "seed = 1\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(BASE + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = vary-queries\nn = 400\nk = 20,50\nreps = 5\nseed = 1\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli_main(["--config", str(config), "--seed", "9", "--out", str(out_a)]) == 0
    assert cli_main([a if a != "1" else "9" for a in BASE] + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = vary-queries\nn = 400\nbogus = 1\n")
    assert cli_main(["--config", str(config)]) == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli_main(["--config", str(tmp_path / "none.cfg")]) == 2


def test_config_file_not_utf8_names_the_file(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"n = 4\xff\n")
    assert cli_main(["--config", str(config)]) == 2
    assert capsys.readouterr().err == (f"cannot read config file {config}: 'utf-8' codec can't "
                                       "decode byte 0xff in position 5: invalid start byte\n")


def test_per_rep_flag(tmp_path):
    out = tmp_path / "r.csv"
    assert cli_main(BASE + ["--per-rep", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].endswith("max_noise_L")
    assert len(lines) == 1 + 6 * 5


def test_consecutive_calls_share_no_state(tmp_path):
    # one parser serves every call in a process: a --per-rep run must not
    # leave the next run's header with the per-rep columns
    per_rep, plain = tmp_path / "per_rep.csv", tmp_path / "plain.csv"
    assert cli._build_parser() is cli._build_parser()
    assert cli_main(BASE + ["--per-rep", "--out", str(per_rep)]) == 0
    assert cli_main(BASE + ["--out", str(plain)]) == 0
    assert per_rep.read_text().splitlines()[0].endswith("max_noise_L")
    assert plain.read_text().splitlines()[0] == ("experiment,mechanism,n,k,noise_multiplier,"
                                                 "rep_count,mean_error,std_error")


@pytest.mark.parametrize("parallel", [True, False])
def test_many_block_golden_with_and_without_the_draw_worker(parallel, fixtures_dir, visible_cpus,
                                                            draw_threads, capsys):
    # 20 query blocks per rep, all drawn on the calling thread whether the process sees
    # several CPUs (where a draw thread once drew all but each stream's first) or one
    visible_cpus(4 if parallel else 1)
    assert cli_main(["--experiment", "vary-noise", "--n", "40000", "--k", "100,1000",
                     "--reps", "2", "--golden", str(fixtures_dir / "vn_blocks.csv")]) == 0
    assert draw_threads == [threading.main_thread()] * 40


@pytest.mark.parametrize("parallel", [True, False])
def test_mechanism_driven_golden_with_and_without_the_draw_worker(parallel, fixtures_dir,
                                                                  visible_cpus, draw_threads,
                                                                  capsys):
    # each rep reads one block at k = 100 and two (209 and 91 rows) at k = 300, all on the
    # calling thread
    visible_cpus(4 if parallel else 1)
    assert cli_main(["--experiment", "envelope", "--n", "10000", "--k", "100,300", "--reps", "2",
                     "--per-rep", "--golden", str(fixtures_dir / "envelope_small.csv")]) == 0
    assert draw_threads == [threading.main_thread()] * 6


def test_memory_error_exits_2_with_one_line(monkeypatch, capsys):
    def runner(config):
        raise MemoryError("Unable to allocate 93.1 GiB")

    monkeypatch.setitem(experiments._RUNNERS, "vary-noise", runner)
    assert cli_main(["--experiment", "vary-noise", "--n", str(10**11), "--k", "10",
                     "--reps", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "not enough memory to run vary-noise: Unable to allocate 93.1 GiB\n"



def test_memory_error_on_the_draw_worker_exits_2(draw_threads, monkeypatch, capsys):
    # vary-noise at n = 40000 reads 20 blocks of 52 queries; the fourth block's draw fails
    # on the calling thread, where a draw thread once drew it
    draw = Rng.bit_rows

    def failing(rng, rows, n):
        if len(draw_threads) == 3:
            draw_threads.append(threading.current_thread())
            raise MemoryError()
        return draw(rng, rows, n)

    monkeypatch.setattr(Rng, "bit_rows", failing)
    assert cli_main(["--experiment", "vary-noise", "--n", "40000", "--k", "100,1000",
                     "--reps", "1"]) == 2
    assert draw_threads == [threading.main_thread()] * 4
    assert capsys.readouterr().err == "not enough memory to run vary-noise\n"

SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(argv):
    """Run ``python -m shakyladder`` so stderr is exactly what a user sees."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "shakyladder", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["--experiment", "attack-vs-mechanism", "--k", "100", "--n", "40"],  # k > n
    ["--experiment", "envelope", "--n", "50", "--k", "100"],  # k > n
    ["--experiment", "envelope", "--n", "64", "--k", "10"],  # epsilon >= 1/3
    ["--experiment", "attack-vs-mechanism", "--n", "64", "--k", "10", "--reps", "1"],
    ["--experiment", "vary-queries", "--n", "64", "--k", "5", "--seed", "-1"],
    ["--experiment", "vary-queries", "--n", "64", "--k", "5", "--seed", str(2**64)],
    ["--experiment", "envelope", "--n", "64", "--k", str(2**24)],  # k > n; only vary-* takes any k
    *(["--experiment", "attack-vs-mechanism", "--mechanism", "ladder", "--eta", eta,
       "--n", "100", "--k", "10", "--reps", "2"] for eta in ("nan", "inf")),
])
def test_run_time_regime_errors_exit_2(argv):
    result = run_module(argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["--experiment", "vary-noise", "--n", str(2**63 - 1), "--k", "10"],
    ["--experiment", "vary-noise", "--n", str(10**24), "--k", "10"],
    ["--experiment", "envelope", "--n", str(10**24), "--k", "10"],
    ["--experiment", "reduction-oracle", "--n", str(10**24)],
    ["--experiment", "attack-vs-mechanism", "--mechanism", "ladder", "--n", str(10**24),
     "--k", "10"],
    ["--experiment", "vary-queries", "--n", "100", "--k", str(10**23)],
    ["--experiment", "reduction-oracle", "--n", "100", "--alpha", "1e-30"],
], ids=["vary-noise-n-2**63-1", "vary-noise", "envelope", "reduction-oracle",
        "attack-vs-mechanism", "vary-queries-k", "reduction-oracle-alpha"])
def test_sizes_no_array_can_hold_exit_2(argv):
    # the draw-size rule raises MemoryError before numpy allocates anything; the
    # line names the shape, not n, which is small in the k and alpha cases
    result = run_module([*argv, "--reps", "1"])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"not enough memory to run {argv[1]}: a draw of shape (")
    assert "n=" not in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_regime_warnings_print_as_one_plain_line():
    # n = 10000 is below the Shaky Ladder's generalization requirement at these k
    result = run_module(["--experiment", "envelope", "--n", "10000", "--k", "100,300",
                         "--reps", "1"])
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 2, lines
    assert all(line.startswith("warning: n=10000 is below the generalization requirement")
               for line in lines), lines


@pytest.mark.parametrize("experiment", ["vary-noise", "attack-vs-mechanism"])
@pytest.mark.parametrize("given,canonical", [("1,1", "1"), ("3,0,1", "0,1,3"), ("-0", "0")])
def test_noise_grid_sorted_and_deduplicated(tmp_path, experiment, given, canonical):
    argv = ["--experiment", experiment, "--n", "100", "--k", "10", "--reps", "2", "--per-rep"]
    if experiment == "attack-vs-mechanism":
        argv += ["--mechanism", "noisy"]
    out_given, out_canonical = tmp_path / "given.csv", tmp_path / "canonical.csv"
    assert cli_main(argv + [f"--noise={given}", "--out", str(out_given)]) == 0
    assert cli_main(argv + [f"--noise={canonical}", "--out", str(out_canonical)]) == 0
    assert out_given.read_bytes() == out_canonical.read_bytes()


@pytest.mark.parametrize("argv,unread", [
    (["--experiment", "envelope", "--n", "10000", "--k", "100", "--reps", "1",
      "--mechanism", "ladder", "--noise", "5", "--alpha", "7"],
     "envelope does not read --noise, --mechanism, --alpha"),
    (["--experiment", "attack-vs-mechanism", "--n", "10000", "--k", "100", "--reps", "1",
      "--mechanism", "shaky", "--noise", "1,3", "--eta", "nan", "--alpha", "-1"],
     "attack-vs-mechanism does not read --noise, --eta, --alpha"),
    (["--experiment", "vary-noise", "--n", "400", "--k", "20", "--reps", "1",
      "--mechanism", "ladder", "--eta", "-3", "--beta", "5"],
     "vary-noise does not read --mechanism, --beta, --eta"),
    (["--experiment", "reduction-oracle", "--n", "100", "--reps", "1", "--k", "5"],
     "reduction-oracle does not read --k"),
])
def test_flags_the_experiment_ignores_exit_2(argv, unread):
    # Each of these runs used to exit 0 with rows computed from the defaults.
    result = run_module(argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert unread in result.stderr


def test_config_key_the_experiment_ignores_exits_2(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = vary-queries\nn = 400\nk = 20\nreps = 1\nalpha = 0.1\n")
    result = run_module(["--config", str(config)])
    assert result.returncode == 2
    assert "does not read --alpha" in result.stderr


@pytest.mark.parametrize("entry", ["mechanism = bogus", "per_rep = maybe", "n = many"])
def test_invalid_config_value_exits_2(tmp_path, entry):
    config = tmp_path / "run.cfg"
    config.write_text(f"experiment = vary-queries\nn = 400\nk = 20\nreps = 1\n{entry}\n")
    result = run_module(["--config", str(config)])
    assert result.returncode == 2
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("spelling,rows", [("yes", 1 + 3), ("Off", 1 + 3), ("true", 1 + 3)])
def test_config_per_rep_spellings(tmp_path, spelling, rows):
    config = tmp_path / "run.cfg"
    config.write_text("experiment = vary-queries\nn = 400\nk = 20\nreps = 1\n"
                      f"per_rep = {spelling}\n")
    out = tmp_path / "r.csv"
    assert cli_main(["--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == rows
    assert lines[0].endswith("max_noise_L") == (spelling != "Off")


def _flag(name, values):
    return st.tuples(st.just(name), st.sampled_from(values)).map(list)


#: Known flags with valid, invalid and out-of-range values; sizes stay small.
_FLAGS = st.one_of(
    _flag("--experiment", ["vary-queries", "vary-noise", "envelope", "reduction-oracle",
                           "attack-vs-mechanism", "bogus"]),
    _flag("--n", ["-1", "0", "1", "8", "40", "64", "x", ""]),
    _flag("--k", ["0", "1", "1,5", "7,3,7", "40", "64", "-1", "a,b", ""]),
    _flag("--noise", ["0", "0,3", "1.5", "-1", "nan", "inf", "x"]),
    _flag("--seed", ["0", "3", "-5", "x"]),
    _flag("--mechanism", ["shaky", "ladder", "pf-ladder", "empirical", "noisy",
                          "population-min", "bogus"]),
    _flag("--beta", ["0.1", "0.5", "0", "1", "-1", "nan"]),
    _flag("--eta", ["0.01", "0", "-1", "inf", "nan"]),
    _flag("--alpha", ["0.05", "0.2", "1/3", "0.34", "0.5", "0", "-1", "nan"]),
    st.just(["--per-rep"]),
    st.just(["--frobnicate"]),
    # Neither no-such-dir path exists, so nothing is written and both exit 1.
    st.just(["--out", "no-such-dir/r.csv"]),
    st.just(["--golden", "no-such-dir/golden.csv"]),
    st.just(["--golden", str(Path(__file__).resolve().parent / "fixtures" / "vq_small.csv")]),
)


@given(
    experiment=st.sampled_from(["vary-queries", "vary-noise", "envelope", "reduction-oracle",
                                "attack-vs-mechanism"]),
    n=st.integers(1, 64),
    flags=st.lists(_FLAGS, max_size=6),
    reps=st.sampled_from(["1", "2", "1", "2", "0"]),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_argv_exits_cleanly(experiment, n, flags, reps):
    # A valid experiment and n come first, so most draws get past the
    # required flags; drawn flags may override either of them.
    argv = ["--experiment", experiment, "--n", str(n)]
    argv += [part for flag in flags for part in flag] + ["--reps", reps]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in stderr.getvalue()
