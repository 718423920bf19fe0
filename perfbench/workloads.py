"""The three benchmark workloads: one seeded operation each, plus its checks.

An operation is one seeded repetition through a public entry point of the
package. Operation ``s`` uses sub-seed ``(s, 0)``: the CLI derives it from
``--seed s`` for its single repetition, the shifted attack receives it
directly. Workload sizes are fixed here; only the seed varies between runs.

The checks never pin random-stream bytes. They test the frozen CSV schema,
invariants that hold for every seed, and equality with an independent
public entry point evaluated on the same seed, so a deliberate generator
change leaves them valid.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from shakyladder import analysts, cli, core, mechanisms

CSV_HEADER = "experiment,mechanism,n,k,noise_multiplier,rep_count,mean_error,std_error"
PER_REP_HEADER = CSV_HEADER + ",rep,final_error,lberr,updates_B,max_noise_L"
REGIME_WARNING = "generalization requirement"


def _csv_rows(text: str, header: str, problems: list[str]) -> list[list[str]]:
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
        return []
    lines = text[:-1].split("\n")
    if lines[0] != header:
        problems.append(f"header changed: {lines[0]!r}")
        return []
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        problems.append(f"a row does not have {width} fields")
        return []
    return rows


def _number(text: str, problems: list[str]) -> float:
    try:
        return float(text)
    except ValueError:
        problems.append(f"not a number: {text!r}")
        return math.nan


def expected_regime_warnings(n: int, k_grid, beta: float) -> int:
    """How many of the grid's mechanisms sit below the sample-size regime.

    Recomputed from the paper's formulas for (n, k+1, beta), independently
    of ``shaky_params``: n < (1/eps^2) ln(4 eps/delta).
    """
    count = 0
    for k in k_grid:
        rounds = k + 1
        delta = beta / (rounds * n)
        epsilon = (math.log(rounds / beta) * math.sqrt(math.log(1.0 / delta)) / n) ** 0.6
        count += n < math.log(4.0 * epsilon / delta) / epsilon**2
    return count


class CliWorkload:
    """An op is one ``cli_main`` call; its output is (exit code, CSV text)."""

    def argv(self, s: int) -> list[str]:
        raise NotImplementedError

    def run(self, s: int) -> tuple[int, str]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.cli_main(self.argv(s))
        return code, buffer.getvalue()

    def render(self, output) -> str:
        return f"exit={output[0]}\n{output[1]}"

    def cli_bytes(self, output) -> int:
        return len(output[1].encode("utf-8"))


class AttackGrid(CliWorkload):
    """Headline neutralisation table: vary-noise at n=40000, one rep per op."""

    name = "attack-grid"
    n = 40000
    k_grid = tuple(range(100, 1001, 100))
    noise_grid = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
    regime_warnings = 0

    def argv(self, s: int) -> list[str]:
        return ["--experiment", "vary-noise", "--n", str(self.n), "--reps", "1", "--seed", str(s)]

    def check(self, s: int, output) -> list[str]:
        code, text = output
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = _csv_rows(text, CSV_HEADER, problems)
        cells = {}
        for row in rows:
            error = _number(row[6], problems)
            if not 0.0 <= error <= 1.0:
                problems.append(f"error {row[6]} outside [0, 1]")
            cells[(int(row[3]), float(row[4]))] = error
        expected = [(k, m) for k in self.k_grid for m in self.noise_grid]
        if len(rows) != len(expected) or set(cells) != set(expected):
            problems.append(f"expected the {len(expected)} cells of the default grid, got {len(rows)} rows")
        if problems:
            return problems
        k, mult = random.Random(s).choice(expected)
        stddev = mult / math.sqrt(self.n) if mult else None
        reference = analysts.majority_attack_direct(self.n, k, stddev, seed=(s, 0)).final_error
        if cells[(k, mult)] != reference:
            problems.append(f"cell k={k} m={mult}: {cells[(k, mult)]!r} != direct attack {reference!r}")
        return problems


class EnvelopeShaky(CliWorkload):
    """Envelope audit of the Shaky Ladder under the mechanism-driven attack."""

    name = "envelope-shaky"
    n = 10000
    k_grid = (100, 300, 1000)
    beta = 0.1  # the CLI default
    regime_warnings = expected_regime_warnings(n, k_grid, beta)

    def argv(self, s: int) -> list[str]:
        return ["--experiment", "envelope", "--n", str(self.n),
                "--k", ",".join(map(str, self.k_grid)), "--reps", "1", "--per-rep", "--seed", str(s)]

    def check(self, s: int, output) -> list[str]:
        code, text = output
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = _csv_rows(text, PER_REP_HEADER, problems)
        if len(rows) != len(self.k_grid) and not problems:
            problems.append(f"expected {len(self.k_grid)} rows, got {len(rows)}")
        for row, k in zip(rows, self.k_grid):
            if row[:3] != ["envelope", "shaky", str(self.n)] or row[3] != str(k):
                problems.append(f"unexpected cell {row[:4]}")
            final_error, lberr, updates, max_noise = (_number(v, problems) for v in row[9:13])
            if final_error != lberr:
                problems.append(f"k={k}: final_error {row[9]} != lberr {row[10]}")
            if not (updates.is_integer() and 0 <= updates <= k + 1):
                problems.append(f"k={k}: updates_B {row[11]} is not an integer in [0, k+1]")
            if not max_noise > 0.0:
                problems.append(f"k={k}: max_noise_L {row[12]} is not positive")
        return problems


class ShiftedLadder:
    """Shifted majority attack against the deterministic Ladder (criterion 9,
    scaled down); the mechanism records nothing and draws no noise."""

    name = "shifted-ladder"
    n = 2500
    k = 100
    alpha = 1.0 / 400.0
    regime_warnings = 0

    def run(self, s: int):
        seed = (s, 0)
        sample = core.make_random_label_sample(self.n, seed)
        ladder = mechanisms.Ladder(mechanisms.LadderConfig(eta=self.alpha / 2.0), record=False)
        report, trace = analysts.shifted_majority_attack(
            ladder, sample, self.k, self.alpha, seed, selection="direct")
        return report, trace, ladder.round

    def render(self, output) -> str:
        report, trace, rounds = output
        return (f"final_error={report.final_error!r} selected={report.selected_count} "
                f"queries={report.queries_issued} feedback={report.feedback_received} "
                f"final_released={report.final_released!r} rounds={rounds} "
                f"trace={trace is not None}\n")

    def cli_bytes(self, output) -> int:
        return 0

    def check(self, s: int, output) -> list[str]:
        report, trace, rounds = output
        problems = []
        if not 0.0 <= report.final_error <= 1.0:
            problems.append(f"final_error {report.final_error} outside [0, 1]")
        if not 0 <= report.selected_count <= report.queries_issued:
            problems.append("selected_count outside [0, queries_issued]")
        if report.queries_issued != self.k + 1:
            problems.append(f"queries_issued {report.queries_issued} != k+1")
        if not 0 <= report.feedback_received <= self.k:
            problems.append(f"feedback_received {report.feedback_received} outside [0, k]")
        if rounds > (self.k + 1) * math.ceil(1.0 / self.alpha):
            problems.append(f"Ladder.round {rounds} exceeds (k+1)*ceil(1/alpha)")
        if trace is not None:
            problems.append("a record=False mechanism returned a trace")
        return problems


WORKLOADS = {w.name: w for w in (AttackGrid, EnvelopeShaky, ShiftedLadder)}

#: Per-layer metrics the workload bypasses, which must read exactly 0.
PREDICTED_ZEROS = {
    "attack-grid": ("reduction.self_s", "reduction.queries", "reduction.submits_per_query",
                    "reduction.trigger_ratio", "reduction.clamped", "reduction.no_trigger",
                    "mechanisms.submits"),
    "envelope-shaky": ("reduction.self_s", "reduction.queries", "reduction.submits_per_query",
                       "reduction.trigger_ratio", "reduction.clamped", "reduction.no_trigger"),
    "shifted-ladder": ("core.trace_rounds",),
}
