"""Command-line front end for the experiment grids.

Exit codes: 0 success, 2 invalid arguments or a run that ran out of memory,
3 golden-file mismatch (1 for I/O failures). A plain-text key=value config
file can seed any flag: its entries are replayed as flags ahead of the
command line, so they are parsed and validated exactly like flags and flags
given on the command line win. A key the experiment does not read is
therefore rejected like its flag.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .experiments import EXPERIMENTS, ExperimentConfig, experiment_csv
from .mechanisms import MECHANISM_NAMES

__all__ = ["cli_main", "main"]

_CONFIG_KEYS = {
    "experiment", "n", "k", "noise", "reps", "seed", "mechanism",
    "beta", "eta", "alpha", "out", "golden", "per_rep",
}


def _grid(cast, what: str):
    """argparse type for a comma-separated list of ``cast`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(cast(part) for part in text.split(",") if part != "")
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
    return parse


#: Spellings accepted for the ``per_rep`` config key (case-insensitive).
_PER_REP = {"1": True, "true": True, "yes": True, "on": True,
            "0": False, "false": False, "no": False, "off": False}


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shakyladder",
        description="Leaderboard mechanism and overfitting-attack simulations.",
    )
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value file supplying defaults for any flag")
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--n", type=int, help="holdout size")
    # Flags read by only some experiments default to None: given to another, they exit 2.
    parser.add_argument("--k", dest="k_grid", type=_grid(int, "integers"),
                        default=None, metavar="K1,K2,...",
                        help="query-count grid (all but reduction-oracle; "
                             "default 100..1000 step 100)")
    parser.add_argument("--noise", dest="noise_grid", type=_grid(float, "numbers"),
                        default=None, metavar="M1,M2,...",
                        help="noise multipliers in units of 1/sqrt(n) "
                             "(vary-*; attack-vs-mechanism with noisy)")
    parser.add_argument("--reps", type=int, default=100, help="repetitions per cell")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mechanism", choices=MECHANISM_NAMES, default=None,
                        help="attacked mechanism (attack-vs-mechanism; default shaky)")
    parser.add_argument("--beta", type=float, default=None,
                        help="failure probability (envelope; attack-vs-mechanism with "
                             "shaky; default 0.1)")
    parser.add_argument("--eta", type=float, default=None,
                        help="ladder step size (attack-vs-mechanism with ladder; default 0.01)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="estimator accuracy target (reduction-oracle; default 0.05)")
    parser.add_argument("--out", type=Path, default=None, help="CSV output path")
    parser.add_argument("--golden", type=Path, default=None,
                        help="compare output byte-for-byte against this CSV")
    parser.add_argument("--per-rep", dest="per_rep", action="store_true",
                        help="emit one row per repetition with audit columns")
    return parser


def _config_flags(path: Path) -> list[str]:
    """Translate a key=value config file into the equivalent flags."""
    flags: list[str] = []
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SystemExit(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemExit(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise SystemExit(f"{path}:{lineno}: unknown key {key!r}")
        if key == "per_rep":
            if value.lower() not in _PER_REP:
                raise SystemExit(f"{path}:{lineno}: per_rep must be one of "
                                 f"{', '.join(_PER_REP)}, got {value!r}")
            flags += ["--per-rep"] * _PER_REP[value.lower()]
        else:
            flags.append(f"--{key}={value}")
    return flags


def cli_main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if args.config is not None:
            args = parser.parse_args(_config_flags(args.config) + argv)
        elif extra:  # what parse_args reports, without a second parse
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.experiment is None:
            parser.error("--experiment is required")
        if args.n is None:
            parser.error("--n is required")
        # Every ExperimentConfig field is a parser dest of the same name.
        config = ExperimentConfig(**{f.name: getattr(args, f.name)
                                     for f in fields(ExperimentConfig)})
    except SystemExit as err:
        code = err.code
        if isinstance(code, str):
            print(code, file=sys.stderr)
            return 2
        return 2 if code is None else int(code)
    except ValueError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return 2

    try:
        csv_text = experiment_csv(config)
    except MemoryError as err:  # numpy's names the allocation it could not make
        print(f"not enough memory to run {config.experiment}" + (f": {err}" if str(err) else ""),
              file=sys.stderr)
        return 2

    if args.out is not None:
        try:
            args.out.write_bytes(csv_text.encode("utf-8"))
        except OSError as err:
            print(f"cannot write output to {args.out}: {err}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(csv_text)

    if args.golden is not None:
        try:
            golden = args.golden.read_bytes()
        except OSError as err:
            print(f"cannot read golden file {args.golden}: {err}", file=sys.stderr)
            return 1
        if golden != csv_text.encode("utf-8"):
            print(f"output does not match golden file {args.golden}", file=sys.stderr)
            return 3
    return 0


def main() -> None:  # pragma: no cover - console entry point
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"  # no source line
    sys.exit(cli_main())
