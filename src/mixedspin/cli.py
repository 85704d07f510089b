"""Command-line front end: sweeps, thresholds, and the verification battery.

Output is deterministic CSV: '#'-prefixed comment lines echo the effective
configuration, a header row names the columns, and data rows carry 12
significant digits. Files are written atomically (temp file + rename).
The BLAS runs one thread unless a thread variable such as OMP_NUM_THREADS
is set (see the package `__init__`), so the bytes no longer depend on the
number of cores; they can still depend on the BLAS build and the CPU kernel
it picks.

Exit codes: 0 success, 1 configuration error, 2 numerical check failure or
non-finite output, 3 I/O error.
"""

import argparse
import contextlib
import os
import re
import sys
import tempfile
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Optional, Sequence, get_args

import numpy as np

from . import __version__
from .models import MAX_SITES, ModelSpec
from .sweeps import (PAIR_SITES, SWEEPABLE, Axis, SweepRequest, ThresholdResult,
                     check_threshold, find_threshold, resolve_pairs, run_sweep)

COMMANDS = ("sweep-temp", "sweep-field", "sweep-j2", "grid", "threshold", "verify")


class ConfigError(Exception):
    """Invalid flag/config input; the message names the offending key."""


class NumericalCheckError(Exception):
    """A verification check failed or an output row was non-finite."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a value such as -5e-1 too, which the pattern of Python 3.10-3.12 takes for a flag
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):
        """An argparse failure (unknown flag, missing value) as one ConfigError."""
        raise ConfigError(message)


def _option(default, help: str, choices: Optional[Sequence[str]] = None):
    """A RunConfig field with its help text and allowed values (None: any)."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class RunConfig:
    """One run's options. Each field is declared once for its flag --name ("_"
    spelled "-"; command, the one without a default, is positional) and its
    config-file key; `_coerce` converts both to its annotated type and checks its choices.
    """

    command: str = _option(MISSING, "action; may also come from the config file",
                           choices=COMMANDS)
    n: int = _option(2, f"number of sites (2..{MAX_SITES})")
    j1: float = _option(1.0, "nearest-neighbor coupling (default 1)")
    j2: float = _option(0.0, "next-nearest coupling (even n >= 4 only)")
    b: float = _option(0.0, "z magnetic field (even n only)")
    temperature: Optional[float] = _option(
        None, "fixed temperature for coupling/field sweeps and thresholds, "
              "0 allowed (rejected where temperature is swept or searched)")
    tmin: Optional[float] = _option(None, "temperature axis start")
    tmax: Optional[float] = _option(None, "temperature axis end")
    bmin: Optional[float] = _option(None, "field axis start")
    bmax: Optional[float] = _option(None, "field axis end")
    j2min: Optional[float] = _option(None, "j2 axis start")
    j2max: Optional[float] = _option(None, "j2 axis end")
    steps: str = _option("100", "axis steps: N, or AxB for grid")
    pairs: Optional[str] = _option(None, "comma list from " + ",".join(PAIR_SITES))
    param: Optional[str] = _option(None, "threshold search parameter", choices=SWEEPABLE)
    out: Optional[str] = _option(None, "output CSV path")
    max_n: int = _option(MAX_SITES, f"largest ring size the verify battery runs "
                                     f"(default {MAX_SITES})")

    def echo_items(self) -> list[tuple[str, str]]:
        """Config lines written into CSV comments; out is omitted so
        identical physics gives identical bytes."""
        items = [("version", __version__)]
        for f in fields(self):
            if f.name == "out":
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            items.append((f.name, str(value)))
        return items


def _coerce(option: Field, raw: str):
    """A flag's or config-file key's text, converted to its option's type and checked."""
    # int, float or str: the type the option holds when set, from its annotation
    kind = next(t for t in (option.type, *get_args(option.type)) if t in (int, float, str))
    try:
        value = kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{option.name}: expected {expected}, got {raw!r}") from exc
    if option.metadata["choices"] and value not in option.metadata["choices"]:
        raise ConfigError(f"{option.name}: unknown {value!r}")
    return value


def read_config_file(path: str) -> dict:
    """Flat key=value text; blank lines and '#' lines that name no option are skipped."""
    options = {f.name: f for f in fields(RunConfig)}
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                text = line.strip()
                is_comment = text.startswith("#")
                text = text.removeprefix("#").strip()
                if not text:
                    continue
                key, sep, raw = text.partition("=")
                key = key.strip().replace("-", "_")
                # a comment naming an option sets it, as an echoed CSV's do; others are skipped
                if is_comment and not (sep and key in options):
                    continue
                if not sep:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {text!r}")
                if key not in options:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _coerce(options[key], raw.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixedspin",
        description="Thermal entanglement negativity in (1/2,1) mixed-spin Heisenberg rings")
    parser.add_argument("--config", help="flat key=value config file (flags override it)")
    for option in fields(RunConfig):
        positional = option.default is MISSING
        choices = option.metadata["choices"]
        parser.add_argument(option.name if positional else "--" + option.name.replace("_", "-"),
                            nargs="?" if positional else None, help=option.metadata["help"],
                            metavar="{" + ",".join(choices) + "}" if choices else None)
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    namespace = _build_parser().parse_args(argv)
    merged = read_config_file(namespace.config) if namespace.config else {}
    merged.update((f.name, _coerce(f, getattr(namespace, f.name))) for f in fields(RunConfig)
                  if getattr(namespace, f.name) is not None)
    if "command" not in merged:
        raise ConfigError("command: missing (give one of " + ", ".join(COMMANDS) + ")")
    config = RunConfig(**merged)
    if config.command not in ("threshold", "verify") and config.out is None:
        raise ConfigError("out: missing output path")
    if config.command == "threshold" and config.param is None:
        raise ConfigError("param: threshold needs --param")
    _request(config)
    return config


def _axis_steps(config: RunConfig, count: int) -> list[int]:
    """--steps as count integers: N for a sweep, AxB for a grid."""
    try:
        steps = [int(part) for part in config.steps.split("x")]
    except ValueError:
        steps = []
    if len(steps) != count:
        form = "AxB integers, e.g. 80x80" if count == 2 else "an integer"
        raise ConfigError(f"steps: expected {form}, got {config.steps!r}")
    return steps


def _pair_kinds(config: RunConfig) -> Optional[list[str]]:
    if config.pairs is None:
        return None
    return [k.strip() for k in config.pairs.split(",") if k.strip()] or None


def _request(config: RunConfig):
    """What a command runs on, built alike for validation and run.

    Sweeps get a SweepRequest; threshold gets (base spec, pair, search range);
    verify gets the base spec, which it only checks. The model, axis and pair
    rules live in the library objects built here (verify's max_n is a ring's
    site count); their ValueError becomes the command line's one ConfigError.
    """
    if config.command == "verify":
        try:
            ModelSpec(config.max_n)
        except ValueError as exc:
            raise ConfigError(f"max_n: {exc}") from exc
    try:
        base = ModelSpec(n_sites=config.n, j1=config.j1, j2=config.j2, field_b=config.b)
        if config.command == "verify":
            return base
        kinds = _pair_kinds(config)
        pairs = resolve_pairs(config.n, kinds)
        if config.command == "threshold":
            if kinds is not None and len(kinds) > 1:
                raise ValueError("pairs: threshold searches one pair")
            search = _range_for(config, config.param)
            check_threshold(base, config.param, search, config.temperature)
            return base, pairs[0], search
        parameters = {"sweep-temp": ["temperature"], "sweep-field": ["field_b"],
                      "sweep-j2": ["j2"], "grid": ["j2", "temperature"]}[config.command]
        axes = [Axis(p, *_range_for(config, p), steps)
                for p, steps in zip(parameters, _axis_steps(config, len(parameters)))]
        return SweepRequest(base, *axes, pairs=pairs, temperature=config.temperature)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _range_for(config: RunConfig, parameter: str) -> tuple[float, float]:
    key = {"temperature": "t", "field_b": "b", "j2": "j2"}[parameter]
    lo, hi = getattr(config, key + "min"), getattr(config, key + "max")
    if lo is None or hi is None:
        raise ConfigError(f"{key}min/{key}max: required for {parameter} range")
    return float(lo), float(hi)


# Rows per format operation: only one block's values are Python floats at a
# time, so a long table costs little more memory than its text.
CSV_BLOCK_ROWS = 1024


def emit_csv(path: str, comments: Sequence[tuple[str, str]], header: Sequence[str],
             rows) -> None:
    """Write comment lines, header, and rows atomically with LF newlines.

    rows is a 2-D array or a sequence of equal-length rows, one value per
    header column; every value must be finite. The file gets the mode a
    new file gets under the umask, and no temporary file outlives a failure.
    """
    values = np.asarray(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalCheckError(f"non-finite value {float(values[~finite][0])!r} in output")
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [f"# {key}={value}\n" for key, value in comments]
    lines.append(",".join(header) + "\n")
    # one format operation per block of rows, with no joined copy of the text
    for start in range(0, len(values), CSV_BLOCK_ROWS):
        block = values[start:start + CSV_BLOCK_ROWS]
        lines.append((row_format * len(block)) % tuple(block.ravel().tolist()))
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        handle = tempfile.NamedTemporaryFile("w", dir=directory, newline="\n",
                                             encoding="utf-8", delete=False,
                                             suffix=".tmp")
        try:
            with handle:
                handle.writelines(lines)
            # mkstemp makes the file 0600, and os.replace keeps the mode
            os.chmod(handle.name, 0o666 & ~umask)
            os.replace(handle.name, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(handle.name)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _run_sweep_command(config: RunConfig) -> int:
    result = run_sweep(_request(config))
    rows = np.column_stack((result.params, result.negativities,
                            result.internal_energy, result.log_z))
    emit_csv(config.out, config.echo_items(), result.columns, rows)
    print(f"wrote {result.params.shape[0]} rows to {config.out}")
    return 0


def _run_threshold_command(config: RunConfig) -> int:
    base, pair, search = _request(config)
    result = find_threshold(base, config.param, pair, search,
                            fixed_temperature=config.temperature)
    if result.status == "found":
        print(f"{config.param} threshold for {pair.label}: {result.value:.10g} "
              f"(bracket [{result.bracket[0]:.10g}, {result.bracket[1]:.10g}])")
    else:
        print(f"{config.param} threshold for {pair.label}: none in range "
              f"[{search[0]:g}, {search[1]:g}]")
    if config.out:
        _emit_threshold_csv(config, result, search)
    return 0


def _emit_threshold_csv(config: RunConfig, result: ThresholdResult,
                        search: tuple[float, float]) -> None:
    header = ["threshold", "bracket_lo", "bracket_hi", "found"]
    if result.status == "found":
        rows = [(result.value, result.bracket[0], result.bracket[1], 1.0)]
    else:
        # "no threshold in range" is an answer, not a numerical failure
        rows = [(0.0, search[0], search[1], 0.0)]
    emit_csv(config.out, config.echo_items(), header, rows)


def _run_verify_command(config: RunConfig) -> int:
    from . import verify        # with the closed forms it checks: no sweep loads them
    results = verify.run_all(max_n=config.max_n)
    failures = 0
    for res in results:
        if res.status == "info":
            print(f"[INFO] {res.name}: computed {res.measured:.6g} "
                  f"(quoted {res.budget:.6g}) {res.detail}".rstrip())
            continue
        tag = "PASS" if res.ok else "FAIL"
        failures += 0 if res.ok else 1
        detail = f" {res.detail}" if res.detail else ""
        print(f"[{tag}] {res.name}: deviation {res.measured:.3g} "
              f"(budget {res.budget:.3g}){detail}")
    checked = sum(1 for r in results if r.status != "info")
    print(f"{checked - failures}/{checked} checks passed "
          f"({sum(1 for r in results if r.status == 'info')} informational)")
    if config.out:
        header = ["passed", "deviation", "budget"]
        comments = config.echo_items() + [("check_names", ";".join(r.name for r in results))]
        rows = [(0.0 if r.status == "fail" else 1.0, r.measured, r.budget) for r in results]
        emit_csv(config.out, comments, header, rows)
    if failures:
        raise NumericalCheckError(f"{failures} verification checks failed")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
        if config.command == "verify":
            return _run_verify_command(config)
        if config.command == "threshold":
            return _run_threshold_command(config)
        return _run_sweep_command(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalCheckError as exc:
        print(f"numerical check failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
