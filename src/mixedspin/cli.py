"""Command-line front end: sweeps, thresholds, and the verification battery.

Output is deterministic CSV: '#'-prefixed comment lines echo the effective
configuration, a header row names the columns, and data rows carry 12
significant digits. Files are written atomically (temp file + rename).

Exit codes: 0 success, 1 configuration error, 2 numerical check failure or
non-finite output, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__, verify
from .models import ModelSpec
from .sweeps import (Axis, SweepRequest, ThresholdResult, check_threshold,
                     find_threshold, resolve_pairs, run_sweep)

COMMANDS = ("sweep-temp", "sweep-field", "sweep-j2", "grid", "threshold", "verify")


class ConfigError(Exception):
    """Invalid flag/config input; the message names the offending key."""


class NumericalCheckError(Exception):
    """A verification check failed or an output row was non-finite."""


@dataclass
class RunConfig:
    command: str
    n: int = 2
    j1: float = 1.0
    j2: float = 0.0
    b: float = 0.0
    temperature: Optional[float] = None
    tmin: Optional[float] = None
    tmax: Optional[float] = None
    bmin: Optional[float] = None
    bmax: Optional[float] = None
    j2min: Optional[float] = None
    j2max: Optional[float] = None
    steps: str = "100"
    pairs: Optional[str] = None
    param: Optional[str] = None
    out: Optional[str] = None
    max_n: int = 8

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


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_FLOAT_KEYS = {"j1", "j2", "b", "temperature", "tmin", "tmax", "bmin", "bmax",
               "j2min", "j2max"}
_INT_KEYS = {"n", "max_n"}


def _coerce(key: str, raw: str):
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    return raw


def read_config_file(path: str) -> dict:
    """Flat key=value text; blank lines and '#' comments are ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                text = line.strip()
                is_comment = text.startswith("#")
                if is_comment:
                    text = text[1:].strip()
                if not text:
                    continue
                if "=" not in text:
                    if is_comment:      # echoed CSVs carry key=value comments; prose is skipped
                        continue
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {text!r}")
                key, _, raw = text.partition("=")
                key = key.strip().replace("-", "_")
                if key in ("version", "check_names"):   # informational echo lines
                    continue
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _coerce(key, raw.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedspin",
        description="Thermal entanglement negativity in (1/2,1) mixed-spin Heisenberg rings")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="action; may also come from the config file")
    parser.add_argument("--config", help="flat key=value config file (flags override it)")
    parser.add_argument("--n", type=int, help="number of sites (2..8)")
    parser.add_argument("--j1", type=float, help="nearest-neighbor coupling (default 1)")
    parser.add_argument("--j2", type=float, help="next-nearest coupling (even n >= 4 only)")
    parser.add_argument("--b", type=float, help="z magnetic field (even n only)")
    parser.add_argument("--temperature", type=float,
                        help="fixed temperature for coupling/field sweeps and thresholds "
                             "(rejected where temperature is swept or searched)")
    parser.add_argument("--tmin", type=float, help="temperature axis start")
    parser.add_argument("--tmax", type=float, help="temperature axis end")
    parser.add_argument("--bmin", type=float, help="field axis start")
    parser.add_argument("--bmax", type=float, help="field axis end")
    parser.add_argument("--j2min", type=float, help="j2 axis start")
    parser.add_argument("--j2max", type=float, help="j2 axis end")
    parser.add_argument("--steps", help="axis steps: N, or AxB for grid")
    parser.add_argument("--pairs", help="comma list from half_one,half_half,one_one")
    parser.add_argument("--param", choices=["temperature", "field_b", "j2"],
                        help="threshold search parameter")
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--max-n", dest="max_n", type=int,
                        help="largest ring size the verify battery runs (default 8)")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Merge defaults, config file, and flags (flags win) into a RunConfig."""
    try:
        namespace = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:       # --help
            raise
        # argparse already printed a diagnostic; normalize the exit code
        raise ConfigError("invalid command line") from exc

    merged: dict = {}
    if namespace.config:
        merged.update(read_config_file(namespace.config))
    for key in _FIELD_TYPES:
        flag = getattr(namespace, key, None)
        if flag is not None:
            merged[key] = flag

    command = merged.pop("command", None)
    if command is None:
        raise ConfigError("command: missing (give one of " + ", ".join(COMMANDS) + ")")
    if command not in COMMANDS:
        raise ConfigError(f"command: unknown {command!r}")

    config = RunConfig(command=command)
    for key, value in merged.items():
        setattr(config, key, value)
    _validate(config)
    return config


def _axis_steps(config: RunConfig, count: int) -> list[int]:
    """--steps as count integers: N for a sweep, AxB for a grid."""
    text = str(config.steps)
    try:
        steps = [int(part) for part in text.split("x")]
    except ValueError:
        steps = []
    if len(steps) != count:
        form = "AxB integers, e.g. 80x80" if count == 2 else "an integer"
        raise ConfigError(f"steps: expected {form}, got {text!r}")
    return steps


def _pair_kinds(config: RunConfig) -> Optional[list[str]]:
    if config.pairs is None:
        return None
    return [k.strip() for k in config.pairs.split(",") if k.strip()] or None


def _validate(config: RunConfig) -> None:
    if config.command not in ("threshold", "verify") and config.out is None:
        raise ConfigError("out: missing output path")
    if config.command == "threshold" and config.param is None:
        raise ConfigError("param: threshold needs --param")
    _request(config)


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


def emit_csv(path: str, comments: Sequence[tuple[str, str]], header: Sequence[str],
             rows) -> None:
    """Write comment lines, header, and rows atomically with LF newlines.

    rows is a 2-D array or a sequence of equal-length rows, one value per
    header column; every value must be finite.
    """
    values = np.asarray(rows, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise NumericalCheckError(f"non-finite value {float(values[~finite][0])!r} in output")
    row_format = ",".join(["%.12g"] * len(header)) + "\n"
    lines = [f"# {key}={value}\n" for key, value in comments]
    lines.append(",".join(header) + "\n")
    # one row's Python floats at a time and no joined copy of the text, so
    # the table costs no more memory than the lines it becomes
    lines += [row_format % tuple(row.tolist()) for row in values]
    directory = os.path.dirname(os.path.abspath(path))
    try:
        handle = tempfile.NamedTemporaryFile("w", dir=directory, newline="\n",
                                             encoding="utf-8", delete=False,
                                             suffix=".tmp")
        with handle:
            handle.writelines(lines)
        os.replace(handle.name, path)
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
