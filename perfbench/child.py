"""Run one mixedspin CLI command in this fresh process and record its timings.

    python3 perfbench/child.py RECORD.json run|trace|setup -- CLI ARGS...

"run" runs the command, "trace" runs it with layer tracing, and "setup"
stops once the command's first Hamiltonian is built. The record holds
readings of the system-wide monotonic clock, so the parent can compare them
with the time it spawned this process: when the first Hamiltonian was built
(the end of set-up) and when the CLI returned with its CSV on disk. It also
holds the CLI's exit code and, when traced, the per-layer summary.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def first_spec(cli, cli_args):
    """The couplings of the command's first grid point."""
    from mixedspin.models import ModelSpec
    config = cli.parse_config(cli_args)
    j2 = config.j2min if config.command in ("sweep-j2", "grid") else config.j2
    return ModelSpec(n_sites=config.n, j1=config.j1, j2=j2, field_b=config.b)


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    cli = importlib.import_module("mixedspin.cli")
    tracer = None
    if mode == "trace":
        from tracer import Tracer       # perfbench/ is sys.path[0]
        tracer = Tracer()
        tracer.install()

    # Set-up ends when the first Hamiltonian has been built, whichever name
    # the sweep looks it up by.
    stamps: dict = {}
    for name in ("mixedspin.sweeps", "mixedspin.models"):
        module = importlib.import_module(name)
        inner = module.build_model

        def build_model(spec, _inner=inner):
            h = _inner(spec)
            stamps.setdefault("setup_done", now())
            return h

        module.build_model = build_model

    if mode == "setup":
        sys.modules["mixedspin.models"].build_model(first_spec(cli, cli_args))
        code = 0
    else:
        code = cli.main(cli_args)
    record = {"exit": code, "setup_done": stamps.get("setup_done"), "end": now()}
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
