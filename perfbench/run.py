"""mixedspin benchmark: CLI sweeps run end to end, one fresh process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The load is a closed loop from this single
process: it starts one ``mixedspin`` CLI run in a fresh Python process, waits
for it to exit, and only then starts the next, until ``--seconds`` have
passed. The program runs as a user gets it: no ``--jobs``
and no thread variables are set, so the sweep's default thread pool and the
BLAS default thread count are what is measured.

Workloads (each makes a different layer dominate):

* ``j2-scan-n8``: ``sweep-j2 --n 8`` over 6 couplings at a fixed low
  temperature. Every point has new couplings, so each costs a 1296^2
  eigensolve and the default pool runs them all at once: eigensolve and
  concurrency work shows here, and the spectral cache is bypassed.
* ``temp-scan-n8``: ``sweep-temp --n 8`` over 40 temperatures. One eigensolve,
  then one dense Gibbs matrix per temperature, so the Gibbs/reduction path
  does the work and the eigensolve and the pool sit idle.
* ``grid-n4``: ``grid --n 4``, 80 x 80 points of j2 x T. Tiny eigensolves;
  per-point Python, negativity and CSV formatting dominate.

End-to-end metrics (``--trace 0``), each the median over the run's
processes: ``setup_s`` (spawn to mixedspin imported and the first
Hamiltonian built, from processes that stop there, started after each CLI
process), and over the CLI processes ``run_s`` (end of set-up to the CSV on
disk), ``cpu_s`` (user + sys of the whole process) and ``peak_rss_mb`` (that
process alone, from ``wait4``). Every CSV is checked against an oracle
(``oracles.py``) after the timed loop; a run that exits nonzero, writes no
CSV, or fails its check counts as failed.

``--trace 1`` alternates traced and untraced processes and reports per-layer
calls, self time and counters from the traced ones (``tracer.py``), plus the
tracing overhead: median traced ``run_s`` minus median untraced ``run_s``.

``--seed`` shifts each workload's axis ranges by a small offset. Offsets take
one of ``VARIANTS`` values, so every seed has a CSV digest recorded in
``digests.json`` (see ``record_digests.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = 8
# No new CLI process starts after LAST_START_S of the timed loop, and a
# process still running KILL_AFTER_S after the run began is killed, so the
# run ends within 180 s.
LAST_START_S = 90.0
KILL_AFTER_S = 150.0
# Fresh processes start faster on a machine that has been busy for a while
# than on one that has been idle, so before timing anything the run keeps
# the machine busy with small CLI runs for WARM_UP_S.
WARM_UP_S = 2.0
# After each untraced CLI process the run starts processes that only set up,
# until they have taken SETUP_PROBE_S (at least one); setup_s is their
# median. Spread over the run, they see the same machine state as the CLI
# processes.
SETUP_PROBE_S = 0.3
# CLI processes per run, even when the first ones outlast --seconds: one
# oversubscribed j2-scan-n8 process varies by about 10%, so a median needs
# several.
MIN_RUNS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {           # name -> unit; calls and self time for each layer
    **{f"{layer}.{kind}": unit
       for layer in ("models.build_model", "thermal.diagonalize",
                     "thermal.thermal_state", "thermal.weights",
                     "negativity.partial_trace", "negativity.negativity")
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "thermal.diagonalize.dim": "count",
    "thermal.thermal_state.flop_computed": "flop",
    "sweeps.run_sweep.self_s": "s",
    "sweeps.cache.gets": "count",
    "sweeps.cache.misses": "count",
    "sweeps.cache.hit_ratio": "1",
    "sweeps.threads": "count",
    "cli.emit_csv.self_s": "s",
    "cli.emit_csv.bytes": "B",
    "cli.csv_digest_match": "count",
    "trace.overhead_s": "s",
}


def now() -> float:
    """System-wide monotonic clock, comparable with the child's readings."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int
    axes: tuple             # ((parameter, lo, hi, steps), ...)
    temperature: Optional[float] = None

    def argv(self, out: str) -> list[str]:
        flags = {"j2": ("--j2min", "--j2max"), "temperature": ("--tmin", "--tmax")}
        args = [self.command, "--n", str(self.n)]
        if self.temperature is not None:
            args += ["--temperature", repr(self.temperature)]
        for parameter, lo, hi, _ in self.axes:
            args += [flags[parameter][0], repr(lo), flags[parameter][1], repr(hi)]
        args += ["--steps", "x".join(str(steps) for *_, steps in self.axes), "--out", out]
        return args


def make_workload(name: str, seed: int) -> Workload:
    """The workload's inputs; the seed moves the axis ends by a few percent.

    j2 axes start above 0, so every seed builds the same Hamiltonian family.
    """
    d = (seed % VARIANTS) / VARIANTS

    def r(x: float) -> float:
        return round(x, 6)

    if name == "j2-scan-n8":
        return Workload(name, "sweep-j2", 8, (("j2", r(0.005 + 0.01 * d), r(1.0 - 0.02 * d), 6),),
                        temperature=r(0.02 + 0.004 * d))
    if name == "temp-scan-n8":
        return Workload(name, "sweep-temp", 8,
                        (("temperature", r(0.05 + 0.02 * d), r(2.0 + 0.2 * d), 40),))
    if name == "grid-n4":
        return Workload(name, "grid", 4, (("j2", r(0.005 + 0.01 * d), r(1.0 + 0.05 * d), 80),
                                          ("temperature", r(0.01 + 0.005 * d),
                                           r(1.0 + 0.1 * d), 80)))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("j2-scan-n8", "temp-scan-n8", "grid-n4")


class Runner:
    """Starts CLI processes one at a time and collects their measurements."""

    def __init__(self, root: str):
        self.root = root
        self.out = os.path.join(root, ".perfbench_out")
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.deadline = now() + KILL_AFTER_S
        self.index = 0

    def run(self, workload: Workload, mode: str) -> dict:
        """One fresh process: mode "run" or "trace" runs the CLI command,
        "setup" only imports mixedspin and builds the first Hamiltonian."""
        self.index += 1
        stem = os.path.join(self.out, str(self.index))
        csv_path, record_path = stem + ".csv", stem + ".json"
        argv = [sys.executable, os.path.join(HERE, "child.py"), record_path, mode,
                "--", *workload.argv(csv_path)]
        with open(stem + ".log", "wb") as log:
            spawned = now()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            status, usage = self._wait(proc)
        sample = {"traced": mode == "trace", "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0, "error": None}
        try:
            with open(record_path, encoding="utf-8") as handle:
                record = json.load(handle)
            if mode != "setup":
                with open(csv_path, "rb") as handle:
                    sample["csv"] = handle.read()
        except OSError as exc:
            record = {}
            sample["error"] = f"missing output: {exc.filename}"
        if status != 0:
            with open(stem + ".log", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            sample["error"] = f"exit status {status}: {tail}"
        elif sample["error"] is None and record.get("setup_done") is None:
            sample["error"] = "no Hamiltonian was built"
        if sample["error"] is None:
            sample["setup_s"] = record["setup_done"] - spawned
            sample["run_s"] = record["end"] - record["setup_done"]
            sample["trace"] = record.get("trace")
        for path in (csv_path, record_path, stem + ".log"):
            if os.path.exists(path):
                os.remove(path)
        return sample

    def _wait(self, proc: subprocess.Popen):
        """Reap the process with its own resource usage; kill it if it overruns
        or this process is interrupted."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if now() > self.deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage


def machine_facts() -> dict:
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpu,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS") or k.startswith(("OPENBLAS", "OMP_", "MKL_"))},
        "default_pool_width": min(32, cpu + 4),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def layer_metrics(workload: Workload, samples: list[dict], recorded: Optional[str]) -> dict:
    """Medians over the traced processes of their per-layer summaries."""
    points = 1
    for *_, steps in workload.axes:
        points *= steps
    per_process = []
    for s in samples:
        if not s["traced"]:
            continue
        t = s["trace"]
        values = {f"{layer}.{kind}": entry[kind]
                  for layer, entry in t["layers"].items() for kind in ("calls", "self_s")}
        values.update({
            "thermal.diagonalize.dim": t["diagonalize_dim"],
            "thermal.thermal_state.flop_computed": t["flop_computed"],
            "sweeps.cache.gets": t["cache_gets"],
            "sweeps.cache.misses": t["cache_misses"],
            # share of evaluated points whose spectrum needed no new eigensolve
            "sweeps.cache.hit_ratio": 1.0 - t["cache_misses"] / points,
            "sweeps.threads": t["threads"],
            "cli.emit_csv.bytes": t["csv_bytes"],
        })
        per_process.append(values)
    run_s = {flag: statistics.median([s["run_s"] for s in samples if s["traced"] == flag])
             for flag in (True, False)}
    values = {name: statistics.median([v[name] for v in per_process]) for name in PER_LAYER
              if name not in ("cli.csv_digest_match", "trace.overhead_s")}
    values["cli.csv_digest_match"] = sum(s["digest"] == recorded for s in samples)
    values["trace.overhead_s"] = run_s[True] - run_s[False]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mixedspin", "cli.py")):
        print("error: run from the repository root; src/mixedspin is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    workload = make_workload(args.workload, args.seed)
    # Byte-compile once, as an install would, then warm the page cache and
    # the machine with tiny runs, so the first timed process pays neither.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
                   check=True, cwd=root)
    runner = Runner(root)
    warm_up = Workload("warm-up", "sweep-temp", 2, (("temperature", 0.1, 1.0, 2),))
    start = now()
    while now() - start < WARM_UP_S:
        warm = runner.run(warm_up, "run")
        if warm["error"]:
            print(f"error: warm-up run failed: {warm['error']}", file=sys.stderr)
            return 2

    probes: list[dict] = []
    samples: list[dict] = []
    start = now()
    while now() - start < LAST_START_S:
        kinds = {s["traced"] for s in samples}
        if (now() - start >= args.seconds and len(samples) >= MIN_RUNS
                and (not args.trace or len(kinds) == 2)):
            break
        traced = bool(args.trace) and len(samples) % 2 == 0
        samples.append(runner.run(workload, "trace" if traced else "run"))
        if samples[-1]["error"]:
            break
        if not args.trace:
            probe_start = now()
            probes.append(runner.run(workload, "setup"))
            while now() - probe_start < SETUP_PROBE_S:
                probes.append(runner.run(workload, "setup"))

    # Checks run after the timed loop; identical bytes get one check.
    import oracles
    verdicts: dict[str, list[str]] = {}
    for s in samples:
        if s["error"] is not None:
            continue
        text = s.pop("csv")
        s["digest"] = hashlib.sha256(text).hexdigest()
        if s["digest"] not in verdicts:
            try:
                verdicts[s["digest"]] = oracles.check(workload, text.decode(), args.seed)
            except (ValueError, IndexError) as exc:
                verdicts[s["digest"]] = [f"unreadable CSV: {exc}"]
        problems = verdicts[s["digest"]]
        if problems:
            s["error"] = f"{len(problems)} check failures, first: {problems[0]}"

    for s in samples:
        if s["error"]:
            print(f"failed run: {s['error']}", file=sys.stderr)
    ok = [s for s in samples if s["error"] is None]
    failed = len(samples) - len(ok) + sum(p["error"] is not None for p in probes)
    attempted = len(samples) + len(probes)
    print("machine " + json.dumps(machine_facts()))
    print(f"{workload.name} seed {args.seed}: {len(samples)} CLI runs "
          f"({sum(s['traced'] for s in samples)} traced), {len(probes)} set-up probes; "
          f"fail_ratio = {failed / attempted} (1)")

    untraced = [s for s in ok if not s["traced"]]
    if failed or not untraced or (args.trace and len(untraced) == len(ok)):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if args.trace:
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
            recorded = json.load(handle).get(workload.name, {}).get(str(args.seed % VARIANTS))
        metrics = layer_metrics(workload, ok, recorded)
    else:
        sources = {name: probes if name == "setup_s" else untraced for name in END_TO_END}
        metrics = {name: {"value": statistics.median([s[name] for s in sources[name]]),
                          "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        line = f"{name} = {m['value']:.6g} {m['unit']}"
        if not args.trace:
            line += f"  (median of {len(sources[name])}: " + ", ".join(
                f"{s[name]:.4g}" for s in sources[name]) + ")"
        print(line)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
