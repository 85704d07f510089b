"""Record the CSV digest of every workload at every seed variant.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run from the repository root. Each command runs once exactly as the
benchmark runs it, its CSV must pass the benchmark's checks, and its SHA-256
goes into perfbench/digests.json, which ``cli.csv_digest_match`` compares
against. Record the digests only at a commit whose CSV bytes are the
reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import HERE, KILL_AFTER_S, VARIANTS, WORKLOADS, Runner, make_workload, now


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import oracles

    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as handle:
        digests = json.load(handle)
    runner = Runner(root)
    for name in sys.argv[1:] or WORKLOADS:
        for variant in range(VARIANTS):
            workload = make_workload(name, variant)
            runner.deadline = now() + KILL_AFTER_S
            sample = runner.run(workload, "run")
            if sample["error"] is None:
                problems = oracles.check(workload, sample["csv"].decode(), variant)
                sample["error"] = problems[0] if problems else None
            if sample["error"] is not None:
                print(f"{name} variant {variant}: {sample['error']}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(sample["csv"]).hexdigest()
            digests.setdefault(name, {})[str(variant)] = digest
            print(f"{name} variant {variant}: {digest}")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
