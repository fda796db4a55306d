"""Record the output digests of mul-p1009 and session-p31 for seeds 0-19.

    python3 perfbench/record_digests.py

Each seed gets one run of the current program with `--seconds 0` (the
workload's fewest passes); the digest of its canonical renders is written to
digests.json.
Re-record only when a change to the program is meant to change outputs.
"""

from __future__ import annotations

import json
import sys

import run

SEEDS = range(20)


def main() -> int:
    digests = {}
    for name in ("mul-p1009", "session-p31"):
        digests[name] = {}
        for seed in SEEDS:
            result = run.child(run.WORKLOADS[name], seed, 0, 0)
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failures']}", file=sys.stderr)
                return 1
            digests[name][str(seed)] = result["digest"]
            print(name, seed, result["digest"], flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
