"""The heckext benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports heckext from src/ there.
Each run starts a fresh process (child.py) for the measured run, and with
`--trace 0` the workload's `setups` - 1 more that only set up, so that
`setup_s` is a median.  The report lists every metric with its unit; the
last line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With `--trace 0` the metrics are the end-to-end ones, with
`--trace 1` the per-layer ones of a traced run; BENCHMARK.json at the
root of the checkout declares both lists.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # a whole run, set-ups included, ends within this

# `passes`: the fewest timed passes, each op's latency being combined over
# them (child.timed_phase); a run makes more while `--seconds` have not elapsed.
# `setups`: set-up processes per untraced run, whose median is setup_s;
# fewer where a set-up includes a warm-up pass of seconds.
WORKLOADS = {
    "verify-p13": {
        "kind": "verify", "p": 13, "max_length": 8, "samples": 1000, "passes": 3, "setups": 5,
    },
    "mul-p1009": {
        "kind": "mul", "p": 1009, "max_length": 8, "requests": 1000, "passes": 2, "setups": 5,
    },
    "session-p31": {
        "kind": "session", "p": 31, "max_length": 6, "ops": 2000, "per_degree": 25, "hecke": 20,
        "passes": 3, "setups": 3,
    },
}


class BenchError(RuntimeError):
    pass


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def child(spec: dict, seed: int, seconds: float, trace: int, *extra: str,
          deadline: float | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--spec", json.dumps(spec),
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the run did not end within {RUN_BUDGET_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def expected_digest(workload: str, seed: int) -> str | None:
    """The recorded digest of the canonical renders, for the default seeds."""
    digests = json.loads((HERE / "digests.json").read_text())
    return digests.get(workload, {}).get(str(seed))


def measure(spec: dict, seed: int, seconds: float, trace: int,
            digest: str | None = None, spans: Path | None = None,
            deadline: float | None = None) -> dict:
    """One run: returns the child's result with setup_s as a median of set-ups."""
    extra = [] if digest is None else ["--expect-digest", digest]
    if spans is not None:
        extra += ["--spans", str(spans)]
    result = child(spec, seed, seconds, trace, *extra, deadline=deadline)
    if not trace:
        setups = [result["setup_s"]] + [
            child(spec, seed, seconds, 0, "--role", "setup", deadline=deadline)["setup_s"]
            for _ in range(spec["setups"] - 1)
        ]
        result["setup_samples"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print every metric with its unit; return the final JSON object."""
    units = declared_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    print(f"workload {name}  seed {seed}  trace {trace}")
    for metric, unit in units.items():
        print(f"  {metric:36s} {metrics[metric]:>16.6g} {unit}")
    if not trace:
        print(f"  {'(samples)':36s} {result['ops']:>16d} ops, each timed in"
              f" {result['passes']} passes; {len(result['setup_samples'])} set-ups")
    print(f"  {'(host speed)':36s} {result['host_speed']:>16.3f} of nominal;"
          " times are scaled to the nominal speed")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':36s} {share:>16.6g} ({result['failed']} of {result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one heckext benchmark workload.")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "heckext" / "__init__.py").is_file():
        print(f"error: no heckext package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spans = None
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            expected_digest(args.workload, args.seed), spans, deadline,
        )
        final = report(args.workload, args.seed, args.trace, result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
