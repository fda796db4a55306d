"""One measured run of one workload, in a fresh process.

    python3 perfbench/child.py --spec JSON --seed N --seconds S --trace 0|1
        [--role main|setup] [--expect-digest HEX] [--spans PATH]

`run.py` starts this script and reads the JSON object it prints last.
With `--role setup` it only sets up and reports `setup_s`.  Inputs are
made from the seed before heckext is imported, so their generation is
not part of `setup_s`.  The timed phase runs whole passes over the
workload's seeded op stream until `--seconds` have elapsed.  Outputs are
checked after the timed phase, in separate algebras, so the checks leave
the timed memos untouched.

Library calls go through module attributes (`hx.product.multiply`) at
call time, so the wrappers of a traced run see them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

# Ops and set-ups are timed in CPU time of this process's one thread
# (time.thread_time; the process clock of Linux drops to tick resolution
# while a profiling timer is armed).  A workload never waits on I/O, a lock
# or another process, so on an otherwise idle machine this equals wall
# time; on a shared virtual machine it leaves out the time the hypervisor
# gives the CPU to others (steal), which made wall-clock figures drift by
# 20 % within minutes.
# The CPU itself also changes speed on a shared host, by up to 2x for
# seconds or minutes at a time.  A Meter corrects for that: a profiling
# timer interrupts the pass every SAMPLE_EVERY_S of CPU time to time a
# fixed reference work (a reading), and each op's CPU time is scaled to
# the speed at which one reading takes NOMINAL_READING_S.
NOMINAL_READING_S = 0.001
SAMPLE_EVERY_S = 0.05
READINGS: list[float] = []  # every reading this process took, for the report
_spent = [0.0]  # CPU seconds spent in readings so far
_reading_now = [False]
sampling = True  # off in the passes of a traced run that the tracer or tracemalloc watch
CHECKED_OPS = 12  # seeded subset of products checked for the J and uniformizer laws
SEED_STRIDE = 10_000  # timed pass i of verify-p13 verifies with seed + i * SEED_STRIDE
MODULES = ("graded", "grammar", "product", "sections", "verify")


def import_heckext() -> SimpleNamespace:
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    hx = SimpleNamespace(**{m: importlib.import_module(f"heckext.{m}") for m in MODULES})
    where = Path(sys.modules["heckext"].__file__).resolve().parent
    if where != ROOT / "src" / "heckext":
        raise ImportError(f"heckext was imported from {where}, not from {ROOT / 'src'}")
    return hx


def reference_work() -> int:
    """Fixed work of the kind heckext does: tuple keys, dict updates, ints mod p."""
    table = {}
    for i in range(3500):
        key = (i % 61, (i * 7) % 29, i & 7)
        table[key] = (table.get(key, 0) + i * key[1]) % 1009
    return sum(table.values())


def clock() -> float:
    """CPU seconds of this thread, less those spent in readings."""
    return time.thread_time() - _spent[0]


def reading() -> float:
    """CPU seconds of the reference work now: the best of three runs.

    The collector is off meanwhile: a collection would traverse the
    program's heap, and the reading must not depend on the program.
    """
    start = time.thread_time()
    enabled = gc.isenabled()
    gc.disable()
    _reading_now[0] = True
    try:
        best = math.inf
        for _ in range(3):
            begin = time.thread_time()
            reference_work()
            best = min(best, time.thread_time() - begin)
    finally:
        _reading_now[0] = False
        if enabled:
            gc.enable()
    READINGS.append(best)
    _spent[0] += time.thread_time() - start
    return best


def scale(readings: list[float]) -> float:
    """Factor from CPU seconds to nominal seconds, at the mean of these readings."""
    return NOMINAL_READING_S * len(readings) / sum(readings)


class Meter:
    """The times of one pass's ops, in seconds at the nominal speed.

    It takes a reading when the pass starts and when it ends and, with
    `sample`, one every SAMPLE_EVERY_S of CPU time in between, inside
    whatever op is running; `clock` leaves the readings' own time out.  An
    op is scaled by the mean of the readings taken while it ran and of the
    last one before it and the first one after it.
    """

    current: Meter | None = None  # the sampling Meter of the running pass

    def __init__(self, sample: bool):
        self.raw: list[float] = []
        self.first = reading()
        self.inside: list[tuple[int, float]] = []  # (index of the running op, reading)
        if sample:
            Meter.current = self
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def sample(self) -> None:
        self.inside.append((len(self.raw), reading()))

    def record(self, seconds: float) -> None:
        self.raw.append(seconds)

    def times(self) -> list[float]:
        if Meter.current is self:
            signal.setitimer(signal.ITIMER_PROF, 0)
            Meter.current = None
        during: list[list[float]] = [[] for _ in self.raw]
        for index, value in self.inside:
            if index < len(self.raw):
                during[index].append(value)
        after = [reading()] * len(self.raw)
        for index in range(len(self.raw) - 2, -1, -1):
            after[index] = during[index + 1][0] if during[index + 1] else after[index + 1]
        out: list[float] = []
        before = self.first
        for index, seconds in enumerate(self.raw):
            out.append(seconds * scale([before, *during[index], after[index]]))
            if during[index]:
                before = during[index][-1]
        return out


def _on_timer(signum, frame) -> None:
    meter = Meter.current
    if meter is not None and not _reading_now[0]:
        meter.sample()


signal.signal(signal.SIGPROF, _on_timer)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; with fewer than 100 values p99 is the max."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def plain(index: int, fn, *args):
    """Run one op untraced; `Tracer.op` has the same signature."""
    return fn(*args)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def graded_laws(hx, alg, x, y, xy, checks: Checks, what: str) -> None:
    """J(xy) = sum (-1)^(ab) J(y_b) J(x_a) and G(xy) = G(x) G(y)."""
    multiply = hx.product.multiply
    rhs = alg.zero()
    for a in sorted(x.degrees()):
        for b in sorted(y.degrees()):
            term = multiply(alg.involution(y.component(b)), alg.involution(x.component(a)))
            rhs = rhs + term.scale(-1 if a * b % 2 else 1)
    checks.record(alg.involution(xy) == rhs, f"J anti-homomorphism fails on {what}")
    g = alg.uniformizer_conj
    checks.record(g(xy) == multiply(g(x), g(y)), f"uniformizer conjugation fails on {what}")


def digest_of(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# --- workloads ---


class VerifyWorkload:
    """`verify.run` of every suite in `all` order; one op is one suite.

    Pass i samples with the verify seed `seed + i * SEED_STRIDE`: a suite's
    cost depends on its samples (assoc took 4.0-6.0 s over seeds 0-5), so
    its best over passes of different samples varies less from one workload
    seed to the next than the best over repeats of one sample.
    """

    combine = staticmethod(min)

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.verdicts: list[tuple[str, bool]] = []
        self.suite_seconds: dict[str, float] = {}

    def setup(self, hx) -> float:
        self.hx = hx
        start = clock()
        self.first = hx.graded.ExtAlgebra(self.spec["p"])
        return clock() - start

    def warm_up(self) -> float:
        return 0.0

    def suite(self, alg, name: str, seed: int) -> list:
        spec = self.spec
        report = self.hx.verify.run(
            alg, name, max_length=spec["max_length"], samples=spec["samples"], seed=seed
        )
        return report[name]

    def run_pass(self, op, index: int = 0) -> list[float]:
        # the first pass runs on the algebra built in set-up, later ones on fresh ones
        alg = self.first if self.first is not None else self.hx.graded.ExtAlgebra(self.spec["p"])
        self.first = None
        seed = self.seed + index * SEED_STRIDE
        meter = Meter(sampling)
        for number, name in enumerate(self.hx.verify.SUITE_NAMES):
            start = clock()
            try:
                results = op(number, self.suite, alg, name, seed)
            except Exception as exc:  # an exception is a failed op, and the run goes on
                results = []
                self.verdicts.append((f"{name}: {exc!r}", False))
            meter.record(clock() - start)
            self.verdicts += [(f"{name}/{r.name} (seed {seed})", r.ok) for r in results]
        times = meter.times()
        self.suite_seconds = dict(zip(self.hx.verify.SUITE_NAMES, times))
        return times

    def check(self, checks: Checks, expect_digest: str | None) -> None:
        for name, ok in self.verdicts:
            checks.record(ok, f"{name} does not PASS")
        # negative control: the p-1 reading of the free idempotents must be caught
        alg = self.hx.graded.ExtAlgebra(self.spec["p"])
        try:
            report = self.hx.verify.run(alg, "relators", epsilon_bound="p-1")
            caught = any(not r.ok for r in report["relators"])
        except Exception:  # a crash is not a detection
            caught = False
        checks.record(caught, "relators at epsilon_bound p-1 report no FAIL")


class MulWorkload:
    """`heckext mul`-style requests: fresh algebra, parse twice, multiply, render."""

    combine = staticmethod(statistics.median)

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.requests = inputs.mul_requests(seed, spec["p"], spec["requests"], spec["max_length"])
        self.outputs: list | None = None
        self.mismatches = 0
        self.errors: list[str] = []

    def setup(self, hx) -> float:
        self.hx = hx
        start = clock()
        hx.graded.ExtAlgebra(self.spec["p"])
        return clock() - start

    def warm_up(self) -> float:
        return 0.0

    def request(self, left: str, right: str) -> str:
        hx = self.hx
        alg = hx.graded.ExtAlgebra(self.spec["p"])
        x = hx.grammar.parse_element(alg, left)
        y = hx.grammar.parse_element(alg, right)
        return hx.grammar.render_element(hx.product.multiply(x, y))

    def run_pass(self, op, index: int = 0) -> list[float]:
        meter, outputs = Meter(sampling), []
        for number, (left, right) in enumerate(self.requests):
            start = clock()
            try:
                out = op(number, self.request, left, right)
            except Exception as exc:  # an exception is a failed op, and the run goes on
                out = None
                self.errors.append(f"request {number}: {exc!r}")
            meter.record(clock() - start)
            outputs.append(out)
        times = meter.times()
        if self.outputs is None:
            self.outputs = outputs
        else:
            self.mismatches += sum(a != b for a, b in zip(outputs, self.outputs))
        return times

    def check(self, checks: Checks, expect_digest: str | None) -> str:
        hx = self.hx
        for error in self.errors:
            checks.record(False, error)
        checks.record(self.mismatches == 0, f"{self.mismatches} outputs differ between passes")
        digest = digest_of([str(out) for out in self.outputs])
        if expect_digest is not None:
            checks.record(digest == expect_digest, f"output digest {digest} != {expect_digest}")
        rng = random.Random(f"check:{self.seed}")
        for index in rng.sample(range(len(self.requests)), min(CHECKED_OPS, len(self.requests))):
            left, right = self.requests[index]
            alg = hx.graded.ExtAlgebra(self.spec["p"])
            x, y = hx.grammar.parse_element(alg, left), hx.grammar.parse_element(alg, right)
            xy = hx.product.multiply(x, y)
            ok = hx.grammar.render_element(xy) == self.outputs[index]
            checks.record(ok, f"request {index} output differs from a second algebra")
            graded_laws(hx, alg, x, y, xy, checks, f"request {index}")
        return digest


class SessionWorkload:
    """One long-lived algebra: a warm-up pass in set-up, then replays of the same ops."""

    combine = staticmethod(statistics.median)

    def __init__(self, spec: dict, seed: int):
        self.spec, self.seed = spec, seed
        self.elements, self.hecke, self.ops = inputs.session_inputs(
            seed, spec["p"], spec["ops"], spec["max_length"], spec["per_degree"], spec["hecke"]
        )
        self.mismatches = 0
        self.errors: list[str] = []

    def build(self, alg) -> tuple[dict, list]:
        """The working set as heckext elements of `alg`."""
        parse = self.hx.grammar.parse_element
        graded = {
            d: [parse(alg, inputs.render(e)) for e in elements]
            for d, elements in self.elements.items()
        }
        H, W = alg.hecke, alg.weyl
        heckes = []
        for terms in self.hecke:
            h = H.zero()
            for exp, word, coeff in terms:
                h = h + H.tau(W.element(exp, word)).scale(coeff)
            heckes.append(h)
        return graded, heckes

    def setup(self, hx) -> float:
        self.hx = hx
        start = clock()
        self.alg = hx.graded.ExtAlgebra(self.spec["p"])
        return clock() - start

    def warm_up(self) -> float:
        """The first pass over the stream, which fills the memos: part of set-up."""
        self.graded, self.heckes = self.build(self.alg)  # input making: not set-up
        times, self.reference = self.replay(plain)
        return sum(times)

    def op_call(self, name: str, a, b):
        hx, alg, el = self.hx, self.alg, self.graded
        if name == "multiply":
            return hx.product.multiply(el[a[0]][a[1]], el[b[0]][b[1]])
        if name == "act_left":
            return alg.act_left(self.heckes[a], el[b[0]][b[1]])
        if name == "act_right":
            return alg.act_right(el[b[0]][b[1]], self.heckes[a])
        if name == "involution":
            return alg.involution(el[a[0]][a[1]])
        if name == "uniformizer_conj":
            return alg.uniformizer_conj(el[a[0]][a[1]])
        if name == "duality_pairing":
            return hx.product.duality_pairing(el[a[0]][a[1]], el[b[0]][b[1]])
        if name == "section_deg2":
            return hx.sections.section_deg2(el[a[0]][a[1]]).evaluate()
        return hx.sections.section_deg3(el[a[0]][a[1]]).evaluate()

    def replay(self, op) -> tuple[list[float], list]:
        meter, outputs = Meter(sampling), []
        for index, (name, a, b) in enumerate(self.ops):
            start = clock()
            try:
                out = op(index, self.op_call, name, a, b)
            except Exception as exc:  # an exception is a failed op, and the run goes on
                out = None
                self.errors.append(f"op {index} {name}: {exc!r}")
            meter.record(clock() - start)
            outputs.append(out)
        return meter.times(), outputs

    def run_pass(self, op, index: int = 0) -> list[float]:
        times, outputs = self.replay(op)
        self.mismatches += sum(a != b for a, b in zip(outputs, self.reference))
        return times

    def check(self, checks: Checks, expect_digest: str | None) -> str:
        hx = self.hx
        render = hx.grammar.render_element
        for error in self.errors:
            checks.record(False, error)
        checks.record(self.mismatches == 0, f"{self.mismatches} replayed outputs differ from warm-up")
        rendered = [str(out) if isinstance(out, int) else render(out) for out in self.reference]
        digest = digest_of(rendered)
        if expect_digest is not None:
            checks.record(digest == expect_digest, f"output digest {digest} != {expect_digest}")
        for index, (name, a, _) in enumerate(self.ops):
            if name.startswith("section"):
                ok = self.reference[index] == self.graded[a[0]][a[1]]
                checks.record(ok, f"op {index}: {name} does not evaluate back")
        products = [i for i, op in enumerate(self.ops) if op[0] == "multiply"]
        rng = random.Random(f"check:{self.seed}")
        alg = hx.graded.ExtAlgebra(self.spec["p"])
        graded, _ = self.build(alg)
        for index in rng.sample(products, min(CHECKED_OPS, len(products))):
            _, a, b = self.ops[index]
            x, y = graded[a[0]][a[1]], graded[b[0]][b[1]]
            xy = hx.product.multiply(x, y)
            checks.record(render(xy) == rendered[index], f"op {index} differs in a second algebra")
            graded_laws(hx, alg, x, y, xy, checks, f"op {index}")
        return digest


WORKLOADS = {"verify": VerifyWorkload, "mul": MulWorkload, "session": SessionWorkload}


def timed_phase(work, seconds: float, min_passes: int) -> dict:
    """Whole passes over the op stream, at least `min_passes`, until `seconds` elapse.

    Pass i is `work.run_pass(plain, i)`.  An op's latency is `work.combine`
    of its times over the passes: their median where the passes repeat the
    same ops, so that neither a slow nor a fast outlier counts; their
    minimum on verify-p13, whose passes check other samples.
    """
    runs: list[list[float]] = []
    start = time.monotonic()
    while len(runs) < min_passes or time.monotonic() - start < seconds:
        runs.append(work.run_pass(plain, len(runs)))
        gc.collect()  # a pass's dropped algebras must not inflate the next one's RSS
    latency = [work.combine(times) for times in zip(*runs)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = sum(latency)
    ordered = sorted(latency)
    return {
        "wall_s": wall,
        "ops_per_s": len(latency) / wall,
        "op_ms_p50": 1000 * statistics.median(ordered),
        "op_ms_p99": 1000 * percentile(ordered, 0.99),
        "peak_rss_mb": rss_mb,
        "ops": len(latency),
        "passes": len(runs),
    }


def traced_phase(work, spans_path: Path | None) -> dict:
    """An untraced pass, a traced pass and a tracemalloc pass of the same stream.

    Readings are taken only between ops in the last two, so that no span
    and no allocation count includes one.
    """
    global sampling
    untraced = sum(work.run_pass(plain))
    suites = dict(getattr(work, "suite_seconds", {}))
    tracer = Tracer()
    sampling = False
    tracer.install()
    try:
        traced = sum(work.run_pass(tracer.op))
    finally:
        tracer.uninstall()
    tracemalloc.start()
    try:
        work.run_pass(plain)
        alloc_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sampling = True
    if spans_path is not None:
        tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    for name in work.hx.verify.SUITE_NAMES:
        metrics[f"verify.suite.{name}.s"] = suites.get(name, 0.0)
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.alloc_peak_mb"] = alloc_peak / 2**20
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One measured run of one workload.")
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup"), default="main")
    parser.add_argument("--expect-digest", default=None)
    parser.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)

    work = WORKLOADS[spec["kind"]](spec, args.seed)
    before = reading()
    start = clock()
    hx = import_heckext()
    seconds = clock() - start + work.setup(hx)
    setup_s = seconds * scale([before, reading()]) + work.warm_up()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    counts = {}
    if args.trace:
        metrics = traced_phase(work, Path(args.spans) if args.spans else None)
    else:
        metrics = timed_phase(work, args.seconds, spec["passes"])
        counts = {key: metrics.pop(key) for key in ("ops", "passes")}
    checks = Checks()
    digest = work.check(checks, args.expect_digest)
    result = {
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digest": digest,
        "host_speed": NOMINAL_READING_S / statistics.median(READINGS),
        **counts,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)  # an armed timer kills an exiting interpreter
