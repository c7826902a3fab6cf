"""allocore benchmark: a closed-loop, single-process, single-threaded load generator.

    python3 benchmarks/run.py --workload relax-explicit --seed 1 --seconds 15 --trace 0

Each operation is one user-level request on a freshly built game; the next
starts when the previous one returns. Operations run until their summed
host-speed-corrected latency reaches ``--seconds``. Every output is checked
after its operation, outside the timed latency. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import LAYER_METRICS, Tracer, install, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("lp", "games", "relaxations", "mstgame", "instances")

#: Time of ``reference()`` on an uncontended core of the machine the benchmark was written on
#: (2-vCPU Xeon VM, Python 3.11.7): the unit that host-speed-corrected times are expressed in.
REFERENCE_S = 0.0025
#: Interval at which the host's speed is sampled while an untraced operation runs.
SAMPLE_S = 0.03
#: Set-ups before the loop of an untraced run; the median is reported.
SETUP_REPEATS = 5
#: Set-up warms up on input 0 of this seed whatever --seed is, so set-up does the same work in every run.
WARMUP_SEED = 0
#: Operations whose counts form the per-layer count metrics.
COUNT_WINDOW = 4
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Seeds with recorded exact outputs: the default, and one held out for confirming claims.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_allocore() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "allocore" or m.startswith("allocore.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    package = importlib.import_module("allocore")
    if Path(package.__file__).resolve().parent != (SRC / "allocore").resolve():
        raise ImportError(f"allocore was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"allocore.{m}") for m in LAYERS})


def reference() -> float:
    """Seconds taken by a fixed exact-arithmetic computation, the kind of work the package does."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 1001):
        total += Fraction(1, k % 97 + 1)
    return perf_counter() - start


class HostClock:
    """Times calls in host-speed-corrected seconds.

    The host's cores are shared with other machines: the same operation takes 1.0 to 2.2 times
    its fastest time within a minute, and the speed changes within one operation. So
    ``reference()`` is timed just before and just after a call and, on SIGALRM every SAMPLE_S,
    during it. The call's wall time, less the time those samples took, is divided by the host
    slowdown (the mean reference time over REFERENCE_S).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - start

    def time(self, call, sample: bool = True):
        """(``call()``, its corrected seconds, the host slowdown); exceptions propagate.

        ``sample=False`` takes only the references before and after.
        """
        self.samples = [reference()]
        self.spent = 0.0
        if sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = perf_counter()
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start - self.spent
        self.samples.append(reference())
        slowdown = statistics.fmean(self.samples) / REFERENCE_S
        return result, elapsed / slowdown, slowdown


class Tally:
    """Outcome of the operations of one run."""

    def __init__(self, workload, seed: int, seconds: float, golden: list[dict]):
        self.workload = workload
        self.seed = seed
        self.golden = golden
        # Bounds a run's wall time however slow the host or the checks are.
        self.deadline = perf_counter() + 2.5 * seconds + 5
        self.tracer: Tracer | None = None
        self.clock = HostClock()
        # Off in traced runs, whose span times must not include the samples.
        self.sample = True
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.slowdowns: list[float] = []
        self.reports: list[str] = []

    def run_op(self, api, index: int) -> float | None:
        """Run, time and check operation ``index``.

        Returns its host-speed-corrected latency, or None if it raised.
        """
        raw = self.workload.make_input(self.seed, index)
        gc.collect()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.current_op = index
            span = tracer.begin(tracer.name_id("op"))
        try:
            out, latency, slowdown = self.clock.time(lambda: self.workload.run(api, raw), sample=self.sample)
        except Exception:
            self.fail(index, traceback.format_exc())
            return None
        finally:
            if tracer is not None:
                tracer.finish(span)
        self.slowdowns.append(slowdown)
        start = perf_counter()
        try:
            problems, summary = self.workload.check(raw, out)
        except Exception:
            problems, summary = [traceback.format_exc()], None
        if index < len(self.golden) and summary != self.golden[index]:
            problems.append("exact outputs differ from golden.json")
        self.check_s += perf_counter() - start
        if problems:
            self.fail(index, "; ".join(problems))
        return latency

    def fail(self, index: int | str, why: str) -> None:
        self.failed += 1
        self.reports.append(f"operation {index} failed: {why}")

    def loop(self, api, seconds: float, min_ops: int = 0) -> list[float]:
        """Closed loop over inputs 0, 1, ... until ``seconds`` of corrected operation time
        and at least ``min_ops`` operations.

        The stop does not depend on the host's speed, so one program and one seed run the
        same inputs however busy the host is. Returns the corrected latencies of the
        operations that did not raise.
        """
        latencies = []
        busy = 0.0
        index = 0
        while (busy < seconds or index < min_ops) and perf_counter() < self.deadline:
            latency = self.run_op(api, index)
            index += 1
            if latency is not None:
                busy += latency
                latencies.append(latency)
        if busy < seconds:
            print(f"# run deadline reached after {index} operations", file=sys.stderr)
        return latencies


def set_up(tally: Tally) -> tuple[SimpleNamespace, float]:
    """Import the package, generate the warm-up input and run it once; returns the
    host-speed-corrected time taken.

    A warm-up that raises or fails its check counts as a failed operation.
    """

    def work():
        api = import_allocore()
        raw = tally.workload.make_input(WARMUP_SEED, 0)
        try:
            return api, raw, tally.workload.run(api, raw), None
        except Exception:
            return api, raw, None, traceback.format_exc()

    (api, raw, out, error), elapsed, _ = tally.clock.time(work)
    tally.attempted += 1
    try:
        problems = [error] if error else tally.workload.check(raw, out)[0]
    except Exception:
        problems = [traceback.format_exc()]
    if problems:
        tally.fail("warm-up", "; ".join(problems))
    return api, elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when there are too few samples for that."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - TAIL_BEYOND if count > TAIL_BEYOND else count
    return 100 * rank / count, ordered[rank - 1], count - rank


def untraced(api, tally: Tally, args, setups: list[float]) -> dict[str, float]:
    """End-to-end metrics."""
    lat = tally.loop(api, args.seconds)
    if not lat:
        raise RuntimeError("no operation completed")
    pct, tail_s, beyond = tail(lat)
    print(f"# latency_tail_ms is p{pct:.2f} of {len(lat)} samples, {beyond} beyond it")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_tail_ms": 1000 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(api, tally: Tally, args) -> dict[str, float]:
    """Per-layer metrics from a traced loop, plus tracing overhead.

    The first COUNT_WINDOW inputs run once untraced, then the traced loop
    starts again from input 0; the two timings of those inputs give the
    tracing overhead. ``selfcheck.py`` compares the counts of two traced runs.
    """
    window = range(COUNT_WINDOW)
    tally.sample = False
    plain = sum(latency for latency in (tally.run_op(api, i) for i in window) if latency)
    tracer = Tracer()
    install(tracer, api)
    tally.tracer = tracer
    try:
        with_spans = sum(tally.loop(api, args.seconds, min_ops=COUNT_WINDOW)[:COUNT_WINDOW])
    finally:
        tally.tracer = None
        tracer.unpatch()
    metrics = layer_metrics(tracer, window)
    metrics["bench.check.s"] = tally.check_s / max(tally.attempted, 1)
    metrics["bench.trace_overhead"] = with_spans / plain - 1 if plain else 0.0
    return metrics

PER_LAYER_UNITS = {name: unit for name, unit, _kind, _key in LAYER_METRICS}
PER_LAYER_UNITS["bench.check.s"] = "s/op"
PER_LAYER_UNITS["bench.trace_overhead"] = "ratio"


def environment() -> str:
    return f"python {platform.python_version()}, nproc {os.cpu_count()}, affinity {len(os.sched_getaffinity(0))}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed; {DEFAULT_SEED} is the default, {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=30, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    golden = json.loads((HERE / "golden.json").read_text())
    tally = Tally(workload, args.seed, args.seconds, golden[workload.name].get(str(args.seed), []))
    setups = []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            api, elapsed = set_up(tally)
            setups.append(elapsed)
    except ImportError as exc:
        print(f"cannot import allocore from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values = traced(api, tally, args)
        units = PER_LAYER_UNITS
    else:
        values = untraced(api, tally, args, setups)
        units = END_TO_END_UNITS
    for report in tally.reports[:5]:
        print(f"# {report}", file=sys.stderr)
    print(
        f"# {workload.name}: n = {workload.n}, seed {args.seed}, trace {args.trace}, "
        f"{tally.attempted} attempted, {tally.failed} failed "
        f"(failed_frac {tally.failed / max(tally.attempted, 1)}), "
        f"check {tally.check_s:.3f} s, set-ups {' '.join(f'{t:.4f}' for t in setups)} s, "
        f"median host slowdown {statistics.median(tally.slowdowns or [0]):.3f}; "
        f"{environment()}"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
