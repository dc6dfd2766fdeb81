"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one client, closed loop: each op starts when the
previous one ends.  With ``--trace 0`` the run measures the end-to-end
metrics over ``--seconds`` of ops, split into slices with a calibration
of the machine's speed before each slice and one cold CLI run (a
subprocess) after it; every time is scaled to the reference speed.
With ``--trace 1`` it runs the same input stream untraced for half the
time and traced for the other half, and reports the per-layer metrics.
Earlier lines of standard output carry the details (input digest,
environment, failures by cause); the last line is the result object.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import inputs
from spans import SpanRecorder, direct

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "instances"

WORKLOADS = ("exhaustive-oracle", "fuzz-verify", "oracle-constrained", "cli-batch")

# Op tail latency: p95, fixed, so that a faster program is not reported at
# a higher percentile; a run with fewer than ten samples beyond it falls
# back to a lower one and says so.  Higher tails do not hold a bound on a
# shared machine: p99 of oracle-constrained falls among ops of 50-100 ms
# whose times swing by a fifth from run to run, p99 of cli-batch is one of
# the ten heaviest pairs of the seed's pool, and p99.9 is decided by bursts
# of interference from other tenants (see bench/README.md).
TAIL_PERCENTILE = 95.0
COLD_RUNS = 40
COLD_TAIL_PERCENTILE = 75.0
SETUP_SAMPLES = 11

# Machine-speed calibration.  The reference machine is a VM on a shared
# host whose speed drifts by up to about 50 % within a minute, in CPU time
# as much as in wall time.  An untraced run times a fixed pure-Python loop
# (benchmark code that no change to the program touches) before every
# slice of ops, and scales every time it reports by
# CALIBRATION_REF_NS / (median time of the loop in the run): the figures
# are those of a machine on which the loop takes 5 ms.  A change to the
# program moves the scaled times as it moves the raw ones; the raw
# figures are in the detail line.
CALIBRATION_REF_NS = 5_000_000


def setup(workload: str) -> float:
    """Import the program and fill its lazy caches; return seconds taken."""
    start = perf_counter()
    import rgroups  # noqa: F401
    import rgroups.cli  # noqa: F401
    import rgroups.instances  # noqa: F401
    import workloads

    workloads.warm_up(workload)
    return perf_counter() - start


def probe_setup(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload, "--probe-setup"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def reference_loop() -> int:
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


def calibrate() -> int:
    """Nanoseconds the reference loop takes now."""
    start = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - start


def _rank(n: int, pct: float) -> int:
    return max(1, math.ceil(n * pct / 100))


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail(sorted_values, pct: float) -> tuple[float, float, int]:
    """(percentile used, value, samples beyond it): ``pct`` when at least
    ten samples lie beyond it, else the highest lower one that has them."""
    n = len(sorted_values)
    for p in (pct, 95.0, 90.0, 75.0, 50.0):
        if p <= pct and n - _rank(n, p) >= 10:
            break
    return p, percentile(sorted_values, p), n - _rank(n, p)


def make_inputs(workload: str, seed: int, workdir: Path):
    """(input stream, op, input digest) of a workload."""
    import workloads

    if workload == "exhaustive-oracle":
        stream = inputs.exhaustive_stream(seed)
        return stream, workloads.exhaustive_op, inputs.digest(stream)
    if workload == "oracle-constrained":
        stream = inputs.constrained_stream(seed)
        return stream, workloads.constrained_op, inputs.digest(stream)
    if workload == "fuzz-verify":
        stream = inputs.fuzz_stream(seed)
        return stream, workloads.fuzz_op, inputs.digest(stream)
    docs = inputs.cli_documents(seed, CORPUS)
    stream = inputs.cli_stream(seed, docs)
    batch = workloads.CliBatch(docs, workdir)
    return stream, batch.op, inputs.digest(docs, stream)


class Outcomes:
    """The outcome of every distinct input a run reaches.

    ``attempted`` and ``failed`` count distinct inputs, so that they depend
    on the seed and not on how fast the machine is: a workload whose pool
    is small (``cli-batch``) cycles through it many times in a run, and a
    repeat is a re-measurement, not a new op.  A repeat must give the
    input's first outcome; one that does not turns the input's cause into
    ``unstable``, which fails ``correct``.
    """

    def __init__(self, n: int) -> None:
        self.state = bytearray(n)  # 0: not run, 1: passed, 2: failed
        self.causes: dict[int, str] = {}  # failed input -> cause

    def record(self, index: int, cause) -> None:
        state = 1 if cause is None else 2
        seen = self.state[index]
        if not seen:
            self.state[index] = state
            if cause is not None:
                self.causes[index] = cause
        elif seen != state or self.causes.get(index) != cause:
            self.state[index] = 2
            self.causes[index] = "unstable"

    @property
    def attempted(self) -> int:
        return len(self.state) - self.state.count(0)

    def by_cause(self) -> Counter:
        return Counter(self.causes.values())


def closed_loop(stream, op, seconds: float, outcomes, recorder=None, counts=None, workload="",
                start_at=0):
    """Run ops back to back for ``seconds``; return per-op latencies in ns
    and the elapsed time in seconds, recording outcomes in ``outcomes``.
    The ops start at item ``start_at`` of the stream."""
    latencies = array("q")
    state = outcomes.state
    n = len(stream)
    i = start_at
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    now = start
    while now < deadline:
        key = i % n
        item = stream[key]
        if recorder is None:
            try:
                cause, info = op(item, direct)
            except Exception as exc:  # an op that raises is a failed op
                cause, info = f"raised:{type(exc).__name__}", None
            end = perf_counter_ns()
        else:
            recorder.op_id = i
            try:
                cause, info = recorder.call("op", op, item, recorder.call)
            except Exception as exc:
                cause, info = f"raised:{type(exc).__name__}", None
            end = perf_counter_ns()
            counts.observe(workload, info)
        latencies.append(end - now)
        if cause is not None or state[key] != 1:
            outcomes.record(key, cause)
        i += 1
        now = perf_counter_ns() if recorder is not None else end
    return latencies, (now - start) / 1e9


class ColdRuns:
    """Wall time in ms of ``rgroups rgroup --oracle --json`` on corpus
    files, one subprocess at a time, with failures by cause."""

    def __init__(self, seed: int) -> None:
        self.files = inputs.cold_files(seed, CORPUS, COLD_RUNS)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.causes: Counter = Counter()

    def step(self) -> None:
        path = self.files[len(self.times)]
        argv = [sys.executable, "-m", "rgroups.cli", "rgroup", "--oracle", "--json", str(path)]
        start = perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        self.times.append((perf_counter() - start) * 1e3)
        if proc.returncode != 0:
            self.causes["cold_exit"] += 1
        elif json.loads(proc.stdout)["results"]["agree"] is not True:
            self.causes["cold_output"] += 1


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "rgroups").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_digest": h.hexdigest()[:16],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, latencies, elapsed: float, cold, scale: float) -> tuple[dict, dict]:
    """The end-to-end metrics, every time multiplied by ``scale`` (see
    CALIBRATION_REF_NS), and the details with the raw figures."""
    lat = sorted(latencies)
    tail_pct, tail_ns, beyond = tail(lat, TAIL_PERCENTILE)
    cold_pct, cold_tail, cold_beyond = tail(cold, COLD_TAIL_PERCENTILE)
    raw = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / elapsed, "1/s"),
        "op_p50_us": (percentile(lat, 50) / 1e3, "us"),
        "op_tail_us": (tail_ns / 1e3, "us"),
        "cold_p50_ms": (percentile(cold, 50), "ms"),
        "cold_tail_ms": (cold_tail, "ms"),
    }
    metrics = {
        name: metric(value / scale if unit == "1/s" else value * scale, unit)
        for name, (value, unit) in raw.items()
    }
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    detail = {
        "op_tail": {"percentile": tail_pct, "samples": len(lat), "beyond": beyond},
        "cold_tail": {"percentile": cold_pct, "samples": len(cold), "beyond": cold_beyond},
        "speed_scale": scale,
        "raw": {name: value for name, (value, _) in raw.items()},
    }
    return metrics, detail


# Every span name starts with its layer.  The self time of the "op" span
# is the benchmark's own code in the op: building inputs and checking.
LAYERS = ("params", "centralizer", "weyl", "levi", "instances", "cli")

PER_CALL = (
    "params.build",
    "params.canonicalize",
    "params.validate",
    "centralizer.closed_form",
    "centralizer.centralizer",
    "centralizer.descriptor",
    "weyl.quotient",
    "levi.generate",
    "levi.verify",
    "instances.parse",
    "instances.serialize",
    "cli.validate",
    "cli.rgroup",
    "cli.rgroup_unitary",
    "cli.explain",
)


def per_layer(recorder, counts, overhead: float, causes, attempted):
    durations = recorder.durations()
    metrics = {}
    for name in PER_CALL:
        values = sorted(durations.get(name, ()))
        metrics[f"{name}_us"] = metric(percentile(values, 50) / 1e3 if values else 0.0, "us")
    quotient = sorted(durations.get("weyl.quotient", ()))
    _, quotient_tail, _ = tail(quotient, TAIL_PERCENTILE) if quotient else (0, 0.0, 0)
    metrics["weyl.quotient_tail_us"] = metric(quotient_tail / 1e3, "us")
    for name, unit in (
        ("params.entries", "count"),
        ("centralizer.factors", "count"),
        ("weyl.torus_degree", "count"),
        ("weyl.candidates", "count"),
        ("levi.deltas", "count"),
        ("instances.doc_bytes", "bytes"),
    ):
        metrics[f"{name}_mean"] = metric(counts.mean(name), unit)
    calls = counts.oracle_calls
    metrics["weyl.calls"] = metric(calls, "count")
    metrics["weyl.repeat_share"] = metric(counts.oracle_repeats / calls if calls else 0.0, "share")
    metrics["weyl.skip_share"] = metric(counts.oracle_skips / calls if calls else 0.0, "share")
    metrics["cli.oracle_bound_exits"] = metric(counts.bound_exits, "count")

    self_times = recorder.self_times()
    op_total = sum(durations.get("op", ())) or 1
    for layer in LAYERS:
        own = sum(t for name, t in self_times.items() if name.startswith(layer + "."))
        metrics[f"share.{layer}"] = metric(own / op_total, "share")
    metrics["share.harness"] = metric(self_times.get("op", 0) / op_total, "share")
    metrics["trace.overhead_share"] = metric(overhead, "share")

    failed = sum(causes.values())
    known = sum(causes[c] for c in inputs.KNOWN_DEFECTS)
    metrics["failed_share"] = metric(failed / attempted, "share")
    metrics["failed.oracle_bound_share"] = metric(causes["oracle_bound"] / attempted, "share")
    metrics["failed.bool_accepted_share"] = metric(causes["bool_accepted"] / attempted, "share")
    metrics["failed.other_share"] = metric((failed - known) / attempted, "share")
    return metrics


def run(args) -> int:
    setup_samples = [setup(args.workload)]
    import workloads

    workdir = ROOT / "bench" / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        stream, op, input_digest = make_inputs(args.workload, args.seed, workdir)
        # The input stream is the benchmark's data, not the program's: keep
        # the collector from walking it on every full collection.
        gc.collect()
        gc.freeze()
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "input_digest": input_digest,
            "environment": environment(),
        }
        outcomes = Outcomes(len(stream))
        if args.trace:
            half = args.seconds / 2
            lat0, _ = closed_loop(stream, op, half, outcomes)
            recorder = SpanRecorder()
            counts = workloads.Counts()
            lat1, _ = closed_loop(stream, op, half, outcomes, recorder, counts, args.workload)
            causes = outcomes.by_cause()
            attempted = outcomes.attempted
            # Tracing overhead over the ops both halves ran: the same inputs.
            both = min(len(lat0), len(lat1))
            overhead = 1 - sum(lat0[:both]) / sum(lat1[:both])
            metrics = per_layer(recorder, counts, overhead, causes, attempted)
            detail["ops"] = len(lat0) + len(lat1)
            detail["spans"] = len(recorder.names)
            if args.spans:
                recorder.write(args.spans)
        else:
            # The calibrations, cold runs and set-up probes are spread over
            # the window, around the slices of ops, so that all see the same
            # machine.
            cold = ColdRuns(args.seed)
            latencies, elapsed, calibration = array("q"), 0.0, []
            probe_every = COLD_RUNS // (SETUP_SAMPLES - 1)
            for k in range(COLD_RUNS):
                calibration.append(calibrate())
                lat, slice_elapsed = closed_loop(
                    stream, op, args.seconds / COLD_RUNS, outcomes, start_at=len(latencies)
                )
                latencies += lat
                elapsed += slice_elapsed
                cold.step()
                if k % probe_every == probe_every - 1:
                    setup_samples.append(probe_setup(args.workload))
            scale = CALIBRATION_REF_NS / statistics.median(calibration)
            metrics, extra = end_to_end(
                statistics.median(setup_samples), latencies, elapsed, sorted(cold.times), scale
            )
            detail.update(extra)
            detail["ops"] = len(latencies)
            detail["setup_samples_s"] = setup_samples
            # Each cold run is an op of its own.
            causes = outcomes.by_cause() + cold.causes
            attempted = outcomes.attempted + len(cold.times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(causes.values())
    unexpected = {c: n for c, n in causes.items() if c not in inputs.KNOWN_DEFECTS}
    detail["failures_by_cause"] = dict(sorted(causes.items()))
    detail["known_defects"] = list(inputs.KNOWN_DEFECTS)
    print(json.dumps(detail))
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced run's spans to this file as JSON lines")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rgroups" / "__init__.py").is_file():
        print(f"error: no rgroups package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        print(setup(args.workload))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
