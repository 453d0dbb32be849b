"""netpeer benchmark: replications per second on the paper's Monte Carlo cells
and on the CLI file chain, with a traced per-module split.

Run from the root of a netpeer checkout:

    python3 benchmarks/run.py --workload mc_small --seed 1 --seconds 15 --trace 0

It imports netpeer from the checkout's `src/` (nothing to build), runs the
workload's ops one at a time in a closed loop for `--seconds`, checks every
output, and prints as its last line one JSON object
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, taken from a traced pass over the same ops. The line
before it holds the run's conditions, sample counts and record digests. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 5  # setup_s is the median of this many fresh processes
# Start-up time of the set-up reference process on the reference host (2 vCPU
# Xeon VM, between its fast and slow states).
REFERENCE_IMPORT_S = 0.18


def import_program() -> None:
    """Put the checkout's src/ first on sys.path and import netpeer from it."""
    init = os.path.join(SRC, "netpeer", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"benchmark: {init} not found; run from the root of a netpeer checkout")
    sys.path.insert(0, SRC)
    import netpeer

    if os.path.abspath(netpeer.__file__) != init:
        sys.exit(f"benchmark: imported netpeer from {netpeer.__file__}, not {init}")


def conditions() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class Phase:
    """Timings, digest lines and problems of the ops run one way.

    With a yardstick, each op's time is also kept corrected for host speed.
    """

    def __init__(self, yardstick=None):
        self.yardstick = yardstick
        self.seconds, self.scales, self.ops, self.results = [], [], [], []
        self.failed, self.lines, self.problems = 0, [], []

    def step(self, wl, i: int, tracer=None) -> None:
        """Run and time op i, then settle it outside the timing."""
        token = tracer.begin() if tracer else None
        t0 = time.perf_counter()
        result = wl.op(i)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(token)
        n, failed, lines, problems = wl.settle(i, result)
        self.seconds.append(dt)
        self.scales.append(self.yardstick.scale(dt) if self.yardstick else 1.0)
        self.ops.append(n)
        self.results.append(result)
        self.failed += failed
        self.lines += lines
        self.problems += problems

    def op_seconds(self, corrected: bool) -> list:
        if not corrected:
            return self.seconds
        return [dt * scale for dt, scale in zip(self.seconds, self.scales)]

    def latencies(self, corrected: bool = False) -> list:
        return [dt / n for dt, n in zip(self.op_seconds(corrected), self.ops)]

    def rate(self, corrected: bool = False) -> float:
        """Ops completed per second of op time."""
        return sum(self.ops) / sum(self.op_seconds(corrected))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _seconds_to_line(argv: list) -> tuple:
    """Wall time from starting argv to its first line of output, and that line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited with {proc.returncode}")
    return seconds, line.strip()


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median set-up time over SETUP_PROBES fresh processes, and its raw median.

    A probe is timed from its start until its inputs are ready. Each probe
    sits between two runs of a reference process, a fresh interpreter that
    imports numpy and nothing of netpeer, and its time is scaled by
    REFERENCE_IMPORT_S over the geometric mean of theirs, as op times are by
    the yardstick: on the 2 vCPU Xeon VM a probe's time moved with the
    reference's (correlation 0.74 over 60 probes) while the raw median of
    five consecutive probes drifted between 1.12 and 1.72 s, and the
    quartile spread of such medians fell from 0.27 raw to 0.07 corrected.
    """
    probe = [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    reference = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    before, _ = _seconds_to_line(reference)
    raw, corrected = [], []
    for _ in range(SETUP_PROBES):
        seconds, line = _seconds_to_line(probe)
        if line != "ready":
            raise RuntimeError(f"setup probe printed {line!r}")
        after, _ = _seconds_to_line(reference)
        raw.append(seconds)
        corrected.append(seconds * REFERENCE_IMPORT_S / math.sqrt(before * after))
        before = after
    return statistics.median(corrected), statistics.median(raw)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(wl, workload: str, args) -> tuple:
    """Untraced run: the end-to-end metrics, op times corrected for host speed.

    The op metrics from the raw times go to the info line.
    """
    import checks
    from yardstick import Yardstick

    yardstick = Yardstick(wl.workers)
    try:
        ph = Phase(yardstick)
        start = time.perf_counter()
        while not ph.ops or time.perf_counter() - start < args.seconds:
            ph.step(wl, len(ph.ops))
        rss = peak_rss_mb()
    finally:
        yardstick.close()
    problems = ph.problems + wl.finish(ph.results)
    lat, raw = ph.latencies(corrected=True), ph.latencies()
    metrics = {
        "ops_per_s": ph.rate(corrected=True),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": rss,
    }
    metrics["setup_s"], raw_setup_s = setup_seconds(workload, args.seed)
    info = {
        "samples": {"ops": sum(ph.ops), "latency_samples": len(lat)},
        "digests": {"records": checks.digest(ph.lines)},
        "raw": {"ops_per_s": ph.rate(), "op_ms_p50": statistics.median(raw) * 1e3,
                "op_ms_p90": percentile(raw, 0.9) * 1e3, "setup_s": raw_setup_s},
        "yardstick_scale": {"min": min(ph.scales), "median": statistics.median(ph.scales),
                            "max": max(ph.scales)},
    }
    return metrics, sum(ph.ops), ph.failed, problems, info


def measure_traced(wl, workload: str, args) -> tuple:
    """Traced run: per-layer metrics.

    Each op runs untraced and then traced, alternating, so that drift in the
    host's speed cancels out of the tracing overhead. The parallel workload
    also runs each batch in this process, between the two: its time gives
    parallel_eff, and its records must equal those of the two workers.
    """
    import checks
    import spans

    tracer = spans.Tracer()
    untraced, traced, serial = Phase(), Phase(), Phase()
    parallel = hasattr(wl, "serial")
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        first = len(untraced.lines)
        untraced.step(wl, i)
        if parallel:
            t0 = time.perf_counter()
            lines = wl.serial(i)
            serial.seconds.append(time.perf_counter() - t0)
            serial.ops.append(len(lines))
            if lines != untraced.lines[first:]:
                serial.problems.append(f"batch {i}: records with 2 workers differ from serial")
        tracer.install()
        try:
            traced.step(wl, i, tracer)
        finally:
            tracer.uninstall()
        i += 1
    problems = (untraced.problems + serial.problems + traced.problems
                + wl.finish(untraced.results))
    before, after = checks.digest(untraced.lines), checks.digest(traced.lines)
    if before != after:
        problems.append(f"traced records digest {after} != untraced {before}")

    ops = sum(traced.ops)
    metrics = spans.layer_metrics(tracer, ops)
    metrics["trace_overhead_frac"] = sum(traced.seconds) / sum(untraced.seconds) - 1.0
    metrics["montecarlo.parallel_eff"] = (
        untraced.rate() / (wl.workers * serial.rate()) if parallel else 0.0
    )
    self_s, _ = tracer.totals()
    unattributed = self_s.get(spans.ROOT, 0.0) + self_s.get("montecarlo.run_replication", 0.0)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{workload}.jsonl"))
    info = {
        "samples": {"ops": ops, "traced_ops": len(traced.ops), "spans": len(tracer.spans)},
        "digests": {"records": before, "records_traced": after},
        "absent": tracer.absent,
        "unattributed_share": unattributed / sum(traced.seconds),
    }
    return metrics, sum(untraced.ops) + ops, untraced.failed + traced.failed, problems, info


def main(argv=None) -> int:
    import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = workloads.WORKLOADS[args.workload]()
    workspace = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        wl.prepare(args.seed, workspace)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        before = conditions()
        wl.warmup()
        problems = wl.canary()
        run = measure_traced if args.trace else measure
        metrics, attempted, failed, found, info = run(wl, args.workload, args)
        problems += found
    finally:
        shutil.rmtree(workspace, ignore_errors=True)

    section = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, problems=problems,
                conditions={"before": before, "after": conditions()})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
