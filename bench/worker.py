"""One benchmark iteration in a fresh process; run.py starts it, one at a time.

    python -I bench/worker.py --workload NAME --seed N --mode setup|run|trace
        --workdir DIR [--spans FILE]

Prints one JSON line: the monotonic time at which set-up finished, with the
CPU speed probed during set-up, and for run/trace the wall time from the
first workload call to the checked result, that time at the reference CPU
speed (see SpeedProbe), the process's peak RSS, the checks, the output
digests and (trace) the layer totals.  The program is imported from src/ of
the checkout this file is in; DIR holds hecke17's temporary expansion file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

PROBE_PERIOD_S = 0.05
# one probe's duration on the reference CPU; it is about the median probe on
# a 2-vCPU x86-64 VM with CPython 3.11, where wall_ref_s is then close to the
# median wall_s
PROBE_REF_S = 0.0005


def probe_loop() -> Fraction:
    """The fixed work one probe times: exact rational sums, as the program does."""
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(i % 97 + 1, i % 89 + 1)
    return s


class SpeedProbe:
    """Samples the speed of the CPU this process runs on, while the workload runs.

    The shared host this benchmark runs on changes speed by up to a factor of
    two over phases of a few seconds, and two vCPUs of one VM do not change
    together.  So every PROBE_PERIOD_S a SIGALRM handler times `probe_loop` in
    this process, on this vCPU, with the garbage collector held off; speed is
    PROBE_REF_S over the probe's duration.  `ref_seconds` is the workload's
    wall time, probes excluded, times the mean speed: the time the workload
    would take on the reference CPU.  A probe also runs at entry and exit, so
    a workload shorter than one period still gets two samples.  The probes
    take about 1.5 % of the wall time.
    """

    def __init__(self):
        self.durations: list[float] = []

    def probe(self, *_signal_args) -> None:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_loop()
        self.durations.append(time.perf_counter() - t0)
        if gc_was_enabled:
            gc.enable()

    def __enter__(self):
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()
        return False

    def speed(self) -> float:
        return statistics.fmean(PROBE_REF_S / d for d in self.durations)

    def probe_seconds(self) -> float:
        return sum(self.durations)

    def ref_seconds(self, wall: float) -> float:
        return (wall - self.probe_seconds()) * self.speed()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    setup_probe = SpeedProbe()
    with setup_probe:
        import workloads
        inputs = workloads.setup(args.workload)
    ready_at = time.monotonic()
    # run.py times set-up from before this process started, so it scales
    # that time itself, with the speed probed here
    out = {"ready_at": ready_at, "setup_probe_s": setup_probe.probe_seconds(),
           "setup_speed": setup_probe.speed()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    run = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    checks = workloads.Checks()
    digests: dict[str, str] = {}
    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
    probe = SpeedProbe()
    t0 = time.perf_counter()
    try:
        with probe:
            if tracer is None:
                run(inputs, args.seed, checks, digests, reference, args.workdir)
            else:
                with tracer.installed():
                    run(inputs, args.seed, checks, digests, reference, args.workdir)
    except Exception as exc:  # counted as a failed check; the run still reports
        checks.record("workload completes", False,
                      f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=8)}")
    wall = time.perf_counter() - t0
    out.update({
        "wall_s": wall,
        "wall_ref_s": probe.ref_seconds(wall),
        "probes": len(probe.durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks": checks.results,
        "digests": digests,
    })
    if tracer is not None:
        out["totals"] = tracer.totals()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
