"""quatlift benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload hecke17|eichler|eigenlift17 \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from src/.

The load is a closed loop with one caller: run.py starts one fresh
single-threaded worker process (bench/worker.py) at a time and waits for it,
so no cache of the program carries from one iteration to the next.  A run
starts iterations until --seconds have passed (at least one), with
SETUP_SAMPLES set-up-only workers around them.

--trace 0 reports the end-to-end metrics:
  wall_ref_s   median over iterations of the time from the first workload
               call to the checked result, set-up excluded, at the reference
               CPU speed: the wall time times the speed that an in-process
               probe measured meanwhile (worker.SpeedProbe), so that the
               shared host's changes of speed do not show as changes of the
               program
  setup_s      median over every worker of process start to workload-ready
               (importing quatlift and building the fixture lattices), at
               the reference CPU speed probed during set-up
  peak_rss_mb  median over iterations of the worker's ru_maxrss
and prints the plain wall_s and failed_ratio (checks failed / attempted)
beside them.

--trace 1 runs pairs of one untraced and one traced worker and reports the
per-layer metrics of bench/layers.json from the traced one; the two must give
the same output digests, and trace.overhead_ratio is traced wall_ref_s over
untraced wall_ref_s.  The per-layer times are plain wall seconds; they
include the speed probes that fire inside a span (about 1.5 %).

Every check that fails (a wrong value, a digest that differs from
bench/reference.json, an exception) counts in `failed`, and the command then
exits 1.  Result files go to bench/results/.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("hecke17", "eichler", "eigenlift17")
# set-up-only workers per run, half before and half after the iterations, so
# that the samples do not all fall in one phase of the machine's load
SETUP_SAMPLES = 8
TIME_LIMIT_S = 175  # the whole run, traced runs of hecke17 included
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, mode: str, deadline: float,
                 spans: str | None = None) -> dict:
    """Run one worker to completion; its set-up time is measured from here."""
    cmd = [sys.executable, "-I", WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--workdir", RESULTS_DIR]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for a {mode} worker")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"exit status {proc.returncode}")
        out = json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerError(f"{mode} worker failed ({exc}): {proc.stderr[-2000:]}") from None
    # set-up at the reference CPU speed, like wall_ref_s (worker.SpeedProbe)
    out["setup_s"] = (out["ready_at"] - started - out["setup_probe_s"]) * out["setup_speed"]
    return out


def machine(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def git_commit(root: str) -> str | None:
    """HEAD's commit read from .git, or None where the checkout has no .git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over src/quatlift/*.py, which names the code where no commit is known."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quatlift")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def load_layer_definitions() -> list[dict]:
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float, failures: list):
    def setup_samples(n):
        return [start_worker(workload, seed, "setup", deadline)["setup_s"] for _ in range(n)]

    setup = setup_samples(SETUP_SAMPLES // 2)
    iterations = []
    t0 = time.monotonic()
    while not iterations or time.monotonic() - t0 < seconds:
        iterations.append(start_worker(workload, seed, "run", deadline))
    setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    setup += [it["setup_s"] for it in iterations]
    samples = {
        "wall_ref_s": [it["wall_ref_s"] for it in iterations],
        "setup_s": setup,
        "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
    }
    units = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {k: {"value": statistics.median(v), "unit": units[k]} for k, v in samples.items()}
    samples["wall_s"] = [it["wall_s"] for it in iterations]
    checks = [c for it in iterations for c in it["checks"]]
    compare_digests(iterations, failures)
    return metrics, samples, checks, iterations[-1]["digests"]


def traced(workload: str, seed: int, seconds: int, deadline: float, failures: list):
    import tracing
    definitions = load_layer_definitions()
    pairs = []
    t0 = time.monotonic()
    while not pairs or time.monotonic() - t0 < seconds:
        k = len(pairs)
        spans = os.path.join(RESULTS_DIR, f"spans-{workload}-seed{seed}-{k}.json")
        plain = start_worker(workload, seed, "run", deadline)
        trace = start_worker(workload, seed, "trace", deadline, spans=spans)
        pairs.append((plain, trace))
    layer_runs = [tracing.layer_metrics(t["totals"], definitions) for _, t in pairs]
    metrics = {}
    units = {d["name"]: d["unit"] for d in definitions}
    for name in layer_runs[0]:
        values = [r[name] for r in layer_runs]
        if units[name] in ("count", "bytes") and len(set(values)) != 1:
            failures.append({"name": f"{name} repeats exactly", "ok": False,
                             "detail": f"values {values}"})
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
    overhead = (statistics.median(t["wall_ref_s"] for _, t in pairs)
                / statistics.median(p["wall_ref_s"] for p, _ in pairs))
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    missing = [d["name"] for d in definitions if d["name"] not in metrics]
    if missing:
        raise WorkerError(f"layer metrics not computed: {missing}")
    runs = [w for pair in pairs for w in pair]
    compare_digests(runs, failures)
    checks = [c for w in runs for c in w["checks"]]
    samples = {"untraced_wall_ref_s": [p["wall_ref_s"] for p, _ in pairs],
               "traced_wall_ref_s": [t["wall_ref_s"] for _, t in pairs],
               "untraced_wall_s": [p["wall_s"] for p, _ in pairs],
               "traced_wall_s": [t["wall_s"] for _, t in pairs]}
    return metrics, samples, checks, pairs[-1][1]["digests"]


def compare_digests(runs: list[dict], failures: list) -> None:
    """Every worker of one run (traced or not) must produce the same outputs."""
    first = runs[0]["digests"]
    same = all(r["digests"] == first for r in runs[1:])
    failures.append({"name": f"digests equal across the run's {len(runs)} workers",
                     "ok": same, "detail": "" if same else "digests differ"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quatlift", "__init__.py")):
        print(f"error: no quatlift sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    info = machine(args.seed)
    print("machine: " + json.dumps(info, sort_keys=True))

    extra_checks: list[dict] = []
    try:
        run = traced if args.trace else end_to_end
        metrics, samples, checks, digests = run(args.workload, args.seed, args.seconds,
                                                deadline, extra_checks)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics, samples, checks, digests = {}, {}, [], {}
        extra_checks.append({"name": "workers complete", "ok": False, "detail": str(exc)})
    checks = checks + extra_checks
    attempted = len(checks)
    failed = sum(1 for c in checks if not c["ok"])
    failed_ratio = failed / attempted if attempted else 1.0

    for c in checks:
        if not c["ok"]:
            print(f"FAIL {c['name']}: {c['detail']}")
    label = "iterations" if not args.trace else "traced pairs"
    n = len(next(iter(samples.values()))) if samples else 0
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n} {label}")
    for name, m in metrics.items():
        count = f"  (n={len(samples[name])})" if name in samples else ""
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{count}")
    if "wall_s" in samples:
        print(f"  {'wall_s':40s} {statistics.median(samples['wall_s']):14.6g} s"
              f"  (n={len(samples['wall_s'])})")
    print(f"  {'failed_ratio':40s} {failed_ratio:14.6g} ratio  ({failed}/{attempted} checks)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"machine": info, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result,
              "failed_ratio": failed_ratio, "samples": samples, "checks": checks,
              "digests": digests}
    path = os.path.join(RESULTS_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
