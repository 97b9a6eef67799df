"""Median, quartiles and spread of the result files in bench/results/.

    python3 bench/summarize.py [--out FILE]

Groups the files by workload and trace mode and, for every metric, prints the
median over seeds, the first and third quartiles (statistics.quantiles, n=4)
and the spread (third minus first quartile, over the median).  With --out it
also writes the summary, with the machine line of each group, as JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def summarize(records: list[dict]) -> dict:
    values: dict[str, list] = {}
    units = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], None, vs[0])
        out[name] = {"unit": units[name], "n": len(vs), "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    groups: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(RESULTS_DIR, "*-seed*-trace*.json"))):
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        groups.setdefault(f"{r['workload']} trace={r['trace']}", []).append(r)
    summary = {}
    for key, records in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        stats = summarize(records)
        machine = {k: v for k, v in records[0]["machine"].items() if k != "seed"}
        summary[key] = {"seeds": seeds, "failed": failed, "machine": machine, "metrics": stats}
        print(f"{key}: seeds {seeds}, failed checks {failed}")
        for name, s in stats.items():
            print(f"  {name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
