"""Steadiness check: run each workload repeatedly, one seed per run, and
print every end-to-end metric's median and quartiles against its bound.

    python3 perfbench/steady.py [--runs 10]

Runs every workload of BENCHMARK.json with seeds 1..runs, each for its
run_seconds, one after another. The spread is (Q3 - Q1) / median over the
runs, with the quartiles of statistics.quantiles(values, n=4); a metric
is steady when its spread is below a third of its bound. When an earlier
summary is in .perfbench-work/results/, each median is also compared with
that set's: `worse` is how much the median moved in the metric's worse
direction, which must stay within its bound. The summary is written there
too, as steady-<unix time>.json.
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
RESULTS = ROOT / ".perfbench-work" / "results"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec: dict, workload: str, results: list[dict], previous: dict) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "OVER BOUND")
        worse = None
        if (workload, name) in previous:
            change = mid / previous[(workload, name)] - 1.0
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict += ", MEDIAN MOVED"
        rows.append({"workload": workload, "metric": name, "unit": metric["unit"],
                     "median": mid, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound, "worse": worse, "verdict": verdict})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    earlier = sorted(RESULTS.glob("steady-*.json"))
    previous = {}
    if earlier:
        previous = {(r["workload"], r["metric"]): r["median"]
                    for r in json.loads(earlier[-1].read_text(encoding="utf-8"))}
        print(f"medians compared with {earlier[-1].name}")
    print(f"{args.runs} runs per workload, seeds 1..{args.runs}, {seconds} s each")
    print(f"{'workload':8} {'metric':20} {'median':>11} {'Q1':>11} {'Q3':>11} "
          f"{'spread':>7} {'bound':>6} {'worse':>6}  verdict")
    summary = []
    for workload in (w["name"] for w in spec["workloads"]):
        started = time.monotonic()
        results = [run_once(workload, seed, seconds) for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in results}
        for row in summarize(spec, workload, results, previous):
            summary.append(row)
            worse = "" if row["worse"] is None else f"{row['worse']:6.1%}"
            print(f"{workload:8} {row['metric']:20} {row['median']:11.5g} "
                  f"{row['q1']:11.5g} {row['q3']:11.5g} {row['spread']:7.1%} "
                  f"{row['bound']:6.0%} {worse:>6}  {row['verdict']}")
        print(f"{workload:8} failed share {sorted(shares)}; all correct: "
              f"{all(r['correct'] for r in results)}; "
              f"{time.monotonic() - started:.0f} s for {args.runs} runs")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
