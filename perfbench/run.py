"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload build|query|search|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a viscx checkout. Each run generates its inputs
from --seed in one process (inputs.py), times set-up in SETUP_PROBES
fresh probe processes plus the workload process itself (worker.py), and
prints every metric by name and unit. setup_s is the median of those
set-up times, each scaled to a reference speed of process start-up by
REF_START_S over the time of a bare interpreter start run just before
its spawn. The last stdout line is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1).
Every child process runs with PYTHONHASHSEED=HASH_SEED.

Results go to .perfbench-work/results/; a traced run also writes its
spans there. Generated inputs are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("build", "query", "search")
HASH_SEED = "0"
SETUP_PROBES = 15
#: wall time of a bare interpreter start (`python3 -c pass`) taken as the
#: reference speed of process start-up (about its median on a 2-vCPU
#: x86-64 cloud VM under Python 3.11.7)
REF_START_S = 0.075
#: the whole run has 180 s; generation and probes take well under 30 s
WORKER_TIMEOUT_S = 150


def _require_checkout() -> None:
    needed = [ROOT / "src" / "viscx" / "cli.py", ROOT / "tests" / "corpusgen.py",
              ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: not a viscx checkout, missing {', '.join(missing)}")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        str(p) for p in (ROOT / "src", ROOT / "tests", HERE))
    return env


def _start_worker(inputs: Path, seconds: float, trace: int, probe: bool):
    """Start a workload process; returns it with its set-up seconds (wall
    time from the spawn to its `ready` line) and the seconds of a bare
    interpreter start run just before it."""
    # no timeout: with one, the wait polls in sleeps of up to 50 ms
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=_env(), check=True)
    bare_s = perf_counter() - start
    argv = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
            "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        argv.append("--probe")
    start = perf_counter()
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, setup_s, bare_s


def _probe(inputs: Path) -> tuple[float, float]:
    proc, setup_s, bare_s = _start_worker(inputs, 0, 0, True)
    proc.communicate(timeout=WORKER_TIMEOUT_S)
    return setup_s, bare_s


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    inputs = WORK / f"inputs-{workload}-{seed}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload",
                        workload, "--seed", str(seed), "--out", str(inputs)],
                       env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
        # set-up probes before and after the workload process, so that
        # they do not all fall into one phase of the machine's speed swings
        probes = 0 if trace else SETUP_PROBES
        samples = [_probe(inputs) for _ in range(probes // 2)]
        proc, *sample = _start_worker(inputs, seconds, trace, False)
        samples.append(tuple(sample))
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        samples += [_probe(inputs) for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    values = result["metrics"]
    if not trace:
        setups, bares = zip(*samples)
        values["setup_s"] = statistics.median(
            setup_s * REF_START_S / bare_s for setup_s, bare_s in samples)
        result["info"].update(setup_raw_samples_s=setups, bare_start_samples_s=bares)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing and not result["failed"]:
        raise RuntimeError(f"metrics not measured: {missing}")
    # after failed operations, a metric none of them measured is null
    info = result["info"]
    spans = info.pop("spans", None)
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}),
            encoding="utf-8")
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds,
         "hash_seed": HASH_SEED, "errors": result["errors"], "info": info,
         "result": final}, indent=1), encoding="utf-8")
    return {"final": final, "info": info, "errors": result["errors"]}


def report(workload: str, outcome: dict) -> None:
    final, info = outcome["final"], outcome["info"]
    print(f"# {workload}: PYTHONHASHSEED={HASH_SEED}, "
          f"attempted {final['attempted']}, failed {final['failed']}")
    for name, m in final["metrics"].items():
        value = "unmeasured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{workload}\t{name}\t{value}\t{m['unit']}")
    for key in ("query", "search"):
        if f"{key}_samples" in info:
            p = info[f"{key}_tail_percentile"]
            print(f"# {key}_tail_ms is p{p} of {info[f'{key}_samples']} samples"
                  if p is not None else f"# {key}_tail_ms is the median: too few samples")
    if "tracing_overhead" in info:
        print(f"# tracing overhead {info['tracing_overhead']:+.1%}: traced cycle "
              f"{info['traced_cycle_s']:.3f} s vs untraced {info['untraced_cycle_s']:.3f} s")
    for error in outcome["errors"][:20]:
        print(f"# FAILED {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    finals = {}
    for workload in names:
        outcome = run_workload(workload, args.seed, args.seconds, args.trace)
        report(workload, outcome)
        finals[workload] = outcome["final"]
    sys.stdout.flush()
    print(json.dumps(finals if args.workload == "all" else finals[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
