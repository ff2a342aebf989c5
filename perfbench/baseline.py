"""Run the benchmark twice over ten seeds and record medians, quartiles and spreads.

Run from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is ``perfbench/run.py`` in its own process, exactly as listed in
BENCHMARK.json.  Every workload runs twice on each of seeds 1..10, the two
runs of a seed back to back, which makes two sets of ten runs.  Before each
run a fixed pure-Python loop is timed, so that a slow host shows in the
record apart from the benchmark.  Per metric and workload the record keeps
each set's median, quartiles and spread (the distance between the quartiles
over the median), the two values of every seed, and how far the second
set's median is worse than the first's.  A pairing is steady when both
spreads and that shift stay within the metric's bound; for setup_s only the
shift is bounded.  One traced run per workload on the default seed records
the per-layer figures next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEEDS = range(1, 11)
SETS = 2
PROBE_REPEATS = 50


def host_probe_s() -> float:
    """Median seconds of a fixed pure-Python loop that uses no flowident code."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stderr}")
    return result


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def summarise(name: str, sets: list[list[float]], bound: float, better: str) -> dict:
    """``sets[i][j]`` is the value of set i on the j-th seed."""
    per_set = [quartiles(values) for values in sets]
    first, last = per_set[0]["median"], per_set[-1]["median"]
    worse = (last - first) / first if better == "lower" else (first - last) / first
    spreads_ok = name == "setup_s" or all(s["spread"] <= bound for s in per_set)
    return {
        "sets": per_set,
        "second_median_worse_by": worse,
        "bound": bound,
        "steady": spreads_ok and worse <= bound,
        "per_seed": {str(seed): [values[j] for values in sets] for j, seed in enumerate(SEEDS)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "seeds": {"default": run.DEFAULT_SEED, "verify": run.VERIFY_SEED,
                  "measured": list(SEEDS), "sets": SETS},
        "run_seconds": seconds,
        "workloads": {w["name"]: {"why": w["why"], "sizes": asdict(harness.WORKLOADS[w["name"]])}
                      for w in bench["workloads"]},
        "layer_moves": {name: moves for name, (_, _, moves) in tracing.LAYER_METRICS.items()},
        "end_to_end": {},
        "per_layer": {},
        "host_probe_s": {},
    }
    for workload in harness.WORKLOADS:
        sets = [[] for _ in range(SETS)]
        probes = {}
        for seed in SEEDS:
            for runs in sets:
                probes.setdefault(str(seed), []).append(host_probe_s())
                runs.append(one_run(workload, seed, seconds, 0))
        doc["host_probe_s"][workload] = probes
        doc["end_to_end"][workload] = {
            m["name"]: summarise(
                m["name"], [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets],
                m["bound"], m["better"],
            )
            for m in bench["end_to_end"]
        }
        for name, s in doc["end_to_end"][workload].items():
            spreads = " ".join(f"{x['spread']:.3f}" for x in s["sets"])
            print(f"{workload:9s} {name:26s} median {s['sets'][0]['median']:<12.6g} "
                  f"spreads {spreads}  worse {s['second_median_worse_by']:+.3f} / bound {s['bound']}"
                  f"{'' if s['steady'] else '  NOT STEADY'}", flush=True)
        traced = one_run(workload, run.DEFAULT_SEED, seconds, 1)
        doc["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
