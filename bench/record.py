"""Write a run record: several runs of each workload, one seed each, summarised.

    python3 bench/record.py --runs 10 --trace 0 --out bench/records/<name>.json

Runs ``bench/run.py`` once per seed and workload of ``BENCHMARK.json``,
for its ``run_seconds``, one process at a time, and records the machine (``nproc``, the CPU model from
``/proc/cpuinfo``), the Python version, the git commit, the seeds, the
run count and, for every metric, its median, quartiles and spread (the
interquartile distance as a share of the median).  Quartiles are those
of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "commit": git_commit(),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "runs": args.runs,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        names = results[0]["metrics"]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": {
                name: {"unit": names[name]["unit"],
                       **summarise([r["metrics"][name]["value"] for r in results])}
                for name in names
            },
        }
        record["workloads"][workload] = entry
        for name, m in entry["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:<17} {name:<40} median {m['median']:.6g} {m['unit']:<6} "
                  f"spread {spread}", flush=True)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
