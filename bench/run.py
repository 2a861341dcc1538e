"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 bench/run.py --workload theorem-sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  Durations are in reference seconds (see ``clock.py``).
``--trace 1`` runs every unit twice, untraced and
traced in alternating order, reports the per-layer metrics from the
traced runs, and writes the spans to ``bench/out/``.  Every outcome is
checked against a known answer.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path

from clock import RefClock
from tracing import Tracer, Untraced

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_unit(wl, tr, unit, clock: RefClock):
    clock.probe_if_due()
    t0 = clock.now()
    try:
        out = wl.execute(tr, unit)
    except Exception as exc:  # a library failure is a failed item, not a crashed run
        out = exc
    return out, clock.now() - t0


def timed_phase(wl, seconds: float, tracer: Tracer | None, clock: RefClock) -> dict:
    """Run whole batches until the measured time reaches ``seconds``."""
    plain = Untraced()
    busy = traced_busy = 0.0
    items = attempted = failed = 0
    latencies = array("f")
    uid = 0
    for batch in wl.batches():
        for unit in batch:
            uid += 1
            timed = wl.timed(unit)
            if tracer is None:
                out, dt = run_unit(wl, plain, unit, clock)
                if timed:
                    busy += dt
                    if not isinstance(out, Exception):
                        items += wl.items(out)
                        latencies.extend(wl.latencies(out, dt))
            else:
                tracer.item = uid
                # alternate the order so neither mode always runs second on warm caches
                first_traced = uid % 2 == 0
                for traced in (first_traced, not first_traced):
                    result, dt = run_unit(wl, tracer if traced else plain, unit, clock)
                    if traced:
                        out = result
                        traced_busy += dt * timed
                    else:
                        busy += dt * timed
                wl.after_traced(tracer, unit)
            a, f = wl.check(unit, out)
            attempted += a
            failed += f
            # drop the outcome before the next unit, so that peak memory
            # does not depend on how many units fit into the run
            out = None
        if (busy if tracer is None else traced_busy) >= seconds:
            break
    return {"busy": busy, "traced_busy": traced_busy, "items": items,
            "attempted": attempted, "failed": failed, "latencies": latencies,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "unsharp" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no library under {ROOT / 'src'} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    clock = RefClock()
    t0 = clock.now()
    sys.path.insert(0, str(ROOT / "src"))
    import unsharp
    import unsharp.cli  # noqa: F401  (part of the import cost cli-batch pays)
    import_s = clock.now() - t0
    if Path(unsharp.__file__).resolve().parent != ROOT / "src" / "unsharp":
        print(f"error: imported unsharp from {unsharp.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir, clock)
        setups = []
        for _ in range(SETUP_REPEATS):
            clock.probe()
            t0 = clock.now()
            wl.setup()
            setups.append(clock.now() - t0)
        tracer = Tracer(clock) if args.trace else None
        first_probe = len(clock.factors)
        phase = timed_phase(wl, args.seconds, tracer, clock)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(spec, wl, tracer, phase)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(spec, phase, import_s + statistics.median(setups))

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={phase['attempted']} failed={phase['failed']} machine speed factor "
          f"{statistics.median(clock.factors[first_probe:]):.3f} "
          f"(median of {len(clock.factors) - first_probe} probes)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  ({len(phase['latencies'])} per-item samples; "
              f"{len(phase['latencies']) // 100} lie beyond p99)")
    print(json.dumps({
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }))
    return 0


def end_to_end_metrics(spec, phase, setup_s: float) -> dict:
    lat = sorted(phase["latencies"])
    values = {
        "setup_s": setup_s,
        "items_per_s": phase["items"] / phase["busy"],
        "item_ms_p50": 1000 * percentile(lat, 0.50),
        "item_ms_p99": 1000 * percentile(lat, 0.99),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def layer_metrics(spec, wl, tracer: Tracer, phase) -> dict:
    """Every per-layer metric; a layer this workload never calls reads 0."""
    values = {"trace.overhead_ratio": phase["traced_busy"] / phase["busy"]}
    for name, (self_s, calls) in tracer.layer_times().items():
        values[f"{name}.s"] = self_s
        values[f"{name}.calls"] = calls
    values.update(wl.layer_metrics())
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
