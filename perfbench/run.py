"""The repository benchmark: one workload per run, one JSON line out.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build-xmark --seed 1 --seconds 20 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``build-xmark`` — the offline build pipeline in a child process.
* ``serve-xmark`` — the ``repro serve`` daemon on a snapshot.
* ``serve-updates`` — the daemon on a live document, with writers.
* ``collection-zipf`` — a sharded collection build, then routed serving.

With ``--trace 0`` the last stdout line reports every end-to-end
metric of ``BENCHMARK.json``; with ``--trace 1`` every per-layer
metric, and the spans are written to ``.perfbench_traces/``.  A
per-layer metric the workload does not measure reads 0, and a note
names it.  Lines before the result record the environment, the seeds
and what was measured.  The exit code is 0 only when every output of
the program was correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

TRACE_DIR = harness.ROOT / ".perfbench_traces"
MANIFEST = harness.ROOT / "BENCHMARK.json"


def workloads():
    import build_workload
    import serve_workloads

    return {
        "build-xmark": build_workload.run,
        "serve-xmark": serve_workloads.run_serve_xmark,
        "serve-updates": serve_workloads.run_serve_updates,
        "collection-zipf": serve_workloads.run_collection_zipf,
    }


def reported(metrics, trace: bool, notes):
    """The workload's metrics as ``BENCHMARK.json`` lists them, in its units.

    Every end-to-end metric must come from the workload.  A per-layer
    metric the workload does not measure reads 0, and is named in
    ``notes``.
    """
    listed = json.loads(MANIFEST.read_text())["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    extra = sorted(set(metrics) - set(units))
    if extra:
        raise harness.BenchError(f"measured but not listed in {MANIFEST.name}: {extra}")
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        raise harness.BenchError(f"end-to-end metrics not measured: {missing}")
    if missing:
        notes.append(f"layers not measured on this workload, reported as 0: {missing}")
    out = {}
    for name, unit in units.items():
        value, measured_unit = metrics.get(name, (0, unit))
        if measured_unit != unit:
            raise harness.BenchError(f"{name} measured in {measured_unit}, listed in {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not harness.program_present():
        print(f"no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    runners = workloads()
    if args.workload not in runners:
        print(f"unknown workload {args.workload!r}; choose from {sorted(runners)}", file=sys.stderr)
        return 2

    print("env " + json.dumps(harness.environment(args.seed)), flush=True)
    started = time.perf_counter()
    ticks, stolen = harness.cpu_ticks()
    with harness.work_dir() as work:
        result = runners[args.workload](args.seed, args.seconds, bool(args.trace), work)
    metrics = reported(result["metrics"], bool(args.trace), result["notes"])
    for note in result["notes"]:
        print(f"note {note}")
    for problem in result["problems"][:20]:
        print(f"WRONG {problem}")
    tracer = result.get("tracer")
    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        print(f"note {len(tracer.spans)} spans written to {path.relative_to(harness.ROOT)}")
    ticks_after, stolen_after = harness.cpu_ticks()
    print(
        f"note run took {time.perf_counter() - started:.1f} s; the hypervisor took "
        f"{100.0 * (stolen_after - stolen) / max(1, ticks_after - ticks):.1f}% of CPU time"
    )
    correct = not result["problems"] and result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
