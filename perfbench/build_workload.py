"""``build-xmark``: the offline pipeline, one child process per build.

Each build is a fresh program process (``pipeline_child.py build``)
that ingests a serialized XMark document, builds the reference
synopsis, compresses it to the budgets in both phases, writes the
snapshot and opens it again.  This is the only workload where phase-2
value compression dominates; nothing is served.

The document and the error workload are fixed rather than drawn from
``--seed``: a different XMark seed changes how much work a build does,
and a different query sample moves the average relative error by a
third, which would drown any change a build makes to either.  What
still varies between runs is the children's hash seed, randomized as a
user's interpreter would randomize it and recorded with the result.
"""

from __future__ import annotations

import concurrent.futures
import json
import time
from pathlib import Path
from typing import Any, Dict, List

import harness
from harness import Tracer

#: Small enough that a run holds about six builds, so the reported CPU
#: time is a median over several; phase 2 still takes about three
#: quarters of ``compress`` (1.8 of 2.4 s).
XMARK_SCALE = 0.5
XMARK_SEED = 7
STRUCTURAL_BUDGET = 1024
VALUE_BUDGET = 16384

#: The fixed workload rel_error is measured on.
ERROR_WORKLOAD_SEED = 11
ERROR_QUERIES_PER_CLASS = 25

#: Extra import-only children per run, so set-up time is a median.
SETUP_SAMPLES = 10

#: Estimates of the in-memory synopsis and of its reloaded snapshot
#: must agree to this relative tolerance (see ``check_build``).
RELOAD_TOLERANCE = 1e-12

#: Fixed hash seeds of the divergence probe.
DIVERGENCE_SEEDS = (0, 1)

CHILD = str(harness.BENCH_DIR / "pipeline_child.py")
CHILD_TIMEOUT_S = 150.0


def make_inputs(work: Path) -> Dict[str, Any]:
    """Serialize the document and the error workload for the children."""
    from repro.datasets import generate_xmark
    from repro.workload.generator import generate_workload
    from repro.xmltree.serializer import serialize

    dataset = generate_xmark(XMARK_SCALE, seed=XMARK_SEED)
    xml = work / "xmark.xml"
    xml.write_text(serialize(dataset.tree))
    workload = generate_workload(
        dataset, queries_per_class=ERROR_QUERIES_PER_CLASS, seed=ERROR_WORKLOAD_SEED
    )
    return {
        "xml": str(xml),
        "value_paths": [list(path) for path in dataset.value_paths],
        "structural_budget": STRUCTURAL_BUDGET,
        "value_budget": VALUE_BUDGET,
        "queries": [wq.query.to_xpath() for wq in workload.queries],
        "workload": workload,
    }


def run_build(
    inputs: Dict[str, Any], work: Path, tag: str, hash_seed: int, trace: bool
) -> Dict[str, Any]:
    """One build child; adds ``setup_s`` and the hash seed to its report."""
    spec = {key: value for key, value in inputs.items() if key != "workload"}
    spec.update(snapshot=str(work / f"{tag}.snap"), trace=trace)
    spec_path = work / f"{tag}.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    report = harness.run_child(
        [CHILD, "build", str(spec_path)], hash_seed, CHILD_TIMEOUT_S, harness.ROOT
    )
    report["setup_s"] = report["ready"] - spawned
    report["hash_seed"] = hash_seed
    return report


def import_setup_s() -> float:
    spawned = time.monotonic()
    report = harness.run_child(
        [CHILD, "import"], harness.random_hash_seed(), CHILD_TIMEOUT_S, harness.ROOT
    )
    return report["ready"] - spawned


def check_build(report: Dict[str, Any]) -> List[str]:
    """What is wrong with one build's outputs (empty when correct).

    The snapshot must reproduce itself byte for byte when the reloaded
    synopsis is encoded again, and its estimates must equal those of
    the JSON interchange form of the in-memory synopsis bit for bit —
    the two decoders' parity contract.  Against the never-saved
    in-memory synopsis the estimates agree only to
    :data:`RELOAD_TOLERANCE`: the builder keeps integer bucket counts
    that both decoders return as floats, which moves the last bit of
    some products.  Those mismatches are counted, not failed.
    """
    problems = []
    stats = report["stats"]
    if not stats["structural_budget_met"]:
        problems.append("structural budget not met")
    if not stats["value_budget_met"]:
        problems.append("value budget not met")
    if not report["reencode_identical"]:
        problems.append("re-encoded snapshot differs from the file")
    reloaded = report["estimates_reloaded"]
    for index, (a, b) in enumerate(zip(reloaded, report["estimates_interchange"])):
        if a != b:
            problems.append(f"query {index}: snapshot {a!r} != interchange {b!r}")
    for index, (a, b) in enumerate(zip(report["estimates_in_memory"], reloaded)):
        if abs(a - b) > RELOAD_TOLERANCE * max(1.0, abs(a)):
            problems.append(f"query {index}: in-memory {a!r} != reloaded {b!r}")
    return problems


def ulp_mismatches(report: Dict[str, Any]) -> int:
    return sum(
        1
        for a, b in zip(report["estimates_in_memory"], report["estimates_reloaded"])
        if a != b
    )


def rel_error(inputs: Dict[str, Any], estimates: List[float]) -> float:
    from repro.workload.metrics import evaluate_estimates

    pairs = list(zip(inputs["workload"].queries, estimates))
    return evaluate_estimates(pairs).overall


def run(seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    inputs = make_inputs(work)
    if trace:
        return traced(inputs, work)
    builds: List[Dict[str, Any]] = []
    started = time.perf_counter()
    # At least two builds, so cpu_ms_per_op is always a median of
    # several; a further one only when it should end within the run.
    while len(builds) < 2 or (
        time.perf_counter() - started + builds[-1]["build_s"] < seconds
    ):
        builds.append(
            run_build(inputs, work, f"build{len(builds)}", harness.random_hash_seed(), False)
        )
    setups = [b["setup_s"] for b in builds]
    setups += [import_setup_s() for _ in range(SETUP_SAMPLES)]
    metrics = {
        "setup_s": (harness.median(setups), "s"),
        "peak_rss_mb": (harness.median([b["peak_rss_mb"] for b in builds]), "MB"),
        "cpu_ms_per_op": (harness.median([b["build_cpu_s"] for b in builds]) * 1000.0, "ms"),
    }
    errors = [rel_error(inputs, b["estimates_reloaded"]) for b in builds]
    notes = [
        f"build_s {harness.median([b['build_s'] for b in builds]):.3f} s, snapshot_bytes "
        f"{harness.median([b['snapshot_bytes'] for b in builds]):.0f}, rel_error "
        f"{harness.median(errors):.6f} (medians over the builds)"
    ]
    return outcome(metrics, builds, inputs, notes)


def outcome(
    metrics: Dict[str, Any], builds: List[Dict[str, Any]], inputs: Dict[str, Any], notes: List[str]
) -> Dict[str, Any]:
    problems = [p for b in builds for p in check_build(b)]
    notes.append(
        f"{len(builds)} builds of {builds[0]['elements']} elements, hash seeds "
        f"{[b['hash_seed'] for b in builds]}, CPU seconds "
        f"{[round(b['build_cpu_s'], 3) for b in builds]}, value steps "
        f"{[b['stats']['value_steps_applied'] for b in builds]}, estimates of the "
        f"in-memory and the reloaded synopsis differing in the last bits: "
        f"{[ulp_mismatches(b) for b in builds]} of {len(inputs['queries'])} queries"
    )
    return {
        "metrics": metrics,
        "attempted": len(builds),
        "failed": sum(1 for b in builds if check_build(b)),
        "problems": problems,
        "notes": notes,
    }


def traced(inputs: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Per-layer numbers from one traced build, plus the hash-seed probe.

    An untraced build runs first, so the tracing overhead is the
    difference of two builds made one after the other.
    """
    plain = run_build(inputs, work, "untraced", harness.random_hash_seed(), False)
    report = run_build(inputs, work, "traced", harness.random_hash_seed(), True)
    tracer = Tracer()
    tracer.extend(report["spans"], tracer.new_trace())
    own = {name: sum(times) for name, times in tracer.self_times().items()}
    build_s = report["build_s"]
    stages = sum(
        seconds for name, seconds in own.items() if name not in ("build", "core.snapshot.load")
    )
    stats = report["stats"]
    steps = stats["value_steps_applied"]
    pops = steps + stats["value_stale_pops"]

    # Two builds under fixed hash seeds, side by side on two cores.
    with concurrent.futures.ThreadPoolExecutor(len(DIVERGENCE_SEEDS)) as pool:
        probes = list(
            pool.map(
                lambda s: run_build(inputs, work, f"hashseed{s}", s, False),
                DIVERGENCE_SEEDS,
            )
        )
    divergent = len({p["snapshot_sha256"] for p in probes}) > 1

    metrics = {
        "xmltree.ingest_s": (own["xmltree.ingest"], "s"),
        "core.reference.build_s": (own["core.reference.build"], "s"),
        "core.reference.nodes": (report["reference_nodes"], "count"),
        "core.builder.merge_s": (own["core.builder.merge"], "s"),
        "core.pool.build_s": (own["core.pool.build"], "s"),
        "core.builder.merges": (stats["merges_applied"], "count"),
        "core.builder.scoring_calls": (stats["scoring_calls"], "count"),
        "core.builder.selectivity_cache_hit_rate": (stats["selectivity_cache_hit_rate"], "ratio"),
        "core.builder.value_s": (own["core.builder.value"], "s"),
        "values.hist_cmprs_s": (own["values.hist_cmprs"], "s"),
        "values.st_cmprs_s": (own["values.st_cmprs"], "s"),
        "values.tv_cmprs_s": (own["values.tv_cmprs"], "s"),
        "core.builder.value_delta_s": (own["core.builder.value_delta"], "s"),
        "core.builder.value_steps": (steps, "count"),
        "core.builder.useful_pop_ratio": (steps / pops if pops else 1.0, "ratio"),
        "core.builder.hashseed_divergence": (int(divergent), "count"),
        "core.snapshot.save_s": (own["core.snapshot.save"], "s"),
        "core.snapshot.load_s": (own["core.snapshot.load"], "s"),
        "trace.stage_coverage": (stages / build_s, "ratio"),
        "trace.build_overhead_ms": ((build_s - plain["build_s"]) * 1000.0, "ms"),
    }
    notes = [
        f"hash-seed probe: seeds {list(DIVERGENCE_SEEDS)} -> value steps "
        f"{[p['stats']['value_steps_applied'] for p in probes]}, snapshots "
        f"{'differ' if divergent else 'identical'}",
        f"stage self times cover {stages:.3f} s of the traced build_s {build_s:.3f} s",
    ]
    result = outcome(metrics, [plain, report, *probes], inputs, notes)
    result["tracer"] = tracer
    return result
