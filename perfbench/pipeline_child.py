"""A program process that drives the library pipeline once.

Started by the benchmark as ``python perfbench/pipeline_child.py
<mode> <spec.json>``, with only the checkout's ``src`` on the path and
a randomized hash seed chosen (and recorded) by the parent.  The first
statement after the clock import is ``import repro``: the stamp taken
right after it marks the process as set up.  The last stdout line is
one JSON object with the stamps, timings and outputs.

Modes:

* ``import`` — set up and report; the set-up time samples.
* ``build`` — ``ingest_file`` → ``build_reference_synopsis`` →
  ``XClusterBuilder.compress`` → ``save_snapshot``, then
  ``load_snapshot`` and the estimates the parent checks.
* ``collection`` — ``build_collection`` over a corpus file.
"""

import time

import repro  # noqa: F401  (the set-up being timed)

READY = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from harness import Tracer  # noqa: E402


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _phase_spans(spans: Tracer, compress, stats) -> None:
    """Lay the builder's own phase timers out inside the compress span.

    ``compress`` covers phase 1 and phase 2 in one public call, so the
    split comes from the ``BuildStats`` fields it fills; each phase's
    children are laid end to end from the phase start.
    """
    merge = spans.derived(
        "core.builder.merge", compress, compress["start"], stats.merge_phase_seconds
    )
    spans.derived("core.pool.build", merge, merge["start"], stats.pool_build_seconds)
    value = spans.derived(
        "core.builder.value", compress, merge["end"], stats.value_phase_seconds
    )
    at = value["start"]
    for name, seconds in (
        ("values.hist_cmprs", stats.hist_cmprs_seconds),
        ("values.st_cmprs", stats.st_cmprs_seconds),
        ("values.tv_cmprs", stats.tv_cmprs_seconds),
        ("values.other_cmprs", stats.other_cmprs_seconds),
        ("core.builder.value_delta", stats.value_delta_seconds),
    ):
        at = spans.derived(name, value, at, seconds)["end"]


def run_build(spec, spans: Tracer):
    from repro.core.builder import BuildConfig, XClusterBuilder
    from repro.core.estimation import CompiledEstimator
    from repro.core.reference import build_reference_synopsis
    from repro.core.serialization import synopsis_from_dict, synopsis_to_dict
    from repro.core.snapshot import load_snapshot, save_snapshot, snapshot_to_bytes
    from repro.query.xpath import parse_twig
    from repro.xmltree import ingest_file

    value_paths = [tuple(path) for path in spec["value_paths"]]
    config = BuildConfig(
        structural_budget=spec["structural_budget"],
        value_budget=spec["value_budget"],
    )
    cpu_started = time.process_time()
    with spans.span("build") as build:
        with spans.span("xmltree.ingest"):
            doc = ingest_file(spec["xml"])
        with spans.span("core.reference.build"):
            synopsis = build_reference_synopsis(doc, value_paths)
        reference_nodes = len(synopsis)
        builder = XClusterBuilder(config)
        with spans.span("core.builder.compress") as compress:
            builder.compress(synopsis)
        with spans.span("core.snapshot.save"):
            save_snapshot(synopsis, spec["snapshot"])
    build_cpu_s = time.process_time() - cpu_started
    stats = builder.stats
    _phase_spans(spans, compress, stats)
    with spans.span("core.snapshot.load") as load:
        loaded = load_snapshot(spec["snapshot"])

    queries = [parse_twig(text) for text in spec["queries"]]
    in_memory = CompiledEstimator(synopsis)
    reloaded = CompiledEstimator(loaded)
    interchange = CompiledEstimator(synopsis_from_dict(synopsis_to_dict(synopsis)))
    with open(spec["snapshot"], "rb") as handle:
        snapshot = handle.read()
    return {
        "build_s": build["end"] - build["start"],
        "build_cpu_s": build_cpu_s,
        "load_s": load["end"] - load["start"],
        "snapshot_bytes": len(snapshot),
        "snapshot_sha256": hashlib.sha256(snapshot).hexdigest(),
        "reencode_identical": snapshot_to_bytes(loaded) == snapshot,
        "estimates_in_memory": [in_memory.estimate(q) for q in queries],
        "estimates_reloaded": [reloaded.estimate(q) for q in queries],
        "estimates_interchange": [interchange.estimate(q) for q in queries],
        "reference_nodes": reference_nodes,
        "elements": len(doc),
        "stats": {
            "structural_budget_met": stats.structural_budget_met,
            "value_budget_met": stats.value_budget_met,
            "merges_applied": stats.merges_applied,
            "value_steps_applied": stats.value_steps_applied,
            "value_stale_pops": stats.value_stale_pops,
            "scoring_calls": stats.scoring_calls,
            "selectivity_cache_hit_rate": stats.selectivity_cache_hit_rate,
            "final_nodes": stats.final_nodes,
        },
    }


def run_collection(spec, spans: Tracer):
    from repro.collection import CollectionConfig, build_collection

    with open(spec["corpus"]) as handle:
        docs = [tuple(pair) for pair in json.load(handle)]
    config = CollectionConfig(
        shard_count=spec["shard_count"],
        total_budget=spec["total_budget"],
        structural_share=spec["structural_share"],
        compress=True,
        workers=1,
    )
    with spans.span("collection.build") as build:
        _manifest, report = build_collection(spec["root"], docs, config)
    return {
        "build_s": build["end"] - build["start"],
        "documents": report.documents,
        "distinct_structures": report.distinct_structures,
        "payload_builds": report.payload_builds,
        "dedup_rate": report.dedup_rate,
        "shards_written": report.shards_written,
    }


def main() -> int:
    mode = sys.argv[1]
    result = {"ready": READY}
    if mode != "import":
        with open(sys.argv[2]) as handle:
            spec = json.load(handle)
        spans = Tracer()
        runner = {"build": run_build, "collection": run_collection}[mode]
        result.update(runner(spec, spans))
        if spec.get("trace"):
            result["spans"] = spans.spans
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
