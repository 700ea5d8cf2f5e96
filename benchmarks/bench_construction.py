"""Construction cost — XCLUSTERBUILD timing and pool behaviour.

The paper motivates the localized Δ metric and the bounded candidate
pool (``H_m`` / ``H_l``) with construction efficiency (Section 4.3).
These benches measure the real costs: reference-synopsis construction,
a full budgeted build at two pool configurations, and the candidate
-scoring engine comparison (scalar reference path vs the vectorized
profile-backed engine), whose results land in
``BENCH_construction.json``.
"""

from time import perf_counter

import pytest

import common
from repro.core import build_reference_synopsis
from repro.core.builder import BuildConfig, XClusterBuilder
from repro.core.sizing import structural_size_bytes

#: The end-to-end speedup the vectorized engine must deliver at full
#: bench scale; tiny smoke-scale runs only check the report plumbing
#: (fixed costs dominate and timings are noise there).
SPEEDUP_FLOOR = 2.0
SPEEDUP_ASSERT_MIN_SCALE = 0.3


def test_reference_construction_time(experiment_context, benchmark):
    dataset = experiment_context.dataset("imdb")
    synopsis = benchmark.pedantic(
        build_reference_synopsis,
        args=(dataset.tree, dataset.value_paths),
        rounds=3,
        iterations=1,
    )
    assert len(synopsis) > 10


@pytest.mark.parametrize("pool_max,pool_min", [(2000, 1000), (8000, 4000)])
def test_budgeted_build_time(experiment_context, benchmark, pool_max, pool_min):
    context = experiment_context
    reference = context.reference("imdb")
    budget = structural_size_bytes(reference) // 10

    def run():
        synopsis = context.fresh_reference("imdb")
        config = BuildConfig(
            structural_budget=budget,
            value_budget=10**9,
            pool_max=pool_max,
            pool_min=pool_min,
        )
        builder = XClusterBuilder(config)
        builder.compress(synopsis)
        return builder.stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    assert stats.structural_budget_met
    assert stats.merges_applied > 0


def _timed_build(context, dataset_name, budget, scoring):
    """One full budgeted build; returns (seconds, stats, synopsis)."""
    synopsis = context.fresh_reference(dataset_name)
    config = BuildConfig(
        structural_budget=budget,
        value_budget=10**9,
        pool_max=context.config.pool_max,
        pool_min=context.config.pool_min,
        scoring=scoring,
    )
    builder = XClusterBuilder(config)
    started = perf_counter()
    builder.compress(synopsis)
    elapsed = perf_counter() - started
    return elapsed, builder.stats, synopsis


def _stats_record(seconds, stats):
    return {
        "seconds": round(seconds, 4),
        "merges_applied": stats.merges_applied,
        "pool_rebuilds": stats.pool_rebuilds,
        "pool_build_seconds": round(stats.pool_build_seconds, 4),
        "merge_phase_seconds": round(stats.merge_phase_seconds, 4),
        "value_phase_seconds": round(stats.value_phase_seconds, 4),
        "scoring_calls": stats.scoring_calls,
        "selectivity_cache_hits": stats.selectivity_cache_hits,
        "selectivity_cache_misses": stats.selectivity_cache_misses,
        "selectivity_cache_hit_rate": round(stats.selectivity_cache_hit_rate, 4),
        "profile_hits": stats.profile_hits,
        "profile_misses": stats.profile_misses,
        "profile_hit_rate": round(stats.profile_hit_rate, 4),
        "pool_trims": stats.pool_trims,
        "candidates_trimmed": stats.candidates_trimmed,
        "final_structural_bytes": stats.final_structural_bytes,
        "final_nodes": stats.final_nodes,
    }


def test_scoring_engine_speedup(experiment_context):
    """Scalar vs vectorized XMark builds → BENCH_construction.json.

    The vectorized engine must reproduce the scalar merge decisions
    exactly, and at full bench scale must deliver at least a 2x
    end-to-end speedup over the pre-optimization scalar path.
    """
    context = experiment_context
    dataset_name = "xmark"
    reference = context.reference(dataset_name)
    budget = structural_size_bytes(reference) // 10

    scalar_seconds, scalar_stats, scalar_synopsis = _timed_build(
        context, dataset_name, budget, "scalar"
    )
    vector_seconds, vector_stats, vector_synopsis = _timed_build(
        context, dataset_name, budget, "vectorized"
    )

    speedup = scalar_seconds / vector_seconds if vector_seconds > 0 else 0.0

    def shape(synopsis):
        return (
            len(synopsis),
            structural_size_bytes(synopsis),
            sorted((n.label, n.value_type.value, n.count) for n in synopsis),
        )

    equivalent = (
        scalar_stats.merges_applied == vector_stats.merges_applied
        and shape(scalar_synopsis) == shape(vector_synopsis)
    )

    report = {
        "dataset": dataset_name,
        "scale": context.config.scale,
        "reference_nodes": len(reference),
        "structural_budget": budget,
        "scalar": _stats_record(scalar_seconds, scalar_stats),
        "vectorized": _stats_record(vector_seconds, vector_stats),
        "speedup": round(speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE,
        "equivalent": equivalent,
    }
    out_path = common.write_report(
        "construction", report, "BENCH_construction.json"
    )
    print(
        f"\nBENCH_construction: scalar {scalar_seconds:.2f}s, "
        f"vectorized {vector_seconds:.2f}s -> speedup {speedup:.2f}x ({out_path})"
    )

    assert equivalent, "vectorized build diverged from the scalar reference"
    if context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
