"""Estimation serving cost — scalar oracle vs. the compiled engine.

The paper's experiments (and every consumer in this repo: the Figure 8
sweeps, autobudget trials, negative-workload checks) estimate the same
workload against a synopsis over and over.  This bench measures that
serving pattern on XMark: a classified workload repeated
``WORKLOAD_REPEATS`` times against the reference synopsis and against a
budgeted build, on two paths — the scalar ``XClusterEstimator``
(reference oracle) and the compiled ``WorkloadEstimator``.  Parity is
checked to
1e-9 per query, cache hit rates are recorded, and the results land in
``BENCH_estimation.json`` (same report shape as
``BENCH_construction.json``).
"""

from time import perf_counter

import common
from repro.core.estimation import WorkloadEstimator
from repro.core.estimator import XClusterEstimator
from repro.core.sizing import structural_size_bytes

#: The single-process speedup the compiled engine must deliver on the
#: repeated workload at full bench scale; smoke-scale runs only check
#: parity and the report plumbing (fixed costs dominate there).
SPEEDUP_FLOOR = 2.0
SPEEDUP_ASSERT_MIN_SCALE = 0.3

#: Passes over the workload — the cross-query cache serving pattern.
WORKLOAD_REPEATS = 20

#: Per-query parity bound between scalar and compiled estimates.
PARITY = 1e-9


def _relative_difference(expected, actual):
    scale = max(abs(expected), abs(actual), 1.0)
    return abs(expected - actual) / scale


def _stats_record(seconds, stats):
    return {
        "seconds": round(seconds, 4),
        "queries_estimated": stats.queries_estimated,
        "plans_compiled": stats.plans_compiled,
        "plan_cache_hits": stats.plan_cache_hits,
        "plan_cache_hit_rate": round(stats.plan_cache_hit_rate, 4),
        "plan_compile_seconds": round(stats.plan_compile_seconds, 4),
        "execute_seconds": round(stats.execute_seconds, 4),
        "reach_cache_hits": stats.reach_cache_hits,
        "reach_cache_misses": stats.reach_cache_misses,
        "reach_cache_hit_rate": round(stats.reach_cache_hit_rate, 4),
        "transition_rows_built": stats.transition_rows_built,
        "descendant_closures_built": stats.descendant_closures_built,
        "selectivity_cache_hits": stats.selectivity_cache_hits,
        "selectivity_cache_misses": stats.selectivity_cache_misses,
        "selectivity_cache_hit_rate": round(stats.selectivity_cache_hit_rate, 4),
        "max_frontier_nodes": stats.max_frontier_nodes,
        "average_frontier_nodes": round(stats.average_frontier_nodes, 2),
    }


def _run_scalar(synopsis, queries):
    estimator = XClusterEstimator(synopsis)
    started = perf_counter()
    estimates = None
    for _ in range(WORKLOAD_REPEATS):
        estimates = [estimator.estimate(query) for query in queries]
    return perf_counter() - started, estimates


def _run_compiled(synopsis, queries):
    serving = WorkloadEstimator(queries)
    started = perf_counter()
    estimates = None
    for _ in range(WORKLOAD_REPEATS):
        estimates = serving.estimate_all(synopsis)
    return perf_counter() - started, estimates, serving.stats


def test_estimation_engine_speedup(experiment_context):
    """Scalar vs compiled XMark serving → BENCH_estimation.json.

    The compiled engine must match the scalar oracle to 1e-9 on every
    query, and at full bench scale must serve the repeated workload at
    least 2x faster single-process.
    """
    context = experiment_context
    dataset_name = "xmark"
    reference = context.reference(dataset_name)
    workload = context.workload(dataset_name)
    queries = [wq.query for wq in workload.queries]
    budgeted = context.build_at_fraction(dataset_name, 0.35)

    scalar_seconds, scalar_estimates = _run_scalar(reference, queries)
    compiled_seconds, compiled_estimates, compiled_stats = _run_compiled(
        reference, queries
    )

    parity_max = max(
        (
            _relative_difference(expected, actual)
            for expected, actual in zip(scalar_estimates, compiled_estimates)
        ),
        default=0.0,
    )
    equivalent = parity_max <= PARITY

    # The budgeted synopsis exercises merged (possibly cyclic) clusters.
    budgeted_scalar_seconds, budgeted_scalar = _run_scalar(budgeted, queries)
    budgeted_seconds, budgeted_estimates, budgeted_stats = _run_compiled(
        budgeted, queries
    )
    budgeted_parity = max(
        (
            _relative_difference(expected, actual)
            for expected, actual in zip(budgeted_scalar, budgeted_estimates)
        ),
        default=0.0,
    )
    equivalent = equivalent and budgeted_parity <= PARITY

    speedup = scalar_seconds / compiled_seconds if compiled_seconds > 0 else 0.0
    budgeted_speedup = (
        budgeted_scalar_seconds / budgeted_seconds if budgeted_seconds > 0 else 0.0
    )

    report = {
        "dataset": dataset_name,
        "scale": context.config.scale,
        "reference_nodes": len(reference),
        "budgeted_nodes": len(budgeted),
        "budgeted_structural_bytes": structural_size_bytes(budgeted),
        "queries": len(queries),
        "workload_repeats": WORKLOAD_REPEATS,
        "scalar": {"seconds": round(scalar_seconds, 4)},
        "compiled": _stats_record(compiled_seconds, compiled_stats),
        "budgeted_scalar": {"seconds": round(budgeted_scalar_seconds, 4)},
        "budgeted_compiled": _stats_record(budgeted_seconds, budgeted_stats),
        "speedup": round(speedup, 3),
        "budgeted_speedup": round(budgeted_speedup, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE,
        "parity_max_rel_diff": parity_max,
        "budgeted_parity_max_rel_diff": budgeted_parity,
        "equivalent": equivalent,
    }
    out_path = common.write_report("estimation", report, "BENCH_estimation.json")
    print(
        f"\nBENCH_estimation: scalar {scalar_seconds:.3f}s, "
        f"compiled {compiled_seconds:.3f}s -> speedup {speedup:.2f}x "
        f"(reach hit rate {compiled_stats.reach_cache_hit_rate:.2f}, {out_path})"
    )

    assert equivalent, (
        f"compiled estimates diverged from the scalar oracle "
        f"(max rel diff {max(parity_max, budgeted_parity):.2e})"
    )
    assert compiled_stats.reach_cache_hit_rate > 0.5, (
        "repeated workload should be served mostly from the reach cache"
    )
    if context.config.scale >= SPEEDUP_ASSERT_MIN_SCALE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"compiled speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
