"""Run every reproduced table and figure and collect the results.

``run_all_experiments`` is the entry point used by ``examples/full_evaluation.py``
and by the EXPERIMENTS.md generation; each experiment can also be run on its
own through the functions re-exported from :mod:`repro.experiments`.

When the scale requests worker processes (``ExperimentScale.workers > 1``),
the campaign-driven experiments share one persistent
:class:`~repro.injection.pool.CampaignPool` per worker count (see
:func:`repro.experiments.common.campaign_pool`), so a sweep's back-to-back
campaigns stop paying the per-campaign pool spawn and worker-side
model/golden-cache rebuild.  Results are bit-identical with and without
the pool.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from .adaptive_experiments import run_adaptive_efficiency
from .common import (ExperimentResult, ExperimentScale, artifact_store,
                     campaign_pool_stats)
from .comparison_experiments import (
    run_fig8_hong_comparison,
    run_table6_technique_comparison,
)
from .overhead_experiments import (
    run_memory_overhead,
    run_table2_accuracy,
    run_table3_insertion_time,
    run_table4_flops_overhead,
)
from .profiling_experiments import run_fig4_bound_convergence
from .sdc_experiments import (
    run_fig6_classifier_sdc,
    run_fig7_steering_sdc,
    run_fig9_fixed16_sdc,
    run_fig11_multibit_classifiers,
    run_fig12_multibit_steering,
)
from .throughput_experiments import run_campaign_throughput, run_parallel_scaling
from .tradeoff_experiments import (
    run_fig10_bound_tradeoff,
    run_sec6c_design_alternatives,
)

#: Registry of every experiment, in paper order.
EXPERIMENT_REGISTRY: Dict[str, Callable[[ExperimentScale], ExperimentResult]] = {
    "fig4_bound_convergence": run_fig4_bound_convergence,
    "fig6_classifier_sdc": run_fig6_classifier_sdc,
    "fig7_steering_sdc": run_fig7_steering_sdc,
    "fig8_hong_comparison": run_fig8_hong_comparison,
    "fig9_fixed16_sdc": run_fig9_fixed16_sdc,
    "fig10_bound_tradeoff": run_fig10_bound_tradeoff,
    "fig11_multibit_classifiers": run_fig11_multibit_classifiers,
    "fig12_multibit_steering": run_fig12_multibit_steering,
    "table2_accuracy": run_table2_accuracy,
    "table3_insertion_time": run_table3_insertion_time,
    "table4_flops_overhead": run_table4_flops_overhead,
    "table6_technique_comparison": run_table6_technique_comparison,
    "memory_overhead": run_memory_overhead,
    "sec6c_design_alternatives": run_sec6c_design_alternatives,
    "campaign_throughput": run_campaign_throughput,
    "parallel_scaling": run_parallel_scaling,
    "adaptive_efficiency": run_adaptive_efficiency,
}


def run_all_experiments(scale: Optional[ExperimentScale] = None,
                        only: Optional[Sequence[str]] = None,
                        verbose: bool = True) -> List[ExperimentResult]:
    """Run the registered experiments and return their results in order."""
    scale = scale or ExperimentScale()
    names = list(only) if only else list(EXPERIMENT_REGISTRY)
    unknown = [n for n in names if n not in EXPERIMENT_REGISTRY]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")
    results: List[ExperimentResult] = []
    for name in names:
        start = time.perf_counter()
        result = EXPERIMENT_REGISTRY[name](scale)
        elapsed = time.perf_counter() - start
        if verbose:
            print(f"[{elapsed:7.1f}s] {result.name} ({result.paper_reference})")
            print(result.rendered)
            print()
        results.append(result)
    if verbose:
        # Cross-experiment artifact reuse (results / golden caches /
        # Ranger profiles served by the process-wide store).
        stats = artifact_store().stats()
        if stats:
            print("artifact store:", ", ".join(
                f"{kind}: {s['hits']} hits / {s['misses']} misses"
                for kind, s in stats.items()))
        # Worker-side campaign-cache reuse and spec-resend payload of the
        # persistent pools (one line per worker count).
        for workers, pool_stats in campaign_pool_stats().items():
            print(f"campaign pool ({workers} workers): "
                  f"{pool_stats['hits']} hits / {pool_stats['misses']} "
                  f"misses over {pool_stats['tasks']} tasks, "
                  f"{pool_stats['payload_bytes']} spec bytes resent")
    return results


def results_to_markdown(results: Sequence[ExperimentResult],
                        title: str = "Reproduced results") -> str:
    """Format experiment results as a markdown report."""
    lines = [f"# {title}", ""]
    for result in results:
        lines.append(f"## {result.paper_reference} — {result.name}")
        lines.append("")
        lines.append("```")
        lines.append(result.rendered)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
