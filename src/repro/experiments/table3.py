"""Table 3: GNN-DSE on unseen kernels vs the AutoDSE baseline.

The predictor is trained only on the nine training kernels; bicg,
doitgen, gesummv, and 2mm never appear in its database.  For each
unseen kernel:

* **GNN-DSE**: model-driven DSE (exhaustive where feasible, one-hour
  heuristic for 2mm's ~10⁸ space), then the top-10 designs are
  synthesised in parallel with the (simulated) HLS tool.  Runtime =
  DSE wall-clock + the longest of the 10 parallel synthesis jobs.
* **AutoDSE**: the bottleneck search
  (:class:`~repro.dse.strategies.BottleneckStrategy`) with the HLS tool
  scoring each point, under a budget of 163 designs or 21 simulated
  hours with 8 parallel workers.

Reported: #pragmas, #configs, DSE+HLS runtime in minutes, #explored,
runtime speedup over AutoDSE, and the achieved-latency ratio (the paper
reports −2%..+5% of AutoDSE's quality, mean +1%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..designspace.generator import build_design_space
from ..dse import BudgetedEvaluator, ModelDSE, QueryBudget, StrategyRacer
from ..explorer.database import Database
from ..explorer.evaluator import Evaluator
from ..kernels import UNSEEN_KERNELS, get_kernel
from .context import ExperimentContext, default_context

__all__ = ["Table3Row", "run_table3", "format_table3", "TABLE3_PAPER"]

#: Paper numbers: (#pragmas, #configs, DSE+HLS minutes, #explored, speedup).
TABLE3_PAPER = {
    "bicg": (5, 3_536, 18, 3_536, 69),
    "doitgen": (6, 179, 16, 179, 11),
    "gesummv": (4, 1_581, 16, 1_581, 79),
    "2mm": (14, 492_787_501, 74, 78_676, 17),
}


@dataclass
class Table3Row:
    kernel: str
    num_pragmas: int
    design_configs: int
    dse_hls_minutes: float
    explored: int
    runtime_speedup: float
    gnn_dse_latency: Optional[int]
    autodse_latency: Optional[int]
    autodse_hours: float
    latency_ratio: float  # gnn_dse / autodse (1.0 = parity; lower = better)


def run_table3(
    ctx: Optional[ExperimentContext] = None,
    kernels: Sequence[str] = tuple(UNSEEN_KERNELS),
    top_m: int = 10,
    autodse_max_hours: float = 21.0,
    autodse_max_evals: int = 163,
    dse_time_limit: float = 3600.0,
    fit_threshold: float = 0.8,
    use_cache: bool = True,
) -> List[Table3Row]:
    """Run the unseen-kernel comparison (Section 5.4).

    Results are cached per context (see ``run_table2``); pass
    ``use_cache=False`` to force recomputation.
    """
    from dataclasses import asdict

    ctx = ctx or default_context()
    if use_cache:
        cached = ctx.load_result("table3")
        if cached and {r["kernel"] for r in cached} >= set(kernels):
            by_kernel = {r["kernel"]: r for r in cached}
            return [Table3Row(**by_kernel[name]) for name in kernels]
    predictor = ctx.predictor("M7")
    rows: List[Table3Row] = []
    for name in kernels:
        spec = get_kernel(name)
        space = build_design_space(spec)

        # --- GNN-DSE: model search + parallel HLS of the top designs.
        # The top-M jobs run in parallel; the design is in hand when its
        # own job completes, so runtime-to-best counts the slowest *valid*
        # job of the evaluated batch(es) — a timed-out straggler does not
        # block obtaining the already-finished best design.  If a batch
        # yields nothing usable, the flow evaluates the next batch of
        # predictions (up to three batches), paying each batch's cost.
        dse = ModelDSE(
            predictor, spec, space, fit_threshold=fit_threshold, top_m=top_m * 3
        )
        result = dse.run(time_limit_seconds=dse_time_limit)
        synth_seconds = 0.0
        best_latency: Optional[int] = None
        for batch_start in range(0, len(result.top), top_m):
            batch = result.top[batch_start : batch_start + top_m]
            if not batch:
                break
            valid_seconds = []
            batch_max = 0.0
            for candidate in batch:
                hls = ctx.tool.synthesize(spec, candidate.point)
                batch_max = max(batch_max, hls.synth_seconds)
                if hls.valid and hls.fits(fit_threshold):
                    valid_seconds.append(hls.synth_seconds)
                    latency = hls.latency
                    best_latency = (
                        latency if best_latency is None else min(best_latency, latency)
                    )
            synth_seconds += max(valid_seconds) if valid_seconds else batch_max
            if best_latency is not None:
                break
        gnn_dse_seconds = result.seconds + synth_seconds

        # --- AutoDSE baseline: HLS in the loop for up to 21 hours.
        evaluator = Evaluator(ctx.tool, Database(), parallelism=8)
        budget = QueryBudget(autodse_max_evals, max_hours=autodse_max_hours)
        search = BudgetedEvaluator(
            evaluator, spec, space, budget, fit_threshold=fit_threshold
        )
        autodse = StrategyRacer(search, ["bottleneck"], seed=ctx.seed).run()
        autodse_latency = autodse.top[0].prediction.latency if autodse.top else None
        autodse_seconds = min(evaluator.elapsed_hours, autodse_max_hours) * 3600.0

        speedup = autodse_seconds / gnn_dse_seconds if gnn_dse_seconds > 0 else 0.0
        ratio = (
            best_latency / autodse_latency
            if best_latency is not None and autodse_latency
            else float("inf")
        )
        rows.append(
            Table3Row(
                kernel=name,
                num_pragmas=len(spec.pragmas),
                design_configs=space.size(),
                dse_hls_minutes=gnn_dse_seconds / 60.0,
                explored=result.explored,
                runtime_speedup=speedup,
                gnn_dse_latency=best_latency,
                autodse_latency=autodse_latency,
                autodse_hours=evaluator.elapsed_hours,
                latency_ratio=ratio if ratio != float("inf") else 999.0,
            )
        )
    if use_cache:
        ctx.save_result("table3", [asdict(r) for r in rows])
    return rows


def format_table3(rows: List[Table3Row]) -> str:
    header = (
        f"{'Kernel':10s} {'#pragma':>7s} {'#configs':>12s} {'DSE+HLS(m)':>10s} "
        f"{'#explored':>9s} {'speedup':>8s} {'lat ratio':>9s}  (paper: m / explored / speedup)"
    )
    lines = [header, "-" * len(header)]
    speedups = []
    for row in rows:
        paper = TABLE3_PAPER.get(row.kernel)
        paper_txt = f"{paper[2]}m / {paper[3]:,} / {paper[4]}x" if paper else "-"
        lines.append(
            f"{row.kernel:10s} {row.num_pragmas:7d} {row.design_configs:12,d} "
            f"{row.dse_hls_minutes:10.1f} {row.explored:9,d} {row.runtime_speedup:7.1f}x "
            f"{row.latency_ratio:9.3f}  ({paper_txt})"
        )
        if row.runtime_speedup > 0:
            speedups.append(row.runtime_speedup)
    if speedups:
        lines.append(
            f"average runtime speedup: {sum(speedups) / len(speedups):.1f}x "
            f"(paper: 48x average, 11-79x range)"
        )
    return "\n".join(lines)
