#!/usr/bin/env python3
"""End-to-end GNN-DSE on an *unseen* kernel (the Table 3 scenario).

Uses the shared experiment context (cached database + trained M7
predictor — the first run trains it, later runs load it from
``.repro_cache/``), then optimises Polybench's ``gesummv``, which never
appears in the training database:

1. model-driven DSE sweeps the kernel's design space in seconds;
2. the top-10 predicted designs are synthesised with the HLS tool;
3. the result is compared against AutoDSE running the HLS tool in the
   loop for (simulated) hours.

Run:  python examples/optimize_unseen_kernel.py
"""

from repro.designspace import build_design_space
from repro.dse import BudgetedEvaluator, ModelDSE, QueryBudget, StrategyRacer
from repro.experiments import default_context
from repro.explorer import Database, Evaluator
from repro.kernels import get_kernel

KERNEL = "gesummv"


def main() -> None:
    ctx = default_context()
    print("loading / training the M7 predictor (cached after first run) ...")
    predictor = ctx.predictor("M7")

    spec = get_kernel(KERNEL)
    space = build_design_space(spec)
    print(f"\nkernel: {spec.name} — {spec.description}")
    print(f"design space: {space.size():,} configurations "
          f"(unseen: not in the training database)\n")

    baseline = ctx.tool.baseline(spec)
    print(f"unoptimised: {baseline.latency:,} cycles")

    dse = ModelDSE(predictor, spec, space, top_m=10)
    result = dse.run(time_limit_seconds=300)
    print(
        f"model-driven DSE: explored {result.explored:,} configs in "
        f"{result.seconds:.1f}s ({result.predictions_per_second:.0f} inferences/s)"
    )

    best_latency = None
    max_synth = 0.0
    for rank, candidate in enumerate(result.top):
        hls = ctx.tool.synthesize(spec, candidate.point)
        max_synth = max(max_synth, hls.synth_seconds)
        marker = ""
        if hls.valid and hls.fits(0.8):
            if best_latency is None or hls.latency < best_latency:
                best_latency = hls.latency
                marker = "  <-- best so far"
        print(
            f"  top-{rank + 1:02d}: predicted {candidate.predicted_latency:>10,.0f} "
            f"true {hls.latency:>10,} valid={hls.valid}{marker}"
        )
    gnn_minutes = (result.seconds + max_synth) / 60.0
    print(f"\nGNN-DSE total: {gnn_minutes:.1f} min "
          f"(DSE + top-10 synthesised in parallel)")
    if best_latency:
        print(f"best design: {best_latency:,} cycles "
              f"({baseline.latency / best_latency:.0f}x vs unoptimised)")

    print("\nAutoDSE baseline (HLS in the loop) ...")
    evaluator = Evaluator(ctx.tool, Database(), parallelism=8)
    budget = QueryBudget(163, max_hours=21.0)
    search = BudgetedEvaluator(evaluator, spec, space, budget)
    autodse = StrategyRacer(search, ["bottleneck"]).run()
    autodse_latency = autodse.top[0].prediction.latency if autodse.top else None
    autodse_hours = evaluator.elapsed_hours
    print(
        f"AutoDSE: {autodse.queries} designs in "
        f"{autodse_hours:.1f} simulated hours, "
        f"best {autodse_latency:,} cycles"
    )
    if best_latency and autodse_latency:
        speedup = autodse_hours * 60.0 / gnn_minutes
        quality = (autodse_latency - best_latency) / autodse_latency * 100
        print(
            f"\n=> GNN-DSE is {speedup:.0f}x faster with {quality:+.1f}% "
            f"latency difference (paper: 11-79x faster, -2%..+5% quality)"
        )


if __name__ == "__main__":
    main()
