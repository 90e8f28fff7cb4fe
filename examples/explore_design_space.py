#!/usr/bin/env python3
"""HLS-in-the-loop exploration (no ML): AutoDSE-style explorers on atax.

Compares the three database-generation explorers of Section 4.1 —
bottleneck-based, hybrid (bottleneck + local search), and random — on
the same evaluation budget, then prints the Pareto frontier of all
evaluated designs.  Each explorer is a budgeted search strategy
stepped by the same racer the surrogate-driven DSE uses; here the HLS
tool scores every point.  This is the "slow path" GNN-DSE exists to
replace: note the simulated tool-hours each explorer consumes.

Run:  python examples/explore_design_space.py
"""

from repro.designspace import build_design_space
from repro.dse import BudgetedEvaluator, QueryBudget, StrategyRacer, pareto_front
from repro.explorer import Database, Evaluator
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel

BUDGET = 60  # evaluations per explorer


def main() -> None:
    spec = get_kernel("atax")
    space = build_design_space(spec)
    tool = MerlinHLSTool()
    print(f"kernel: {spec.name} — {spec.description}")
    print(f"design space: {len(space)} knobs, {space.size():,} configurations\n")

    baseline = tool.baseline(spec)
    print(f"unoptimised design: {baseline.latency:,} cycles\n")

    database = Database()
    for name in ("bottleneck", "hybrid", "random"):
        evaluator = Evaluator(tool, database, parallelism=8)
        evaluator.source = name  # the tag its records carry
        search = BudgetedEvaluator(evaluator, spec, space, QueryBudget(BUDGET))
        result = StrategyRacer(search, [name]).run()
        best_latency = result.top[0].prediction.latency if result.top else None
        best = f"{best_latency:,}" if best_latency else "none found"
        speedup = f"{baseline.latency / best_latency:.1f}x" if best_latency else "-"
        print(
            f"{name:10s}: {result.queries:3d} evals, "
            f"{evaluator.elapsed_hours:5.1f} simulated tool-hours, "
            f"best latency {best} ({speedup} vs unoptimised)"
        )

    stats = database.stats(kernel=spec.name)
    print(f"\ndatabase: {stats['total']} designs, {stats['valid']} valid")

    valid = database.valid_records(spec.name)
    front = pareto_front(valid, lambda r: r.objectives())
    front.sort(key=lambda r: r.latency)
    print(f"\nPareto frontier ({len(front)} designs):")
    print(f"{'latency':>10s} {'DSP':>6s} {'BRAM':>6s} {'LUT':>6s} {'FF':>6s}  source")
    for record in front[:12]:
        u = record.utilization
        print(
            f"{record.latency:10,} {u['DSP']:6.2f} {u['BRAM']:6.2f} "
            f"{u['LUT']:6.2f} {u['FF']:6.2f}  {record.source}"
        )


if __name__ == "__main__":
    main()
