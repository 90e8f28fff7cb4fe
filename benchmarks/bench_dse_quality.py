"""Search-quality gate: Pareto hypervolume per query budget, race vs SA.

For each kernel two searchers spend the **same** surrogate-query budget
(distinct design points; memo revisits are free):

- ``sa``:   the simulated-annealing baseline, running alone under the
  whole budget through the shared :class:`BudgetedEvaluator`;
- ``race``: the UCB strategy racer (sa + greedy + rl + random arms,
  one shared frontier, bandit budget reallocation).

Quality is the **normalised hypervolume** of the resulting Pareto
front over the five minimised objectives (latency, DSP, BRAM, LUT,
FF), measured under reference bounds computed from the *union* of both
fronts — the standard scale-free way to compare two searches.  The
headline metric is hypervolume per 1k queries, so runs at different
budgets stay comparable.

Acceptance bar (``--smoke``, wired into ``make ci``): on fir,
spmv-ellpack, and gesummv the race hypervolume is >= the SA baseline
at the same budget, and a full second run reproduces every number and
every budget-ledger row bit-for-bit under the fixed seed.  The smoke
run also searches mvt (too large to sweep) twice with ``ModelDSE``'s
ordered beam and fails unless both runs return the same top-M, front,
query count and ``time_limited`` flag, and races fir under a 1 ms time
limit, which must come back ``time_limited`` with budget left.

Run standalone (no training, untrained weights)::

    python benchmarks/bench_dse_quality.py --smoke   # 3 kernels + mvt beam, ~1 min
    python benchmarks/bench_dse_quality.py           # all 16 kernels
"""

import argparse
import json
import os
import sys
import time

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from a source checkout, no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from bench_parallel_dse import _untrained_predictor

from repro.designspace import build_design_space, point_key
from repro.dse import (
    PARETO_KEYS,
    ModelDSE,
    normalized_hypervolume,
    reference_point,
    run_race,
)
from repro.dse.pipeline import EvaluationPipeline
from repro.kernels import get_kernel, list_kernels

SMOKE_KERNELS = ("fir", "spmv-ellpack", "gesummv")
BEAM_KERNEL = "mvt"  # too large to sweep, so ModelDSE runs the ordered beam
SEED = 2022  # the paper's year; fixed so every CI run is bit-identical


def _budget(space_size: int, smoke: bool) -> int:
    """Query budget scaled to the space: enough to search, not to sweep.

    Half the space, clamped — tiny spaces (fir: 97 points) stay a real
    search problem rather than an exhaustive enumeration, and huge
    spaces (atax: 5k+) stay affordable on a CI runner.
    """
    cap = 96 if smoke else 256
    return max(32, min(space_size // 2, cap))


def _front_objectives(result):
    return [c.prediction.objectives for c in result.pareto]


def bench_kernel(predictor, name: str, smoke: bool) -> dict:
    spec = get_kernel(name)
    space = build_design_space(spec)
    budget = _budget(space.size(), smoke)

    runs = {}
    for label, arms in (("sa", ("sa",)), ("race", None)):
        start = time.perf_counter()
        kwargs = {} if arms is None else {"strategies": arms}
        result = run_race(
            EvaluationPipeline(predictor), spec, space,
            budget=budget, seed=SEED, **kwargs,
        )
        runs[label] = {
            "result": result,
            "seconds": time.perf_counter() - start,
        }

    fronts = {label: _front_objectives(run["result"]) for label, run in runs.items()}
    bounds = reference_point(list(fronts.values()), PARETO_KEYS)
    row = {"kernel": name, "space": space.size(), "budget": budget}
    for label, run in runs.items():
        result = run["result"]
        hv = normalized_hypervolume(fronts[label], bounds, PARETO_KEYS)
        row[label] = {
            "hypervolume": hv,
            "hv_per_1k_queries": hv / (result.queries / 1000.0),
            "queries": result.queries,
            "pareto_points": len(result.pareto),
            "seconds": round(run["seconds"], 2),
        }
    row["race"]["ledger"] = runs["race"]["result"].ledger()
    row["race"]["arms"] = runs["race"]["result"].summary()["strategies"]
    return row


def _reproducibility_signature(row: dict) -> tuple:
    """Everything that must be bit-identical across reruns."""
    return (
        row["kernel"],
        row["budget"],
        row["sa"]["hypervolume"],
        row["race"]["hypervolume"],
        row["sa"]["pareto_points"],
        row["race"]["pareto_points"],
        tuple(tuple(sorted(r.items())) for r in row["race"]["ledger"]),
    )


def beam_signature(predictor) -> tuple:
    """One ordered-beam ModelDSE run, reduced to what must replay exactly."""
    spec = get_kernel(BEAM_KERNEL)
    space = build_design_space(spec)
    result = ModelDSE(
        predictor, spec, space, pipeline=EvaluationPipeline(predictor)
    ).run()
    assert not result.exhaustive
    return (
        [(point_key(c.point), c.predicted_latency) for c in result.top],
        [
            (point_key(c.point), sorted(c.prediction.objectives.items()))
            for c in result.pareto
        ],
        result.explored,
        result.time_limited,
    )


def cut_race(predictor):
    """A smoke-kernel race under a 1 ms limit: the clock must stop it."""
    spec = get_kernel(SMOKE_KERNELS[0])
    space = build_design_space(spec)
    return run_race(
        EvaluationPipeline(predictor), spec, space,
        budget=_budget(space.size(), smoke=True), seed=SEED, time_limit_seconds=0.001,
    )


def markdown_table(rows) -> str:
    lines = [
        "| kernel | space | budget | SA hv | race hv | SA hv/1kq | race hv/1kq | race arms (queries) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        arms = ", ".join(
            f"{name}:{totals['queries']}"
            for name, totals in row["race"]["arms"].items()
        )
        lines.append(
            "| {kernel} | {space} | {budget} | {sa:.4f} | {race:.4f} "
            "| {sa1k:.3f} | {race1k:.3f} | {arms} |".format(
                kernel=row["kernel"],
                space=row["space"],
                budget=row["budget"],
                sa=row["sa"]["hypervolume"],
                race=row["race"]["hypervolume"],
                sa1k=row["sa"]["hv_per_1k_queries"],
                race1k=row["race"]["hv_per_1k_queries"],
                arms=arms,
            )
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="3 small kernels + the race>=SA and bit-reproducibility "
             "assertions (the CI gate)",
    )
    parser.add_argument(
        "--kernels", nargs="*", default=None,
        help="restrict to these kernels (default: smoke trio or all 16)",
    )
    parser.add_argument("--output", metavar="FILE", help="write results JSON")
    parser.add_argument(
        "--markdown", metavar="FILE",
        help="write the comparison as a markdown table (step summaries)",
    )
    args = parser.parse_args()

    kernels = args.kernels or (list(SMOKE_KERNELS) if args.smoke else list_kernels())
    predictor = _untrained_predictor(SEED)

    rows = []
    failures = []
    for name in kernels:
        row = bench_kernel(predictor, name, args.smoke)
        rows.append(row)
        sa_hv, race_hv = row["sa"]["hypervolume"], row["race"]["hypervolume"]
        verdict = "ok" if race_hv >= sa_hv else "REGRESSION"
        print(
            f"{name:14s} space {row['space']:>6,}  budget {row['budget']:>4}  "
            f"sa {sa_hv:.4f}  race {race_hv:.4f}  [{verdict}]"
        )
        if args.smoke and race_hv < sa_hv:
            failures.append(
                f"{name}: race hypervolume {race_hv:.6f} < SA baseline {sa_hv:.6f}"
            )

    if args.smoke:
        # Bit-reproducibility: the full comparison must replay identically.
        print("re-running for bit-reproducibility...")
        for row in rows:
            replay = bench_kernel(predictor, row["kernel"], args.smoke)
            if _reproducibility_signature(replay) != _reproducibility_signature(row):
                failures.append(f"{row['kernel']}: rerun did not reproduce bit-for-bit")
            else:
                print(f"{row['kernel']:14s} reproduced bit-for-bit")
        # The ordered beam must stop where the search says, not the clock.
        first, second = beam_signature(predictor), beam_signature(predictor)
        if first != second:
            failures.append(
                f"{BEAM_KERNEL} beam: rerun changed top, pareto, explored or time_limited"
            )
        else:
            print(
                f"{BEAM_KERNEL:14s} beam reproduced bit-for-bit "
                f"({first[2]} queries, {len(first[1])} on the front)"
            )
        # The time limit caps a race as it caps the beam.
        cut = cut_race(predictor)
        if not cut.time_limited or cut.queries >= cut.budget:
            failures.append(
                f"{cut.kernel} race under a 1 ms limit ran on: time_limited="
                f"{cut.time_limited}, {cut.queries}/{cut.budget} queries"
            )
        else:
            print(
                f"{cut.kernel:14s} race cut by a 1 ms limit "
                f"({cut.queries}/{cut.budget} queries)"
            )

    table = markdown_table(rows)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write("### DSE search quality (hypervolume per budget)\n\n")
            handle.write(table + "\n")
        print(f"wrote {args.markdown}")
    if args.output:
        payload = {
            "seed": SEED,
            "smoke": args.smoke,
            "rows": rows,
            "failures": failures,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.output}")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nall checks passed" if args.smoke else "\ndone")
    return 0


if __name__ == "__main__":
    sys.exit(main())
