#!/usr/bin/env python3
"""Diagnostics for a trained surrogate: calibration, coverage, and
search-baseline comparison.

Goes beyond the paper's evaluation with the tooling a practitioner
would want before trusting the model-driven DSE:

1. classifier probability calibration (expected calibration error);
2. per-kernel latency rank correlation (what top-M selection relies on);
3. database coverage per pragma knob;
4. ModelDSE vs the budgeted simulated-annealing strategy (the race's
   ``sa`` arm, model-guided) on the same kernel — and the rendered C
   source of the winning design.

Takes a few minutes (trains a small model).
Run:  python examples/surrogate_diagnostics.py
"""

from repro.designspace import build_design_space, render_point, render_source
from repro.dse import EvaluationPipeline, ModelDSE, run_race
from repro.explorer import generate_database, measure_coverage
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel
from repro.model import (
    GraphDatasetBuilder,
    TrainConfig,
    calibrate_classifier,
    profile_regression,
    train_predictor,
)

KERNEL = "atax"


def main() -> None:
    tool = MerlinHLSTool()
    print("generating a small database (atax, stencil, spmv-ellpack) ...")
    database = generate_database(
        kernels=["atax", "stencil", "spmv-ellpack"], scale=0.25, seed=0, tool=tool
    )
    print(f"  {database.stats()}\n")

    print("training an M7 surrogate (12 epochs) ...")
    predictor = train_predictor(
        database, "M7", train_config=TrainConfig(epochs=12, seed=0)
    )
    builder = GraphDatasetBuilder(database, normalizer=predictor.normalizer)
    samples = builder.build()

    print("\n--- classifier calibration ---")
    print(calibrate_classifier(predictor.classifier, samples).pretty())

    print("\n--- regression profile (valid designs) ---")
    valid = [s for s in samples if s.label == 1]
    print(profile_regression(predictor.regressor, valid).pretty())

    spec = get_kernel(KERNEL)
    space = build_design_space(spec)
    print("\n--- database coverage ---")
    print(measure_coverage(database, space).pretty())

    print("\n--- search comparison on", KERNEL, "---")
    dse = ModelDSE(predictor, spec, space, top_m=5)
    beam = dse.run(time_limit_seconds=60)

    annealed = run_race(
        EvaluationPipeline(predictor), spec, space, budget=400, seed=0,
        strategies=("sa",),
    )
    annealed_best = annealed.top[0].point if annealed.top else None

    def truth(point):
        result = tool.synthesize(spec, point)
        return result.latency if result.valid and result.fits(0.8) else None

    beam_best = min(
        (t for t in (truth(c.point) for c in beam.top) if t is not None),
        default=None,
    )
    sa_best = truth(annealed_best) if annealed_best else None
    print(f"ordered-beam ModelDSE: explored {beam.explored:,}, "
          f"best true latency {beam_best}")
    print(f"simulated annealing  : explored {annealed.queries:,}, "
          f"best true latency {sa_best}")

    winner = beam.top[0].point if beam.top else annealed_best
    if winner:
        print("\n--- winning design ---")
        print(render_point(spec, winner))
        print("\n--- rendered source ---")
        print(render_source(spec, winner))


if __name__ == "__main__":
    main()
