#!/usr/bin/env python3
"""Predicted Pareto frontier of a kernel (Problem 2 of the paper).

Uses the cached experiment predictor (trained on first use) and
:class:`~repro.dse.ModelDSE` to sweep a kernel's design space once,
returning both the latency top-10 and the exact predicted Pareto
frontier, then verifies the fastest frontier designs with the
(simulated) HLS tool and renders the trade-off as an ASCII scatter.

Run:  python examples/pareto_frontier.py
"""

import numpy as np

from repro.analysis import ascii_scatter
from repro.designspace import build_design_space, render_point
from repro.dse import ModelDSE
from repro.experiments import default_context
from repro.kernels import get_kernel

KERNEL = "stencil"
#: Frontier designs verified and printed; stencil's exact front has
#: hundreds of members.
SHOWN = 32


def main() -> None:
    ctx = default_context()
    print("loading / training the M7 predictor (cached after first run) ...")
    predictor = ctx.predictor("M7")

    spec = get_kernel(KERNEL)
    space = build_design_space(spec)
    print(f"\nkernel: {spec.name} — {spec.description}")
    print(f"design space: {space.size():,} configurations\n")

    result = ModelDSE(predictor, spec, space, top_m=10).run(time_limit_seconds=180)
    frontier = sorted(result.pareto, key=lambda c: c.predicted_latency)[:SHOWN]
    print(
        f"explored {result.explored:,} configurations in {result.seconds:.1f}s; "
        f"predicted frontier has {len(result.pareto)} designs "
        f"(showing the {len(frontier)} fastest)\n"
    )

    print(f"{'#':>3s} {'pred latency':>13s} {'pred DSP':>9s} "
          f"{'true latency':>13s} {'true DSP':>9s} {'valid':>6s}")
    verified = []
    for i, candidate in enumerate(frontier):
        hls = ctx.tool.synthesize(spec, candidate.point)
        verified.append((hls.latency, hls.utilization["DSP"], hls.valid))
        print(
            f"{i:3d} {candidate.predicted_latency:13,.0f} "
            f"{candidate.prediction.objectives['DSP']:9.3f} "
            f"{hls.latency:13,} {hls.utilization['DSP']:9.3f} {str(hls.valid):>6s}"
        )

    usable = [(lat, dsp) for lat, dsp, ok in verified if ok]
    if len(usable) >= 3:
        points = np.array(
            [[np.log2(max(lat, 1)), dsp] for lat, dsp in usable]
        )
        print("\ntrue latency (log2, x) vs DSP utilization (y):")
        print(ascii_scatter(points, width=56, height=14))

    if frontier:
        print("\nfastest predicted design:")
        print(render_point(spec, frontier[0].point))


if __name__ == "__main__":
    main()
