"""HTTP model server for the serve-* workloads, in its own process.

Boots ``PredictorService`` with the ``repro serve`` defaults (batch 16,
5 ms flush, queue 1024, one worker) behind ``start_server`` on an
ephemeral port and prints ``{"port": N}``.  It then reads commands on
stdin, answering each with one JSON line:

- ``reset`` starts the measured window;
- ``stop`` (or end of input) shuts the server down and reports the
  engine, peak RSS, pipeline counters over the window and, with
  ``--trace 1``, the spans of the timed layers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.use_checkout_sources()

    tracer = harness.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        if tracer:
            harness.install_layers(tracer, harness.SERVER_LAYERS)
        from repro.serve import PredictorService, start_server

        service = PredictorService(harness.untrained_predictor())
        server = start_server(service)
        emit({"port": server.server_address[1]})
        before, mark, rss_at_reset = None, 0, 0.0
        try:
            for line in sys.stdin:
                command = line.strip()
                if command == "reset":
                    before = service.pipeline.stats_snapshot()
                    mark = tracer.mark() if tracer else 0
                    rss_at_reset = harness.peak_rss_mb()
                    emit({})
                elif command == "stop":
                    break
        finally:
            server.stop()
        stats = service.pipeline.stats_snapshot()
        report = {
            "engine": stats.engine,
            "peak_rss_mb": harness.peak_rss_mb(),
            "rss_at_reset_mb": rss_at_reset,
            "stats": (stats - before if before else stats).to_dict(),
            "mark": mark,
        }
        if tracer:
            report["trace"] = tracer.export()
    emit(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
