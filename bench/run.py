"""Run the repository benchmark; print every metric by name and unit.

    python3 bench/run.py --workload dse-sweep --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --seed 3 --smoke --out bench/out/smoke.json

Workloads run one after another; ``--workload`` may be repeated and
defaults to all four.  An untraced run (``--trace 0``) reports the
end-to-end metrics.  It splits the window over ``SHARDS`` fresh worker
processes (``bench/workloads.py``) run in turn, each setting up anew
and measuring its share, and reports the median of each metric over
them, set-up time included: one process that happens to run slow
cannot move the result.  A traced run (``--trace 1``) measures the
whole window in one process, reports the per-layer metrics and writes
``bench/out/<workload>.trace.json``.  ``--smoke`` runs each workload
once for 3 s, so all four finish in under a minute, with the same
checks.

After each workload's table comes one JSON line,
``{"correct", "attempted", "failed", "metrics"}``; the last line of
standard output is the result of the last workload.  ``--out`` also
writes every result with its per-shard values, counts, problems and
provenance.  The exit code is non-zero when any workload produced no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

WORKLOADS = ("dse-sweep", "dse-race", "serve-cold", "serve-hot")
#: Equal to ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 15
SMOKE_SECONDS = 3
SHARDS = 3
SETUP_TIMEOUT = 60.0
#: Time a worker may take beyond its window: checks, shutdown, and an
#: operation that started just before the deadline.
RUN_GRACE = 100.0


class WorkerFailed(RuntimeError):
    """A worker process timed out, crashed or printed no result."""


def run_worker(argv: List[str], seconds: float) -> Tuple[float, dict]:
    """Start one worker; return its set-up time and its result.

    Set-up time runs from just before the process is spawned until it
    prints ``READY``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "workloads.py"), *argv],
        stdout=subprocess.PIPE, cwd=harness.ROOT, bufsize=0,
    )
    output = b""
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            deadline = time.monotonic() + SETUP_TIMEOUT
            while b"READY\n" not in output:
                if not selector.select(max(deadline - time.monotonic(), 0.0)):
                    raise WorkerFailed("set-up timed out")
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    raise WorkerFailed("worker exited during set-up")
                output += chunk
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=seconds + RUN_GRACE)
        output += rest
    except subprocess.TimeoutExpired:
        raise WorkerFailed("run timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    try:
        return setup_s, json.loads(output.decode().splitlines()[-1])
    except (ValueError, IndexError):
        raise WorkerFailed("worker printed no result") from None


def run_workload(name: str, args) -> Tuple[dict, dict]:
    """The result line and the details of one workload."""
    shards = 1 if args.trace or args.smoke else SHARDS
    seconds = args.seconds / shards
    argv = ["--workload", name, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    runs = [run_worker(argv + ["--shard", str(k)], seconds) for k in range(shards)]
    results = [result for _, result in runs]
    shard_values = [dict(result["metrics"], setup_s=setup_s) for setup_s, result in runs]
    table = harness.PER_LAYER if args.trace else harness.END_TO_END
    tally = {k: sum(r["tally"][k] for r in results) for k in results[0]["tally"]}
    problems = [p for r in results for p in r["problems"]]
    line = {
        "correct": tally["failed"] == 0 and not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            m: {"value": statistics.median(v.get(m, 0.0) for v in shard_values), "unit": u}
            for m, u in table.items()
        },
    }
    details = {
        "shards": shard_values,
        "tally": tally,
        "problems": problems,
        "absent": sorted({a for r in results for a in r["absent"]}),
        "stamp": results[-1]["stamp"],
    }
    return line, details


def print_workload(name: str, line: dict, details: dict) -> None:
    for metric, entry in line["metrics"].items():
        print(f"{name:11s} {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    tally = details["tally"]
    print(f"{name:11s} attempted={tally['attempted']} succeeded={tally['succeeded']} "
          f"failed={tally['failed']} shed={tally['shed']} "
          f"setup_s per shard={[round(v['setup_s'], 3) for v in details['shards']]}")
    print(f"{name:11s} stamp {json.dumps(details['stamp'], sort_keys=True)}")
    for problem in details["problems"]:
        print(f"{name:11s} FAILED CHECK {problem}")
    if details["absent"]:
        print(f"{name:11s} absent layers (target no longer exists): {details['absent']}")
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window per workload (default {DEFAULT_SECONDS}, "
                             f"{SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 (or bare --trace): traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="reduced sizes for a CI gate")
    parser.add_argument("--out", type=Path, default=None, help="write all results as JSON")
    args = parser.parse_args(argv)
    if args.smoke and args.trace:
        parser.error("--smoke runs untraced: a 3 s serve window is too short for the traced p90")
    harness.use_checkout_sources()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS

    status = 0
    report = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "workloads": {}}
    for name in args.workload or WORKLOADS:
        try:
            line, details = run_workload(name, args)
        except WorkerFailed as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        report["workloads"][name] = {"result": line, **details}
        print_workload(name, line, details)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
