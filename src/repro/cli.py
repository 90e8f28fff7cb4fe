"""Command-line interface: ``python -m repro <command>``.

Commands mirror the three operating modes of Fig. 1(a) plus utilities:

- ``kernels``     — list registered kernels and their design spaces;
- ``synthesize``  — run the simulated Merlin+HLS flow on one design point;
- ``database``    — generate a training database with the explorers;
- ``train``       — train a predictor stack on a database and save it
  as a versioned artifact directory;
- ``dse``         — model-driven DSE on a kernel (with a trained artifact);
- ``serve``       — serve predictions from an artifact (or registry) over HTTP;
- ``loop``        — closed-loop active learning: DSE → HLS labels →
  fine-tune → publish to a registry (→ hot-swap a live server);
- ``artifacts``   — verify a model registry or a single artifact;
- ``autodse``     — run AutoDSE's bottleneck search with the HLS tool in the loop;
- ``experiment``  — regenerate one paper table/figure.

Examples::

    python -m repro kernels
    python -m repro synthesize -k gemm-ncubed -s __PARA__L2=8 -s __PIPE__L2=cg
    python -m repro database -o db.json --scale 0.2
    python -m repro train -d db.json -o artifact/ --epochs 12
    python -m repro dse -k gesummv --model artifact/ --output top.json
    python -m repro serve --model artifact/ --port 8080
    python -m repro loop -d db.json -p artifact/ --registry registry/ \
        --kernels bicg gesummv 2mm --rounds 3 --serve-url http://127.0.0.1:8080
    python -m repro artifacts artifact/
    python -m repro artifacts registry/
    python -m repro experiment table1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .designspace import build_design_space
from .errors import ReproError
from .frontend.pragmas import PipelineOption
from .hls import MerlinHLSTool
from .kernels import get_kernel, list_kernels

__all__ = ["main", "build_parser"]


def _parse_setting(text: str):
    """Parse one ``NAME=value`` pragma setting from the command line."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=value, got {text!r}")
    name, raw = text.split("=", 1)
    if raw in ("off", "cg", "fg"):
        return name, PipelineOption(raw)
    try:
        return name, int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad pragma value {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    from .dse import STRATEGIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNN-DSE reproduction (DAC 2022) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernels", help="list registered kernels")
    p.add_argument("--sizes", action="store_true", help="compute design-space sizes")

    sub.add_parser("devices", help="list the device registry")

    p = sub.add_parser("synthesize", help="evaluate one design point with the HLS simulator")
    p.add_argument("-k", "--kernel", required=True)
    p.add_argument(
        "-s", "--set", dest="settings", action="append", type=_parse_setting,
        default=[], metavar="NAME=VALUE", help="pragma setting (repeatable)",
    )
    p.add_argument("--device", default=None,
                   help="target device from the registry (see `repro devices`)")
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("database", help="generate a training database")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernels", nargs="*", default=None)

    p = sub.add_parser("train", help="train a predictor stack on a database")
    p.add_argument("-d", "--database", required=True)
    p.add_argument("-o", "--output", required=True, help="artifact directory to write")
    p.add_argument("--model", default="M7", help="model config (M1-M7)")
    p.add_argument("--epochs", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="enable tracing and write per-epoch spans as trace JSON")

    p = sub.add_parser("dse", help="model-driven DSE on one kernel")
    p.add_argument("-k", "--kernel", required=True)
    p.add_argument("--model", default=None,
                   help="artifact directory written by `repro train`")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--device", default=None,
                   help="target device from the registry (see `repro devices`); "
                        "FPGA targets use the trained surrogate when one is "
                        "given, CGRA targets the analytic evaluator")
    p.add_argument("--all-devices", action="store_true",
                   help="one DSE per registered device, plus the merged "
                        "device-annotated cross-device Pareto front")
    p.add_argument(
        "--strategy", default="beam", choices=STRATEGIES,
        help="search strategy: 'beam' is the exhaustive/ordered-beam "
             "ModelDSE; the others are budgeted searchers — 'race' "
             "runs sa/greedy/rl/random under one shared query budget "
             "with UCB reallocation",
    )
    p.add_argument("--budget", type=int, default=1000,
                   help="surrogate query budget for budgeted strategies "
                        "(distinct design points; memo revisits are free)")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for budgeted strategies (bit-reproducible)")
    p.add_argument("--batch-size", type=int, default=24,
                   help="evaluation pipeline batch size")
    p.add_argument("--engine", choices=["auto", "compiled", "reference"],
                   default="auto", help="surrogate inference engine")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the pipeline's per-point prediction cache")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the sharded parallel orchestrator "
                        "(1 = plain serial search; results are bit-identical)")
    p.add_argument("--checkpoint", metavar="FILE", default=None,
                   help="JSON journal of completed shards, rewritten atomically "
                        "as the run progresses")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint, skipping completed shards")
    p.add_argument("--shard-size", type=int, default=None,
                   help="design points per shard (default: space split into "
                        "workers x 4 shards)")
    p.add_argument("--evaluate", action="store_true", help="synthesize the top designs")
    p.add_argument(
        "--output", metavar="FILE",
        help="dump the top-k points, predictions, and pipeline stats as "
             "JSON (same schema as the server's /v1/dse/top endpoint)",
    )
    p.add_argument(
        "--emit-source", metavar="FILE",
        help="write the best design as concrete pragma-annotated C",
    )
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="enable tracing and write the run's spans (shards, "
                        "batches, merges) as schema-validated trace JSON")

    p = sub.add_parser("serve", help="serve predictions over HTTP from an artifact")
    p.add_argument("--model", required=True,
                   help="artifact directory, or a registry directory (serves "
                        "its `current` version and enables POST /v1/model/reload)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--batch-size", type=int, default=16,
                   help="micro-batch capacity per forward pass")
    p.add_argument("--max-delay-ms", type=float, default=5.0,
                   help="partial-batch flush deadline")
    p.add_argument("--max-queue", type=int, default=1024,
                   help="pending-request bound before 429 load shedding")
    p.add_argument("--engine", choices=["auto", "compiled", "reference"],
                   default="auto")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes behind one shared listener; "
                        ">1 enables the pre-fork pool (respawn, rolling "
                        "restart, fleet-wide hot-swap)")
    p.add_argument("--trace", action="store_true",
                   help="enable tracing so GET /v1/trace serves live "
                        "per-request spans")

    p = sub.add_parser(
        "loop",
        help="closed-loop active learning: DSE, HLS labels, fine-tune, publish",
    )
    p.add_argument("-d", "--database", required=True,
                   help="seed training database (JSON); augmented copies are "
                        "written next to --state each round")
    p.add_argument("-p", "--predictor", default=None,
                   help="starting artifact directory written by `repro train`; "
                        "omit to start from the registry's current artifact")
    p.add_argument("--registry", required=True,
                   help="model registry directory (created if missing); every "
                        "accepted round publishes a new version here")
    p.add_argument("--kernels", nargs="+", required=True,
                   help="target kernels to explore and label")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--label-budget", type=int, default=15,
                   help="HLS labels per kernel per round")
    p.add_argument("--scan", type=int, default=300,
                   help="design points scored per kernel per round")
    p.add_argument("--eval-points", type=int, default=60,
                   help="held-out evaluation points sampled per kernel")
    p.add_argument("--epochs", type=int, default=6,
                   help="warm-start fine-tune epochs per round")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=["auto", "compiled", "reference"],
                   default="auto", help="surrogate engine for the DSE scan")
    p.add_argument("--serve-url", default=None,
                   help="live `repro serve` endpoint to hot-swap after each "
                        "accepted publish (POST /v1/model/reload)")
    p.add_argument("--state", default=None,
                   help="resume journal path (default: <registry>/loop-state.json)")
    p.add_argument("--resume", action="store_true",
                   help="resume from --state, skipping completed rounds")
    p.add_argument("--no-gate", action="store_true",
                   help="publish every round even if held-out RMSE regressed")
    p.add_argument("--wall-clock", action="store_true",
                   help="stamp records/artifacts with wall-clock time instead "
                        "of the deterministic logical clock (breaks bit-"
                        "identical resume)")

    p = sub.add_parser("artifacts",
                       help="verify a model registry or a single artifact")
    p.add_argument("registry", help="registry directory written by `repro loop`, "
                                    "or an artifact directory written by `repro train`")

    p = sub.add_parser("coverage", help="database coverage report for one kernel")
    p.add_argument("-k", "--kernel", required=True)
    p.add_argument("-d", "--database", required=True)

    p = sub.add_parser("autodse", help="HLS-in-the-loop bottleneck search")
    p.add_argument("-k", "--kernel", required=True)
    p.add_argument("--max-evals", type=int, default=100)
    p.add_argument("--max-hours", type=float, default=None, help="simulated tool-hours budget")

    p = sub.add_parser("experiment", help="regenerate one paper table/figure")
    p.add_argument(
        "name",
        choices=["table1", "table2", "table3", "fig5", "fig6", "fig7", "speed"],
    )
    return parser


# -- command implementations -------------------------------------------------


def _cmd_kernels(args) -> int:
    print(f"{'kernel':14s} {'suite':10s} {'split':8s} {'#pragmas':>8s}"
          + (f" {'#configs':>14s}" if args.sizes else ""))
    for name in list_kernels():
        spec = get_kernel(name)
        split = "unseen" if spec.unseen else "train"
        line = f"{name:14s} {spec.suite:10s} {split:8s} {len(spec.pragmas):8d}"
        if args.sizes:
            line += f" {build_design_space(spec).size():14,d}"
        print(line)
    return 0


def _cmd_devices(args) -> int:
    from .hls import get_device, list_devices

    print(f"{'device':10s} {'kind':6s} {'axes':16s} capacities")
    for name in list_devices():
        device = get_device(name)
        caps = ", ".join(
            f"{axis}={int(cap):,}" for axis, cap in device.capacities().items()
        )
        print(f"{name:10s} {device.kind:6s} {'/'.join(device.axes):16s} {caps}")
    return 0


def _resolve_device(name):
    """Device registry lookup for CLI flags (None passes through)."""
    if name is None:
        return None
    from .hls import get_device

    return get_device(name)  # HLSError (a ReproError) on unknown names


def _cmd_synthesize(args) -> int:
    spec = get_kernel(args.kernel)
    space = build_design_space(spec)
    point = space.default_point()
    point.update(dict(args.settings))
    space.validate(point)
    device = _resolve_device(args.device)
    tool = MerlinHLSTool(device=device) if device is not None else MerlinHLSTool()
    result = tool.synthesize(spec, point)
    if args.json:
        print(json.dumps({
            "kernel": result.kernel,
            "device": result.device,
            "valid": result.valid,
            "invalid_reason": result.invalid_reason,
            "latency": result.latency,
            "utilization": result.utilization,
            "synth_seconds": result.synth_seconds,
        }, indent=1))
        return 0
    status = "valid" if result.valid else f"INVALID: {result.invalid_reason}"
    print(f"{result.kernel}: {status}")
    print(f"  device         {result.device}")
    print(f"  latency        {result.latency:,} cycles")
    for res, value in result.utilization.items():
        print(f"  {res:14s} {value:.3f}")
    print(f"  synth time     {result.synth_seconds / 60:.1f} min (modeled)")
    return 0


def _cmd_database(args) -> int:
    from .explorer import generate_database

    database = generate_database(kernels=args.kernels, scale=args.scale, seed=args.seed)
    database.save(args.output)
    stats = database.stats()
    print(f"wrote {args.output}: {stats['total']} designs, {stats['valid']} valid")
    return 0


def _start_trace(path) -> None:
    """Enable process-wide tracing when a ``--trace`` path was given."""
    if path:
        from . import obs

        obs.enable()


def _finish_trace(path, root_name: str) -> None:
    """Validate + write the collected spans, if tracing was requested."""
    if not path:
        return
    from . import obs

    payload = obs.write_trace(path)
    roots = [s for s in payload["spans"] if s["name"] == root_name]
    total = sum(s["duration_s"] for s in roots)
    print(
        f"wrote {path}: {payload['span_count']} spans "
        f"({len(roots)} {root_name}, {total:.2f}s traced)"
    )


def _cmd_train(args) -> int:
    from .explorer import Database
    from .model import TrainConfig, train_predictor
    from .obs import span

    _start_trace(args.trace)
    database = Database.load(args.database)
    with span("train.run", model=args.model, epochs=args.epochs):
        predictor, metrics = train_predictor(
            database,
            config_name=args.model,
            train_config=TrainConfig(epochs=args.epochs, seed=args.seed),
            seed=args.seed,
            return_metrics=True,
        )
    _finish_trace(args.trace, "train.run")
    manifest = predictor.save(args.output)
    total = sum(m["parameters"] for m in manifest["models"].values())
    print(f"wrote artifact {args.output} ({total:,} parameters)")
    for key in ("latency", "DSP", "LUT", "FF", "BRAM", "all", "accuracy", "f1"):
        print(f"  {key:9s} {metrics[key]:.4f}")
    return 0


def _cmd_dse_all_devices(args, spec, space, pipeline) -> int:
    from .dse import run_cross_device_dse
    from .hls import list_devices
    from .obs import span
    from .serve.schemas import DSE_RESULT_SCHEMA_VERSION

    with span("dse.cross_device", kernel=args.kernel):
        result = run_cross_device_dse(
            spec, space, list_devices(), pipeline=pipeline,
            top_m=args.top, time_limit_seconds=args.time_limit,
        )
    _finish_trace(args.trace, "dse.cross_device")
    for name in result.devices:
        per = result.per_device[name]
        mode = "exhaustive" if per.exhaustive else "heuristic"
        print(
            f"{args.kernel} @ {name}: explored {per.explored:,} configs in "
            f"{per.seconds:.1f}s ({mode}), {len(per.pareto)} on the device front"
        )
    print(f"merged cross-device front ({len(result.merged)} designs):")
    for entry in result.merged:
        info = entry.payload()
        print(
            f"  {info['device']:10s} latency {info['latency']:>12,.0f} "
            f"util_max {info['util_max']:.3f}  {info['point']}"
        )
    if args.output:
        payload = {"schema_version": DSE_RESULT_SCHEMA_VERSION, **result.payload()}
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


def _cmd_dse(args) -> int:
    from .dse import EvaluationPipeline, run_dse
    from .dse.run import check_request
    from .obs import span

    _start_trace(args.trace)
    spec = get_kernel(args.kernel)
    space = build_design_space(spec)
    if args.all_devices and args.device:
        raise ReproError("--device and --all-devices are mutually exclusive")
    device = _resolve_device(args.device)
    pipeline = None
    if args.model is not None:
        from .model.predictor import GNNDSEPredictor

        pipeline = EvaluationPipeline(
            GNNDSEPredictor.load(args.model),
            batch_size=args.batch_size,
            engine=args.engine,
            cache=not args.no_cache,
        )
    elif not (args.device or args.all_devices):
        # Only device-targeted runs can do without a model: they fall
        # back to the analytic evaluator.
        raise ReproError(
            "dse needs --model <artifact-dir> (or --device/--all-devices "
            "for the analytic evaluator)"
        )
    if args.resume and not args.checkpoint:
        raise ReproError("--resume requires --checkpoint FILE")
    if args.all_devices:
        check_request(args.strategy, args.workers, args.checkpoint, device_bound=True)
        return _cmd_dse_all_devices(args, spec, space, pipeline)
    with span("dse.run", kernel=args.kernel, workers=args.workers):
        result = run_dse(
            spec, space, pipeline,
            strategy=args.strategy, budget=args.budget, seed=args.seed,
            device=device, workers=args.workers, checkpoint_path=args.checkpoint,
            resume=args.resume, shard_size=args.shard_size,
            top_m=args.top, time_limit_seconds=args.time_limit,
        )
    _finish_trace(args.trace, "dse.run")
    mode = "exhaustive" if result.exhaustive else "heuristic"
    if result.time_limited:
        mode += ", cut by --time-limit"
    target = f" on {result.device}" if result.device else ""
    print(
        f"{args.kernel}: explored {result.explored:,} configs in {result.seconds:.1f}s "
        f"({mode}{target}, {result.predictions_per_second:.0f} inferences/s)"
    )
    if result.race is not None:
        race_info = result.race
        arms = ", ".join(
            f"{name}={totals['queries']}q/{totals['new_pareto']}p"
            for name, totals in race_info["strategies"].items()
        )
        print(
            f"  {result.strategy}: {race_info['queries']}/{race_info['budget']} "
            f"budget over {len(race_info['rounds'])} rounds ({arms})"
        )
        print(f"  pareto front: {len(result.pareto)} non-dominated designs")
    if result.shards:
        line = (
            f"  parallel: {result.workers} worker(s), {result.shards} shards, "
            f"{result.shards_resumed} resumed, {result.retries} retried"
        )
        print(line)
        print(f"  pareto front: {len(result.pareto)} non-dominated designs")
    if result.stats is not None:
        print(f"  pipeline {result.stats.summary()}")
    tool = MerlinHLSTool(device=device) if device is not None else MerlinHLSTool()
    for rank, candidate in enumerate(result.top):
        line = f"  top-{rank + 1:02d} predicted latency {candidate.predicted_latency:>12,.0f}"
        if args.evaluate:
            truth = tool.synthesize(spec, candidate.point)
            line += f"  true {truth.latency:>10,} ({'valid' if truth.valid else 'invalid'})"
        print(line)
    if args.output:
        from .serve.schemas import dse_result_payload

        with open(args.output, "w") as handle:
            json.dump(dse_result_payload(result), handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.output}")
    if args.emit_source and result.top:
        from .designspace import render_source

        with open(args.emit_source, "w") as handle:
            handle.write(render_source(spec, result.top[0].point))
        print(f"wrote {args.emit_source}")
    return 0


def _cmd_serve(args) -> int:
    from .errors import ArtifactError
    from .model.predictor import GNNDSEPredictor
    from .serve import ModelRegistry, PredictorService, ServeHTTPServer
    from .serve.registry import artifact_fingerprint, load_artifact, read_manifest

    if args.trace:
        from . import obs

        obs.enable()
    registry = None
    if ModelRegistry.is_registry(args.model):
        registry = ModelRegistry(args.model)
        current = registry.current()
        if current is None:
            raise ArtifactError(
                f"registry {args.model} has no current version; "
                "run `repro loop` (or ModelRegistry.publish) first"
            )
        predictor = load_artifact(current.path)
        model_info = current.payload()
        served = f"{args.model} ({current.version})"
    else:
        predictor = GNNDSEPredictor.load(args.model)
        manifest = read_manifest(args.model)
        model_info = {
            "version": None,
            "sha256": artifact_fingerprint(manifest),
            "path": str(args.model),
        }
        served = str(args.model)
    def make_service():
        return PredictorService(
            predictor,
            batch_size=args.batch_size,
            max_delay_seconds=args.max_delay_ms / 1000.0,
            max_pending=args.max_queue,
            engine=args.engine,
            model_info=model_info,
            registry=registry,
        )

    if args.workers > 1:
        from .serve import WorkerPool

        pool = WorkerPool(
            make_service, workers=args.workers, host=args.host, port=args.port
        ).start()
        print(f"serving {served} on {pool.url} "
              f"({args.workers} workers, batch={args.batch_size}, "
              f"flush={args.max_delay_ms:g}ms"
              f"{', hot-swappable' if registry else ''}) — Ctrl-C to stop")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("draining workers…")
        finally:
            pool.stop()
        return 0

    service = make_service()
    server = ServeHTTPServer((args.host, args.port), service)
    host, port = server.server_address[:2]
    print(f"serving {served} on http://{host}:{port} "
          f"(batch={args.batch_size}, flush={args.max_delay_ms:g}ms"
          f"{', hot-swappable' if registry else ''}"
          f"{', tracing' if args.trace else ''}) — Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("draining…")
    finally:
        server.server_close()
        service.close(drain=True)
    return 0


def _cmd_loop(args) -> int:
    import os

    from .errors import LoopError
    from .explorer import Database
    from .loop import ActiveLoop, LoopConfig
    from .serve import ModelRegistry
    from .serve.registry import load_artifact

    registry = ModelRegistry(args.registry)
    database = Database.load(args.database)
    if args.predictor is not None:
        predictor = load_artifact(args.predictor)
    else:
        current = registry.current()
        if current is None:
            raise LoopError(
                "no --predictor given and the registry has no current "
                "version to start from"
            )
        predictor = load_artifact(current.path)
    state_path = args.state or os.path.join(args.registry, "loop-state.json")
    database_path = os.path.join(
        os.path.dirname(os.path.abspath(state_path)), "loop-database.json"
    )
    config = LoopConfig(
        kernels=tuple(args.kernels),
        rounds=args.rounds,
        label_budget=args.label_budget,
        scan=args.scan,
        eval_points=args.eval_points,
        epochs=args.epochs,
        seed=args.seed,
        engine=args.engine,
        gate_on_holdout=not args.no_gate,
    )
    loop = ActiveLoop(
        predictor,
        database,
        registry,
        config,
        database_path,
        state_path,
        serve_url=args.serve_url,
        clock=time.time if args.wall_clock else None,
        log=print,
    )
    result = loop.run(resume=args.resume)
    trajectory = " -> ".join(f"{v:.4f}" for v in result.rmse_trajectory())
    print(f"held-out RMSE: {trajectory}")
    final = result.final_metrics
    print(
        f"final: accuracy {final['classification']['accuracy']:.3f}, "
        f"f1 {final['classification']['f1']:.3f}, "
        f"database {len(loop.database)} records, "
        f"current {registry.current_version_name()}"
    )
    return 0


def _cmd_artifacts(args) -> int:
    from .serve import ModelRegistry
    from .serve.registry import artifact_fingerprint, verify_artifact

    if not ModelRegistry.is_registry(args.registry):
        manifest = verify_artifact(args.registry)
        sha = artifact_fingerprint(manifest)
        print(f"{args.registry}: single artifact, schema "
              f"v{manifest['schema_version']}, sha256:{sha[:12]}… verified")
        print(f"  normalization_factor {manifest['normalization_factor']:g}")
        for role, entry in manifest["models"].items():
            config = entry["config"]
            print(
                f"  {role:15s} {config['name']}/{config['task']:14s} "
                f"{entry['dtype']:8s} {entry['parameters']:,} params"
            )
        return 0
    registry = ModelRegistry(args.registry)
    versions = registry.versions()
    current_name = registry.current_version_name()
    if not versions:
        print(f"{args.registry}: empty registry")
        return 0
    print(f"{'version':9s} {'schema':>6s} {'created':>10s} {'sha256':14s} verified")
    failures = 0
    for version in versions:
        try:
            verify_artifact(version.path)
            status = "ok"
        except ReproError as exc:
            status = f"FAILED: {exc}"
            failures += 1
        marker = "*" if version.version == current_name else " "
        print(
            f"{marker}{version.version:8s} {version.schema_version:6d} "
            f"{version.created:10g} {version.sha256[:12] + '…':14s} {status}"
        )
    print(f"current: {current_name or '(none)'}; "
          f"{len(versions)} version(s), {failures} failed verification")
    return 1 if failures else 0


def _cmd_coverage(args) -> int:
    from .explorer import Database, measure_coverage

    spec = get_kernel(args.kernel)
    space = build_design_space(spec)
    database = Database.load(args.database)
    print(measure_coverage(database, space).pretty())
    return 0


def _cmd_autodse(args) -> int:
    from .dse import BudgetedEvaluator, QueryBudget, StrategyRacer
    from .explorer import Database, Evaluator

    spec = get_kernel(args.kernel)
    space = build_design_space(spec)
    evaluator = Evaluator(MerlinHLSTool(), Database(), parallelism=8)
    budget = QueryBudget(args.max_evals, max_hours=args.max_hours)
    search = BudgetedEvaluator(evaluator, spec, space, budget)
    result = StrategyRacer(search, ["bottleneck"]).run()
    best = f"{result.top[0].prediction.latency:,}" if result.top else "none"
    print(
        f"{args.kernel}: {result.queries} designs, "
        f"{evaluator.elapsed_hours:.1f} simulated tool-hours, best latency {best}"
    )
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments as exp

    ctx = exp.default_context()
    if args.name == "table1":
        print(exp.format_table1(exp.run_table1(ctx)))
    elif args.name == "table2":
        print(exp.format_table2(exp.run_table2(ctx)))
    elif args.name == "table3":
        print(exp.format_table3(exp.run_table3(ctx)))
    elif args.name == "fig5":
        print(exp.format_fig5(exp.run_fig5(ctx)))
    elif args.name == "fig6":
        print(exp.format_fig6(exp.run_fig6(ctx)))
    elif args.name == "fig7":
        print(exp.format_fig7(exp.run_fig7(ctx)))
    elif args.name == "speed":
        result = exp.run_inference_speed(ctx)
        print(
            f"{result.inferences_per_second:.1f} inferences/s "
            f"({result.milliseconds_per_inference:.2f} ms each)"
        )
    return 0


_COMMANDS = {
    "kernels": _cmd_kernels,
    "devices": _cmd_devices,
    "synthesize": _cmd_synthesize,
    "database": _cmd_database,
    "train": _cmd_train,
    "dse": _cmd_dse,
    "serve": _cmd_serve,
    "loop": _cmd_loop,
    "artifacts": _cmd_artifacts,
    "autodse": _cmd_autodse,
    "coverage": _cmd_coverage,
    "experiment": _cmd_experiment,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
