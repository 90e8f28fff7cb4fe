"""Shared pieces of the repository benchmark (``bench/run.py``).

Everything here observes the system from outside: output checks use
their own dominance and usability arithmetic plus the eager reference
predictor, trace shims wrap public callables of ``repro.*`` without
editing them, and statistics follow two rules — a tail percentile needs
at least :data:`MIN_TAIL_SAMPLES` samples beyond it, and every failed
operation is counted against the number attempted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import platform
import resource
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

#: A percentile above the median is reported only with this many
#: samples strictly beyond it; otherwise the workload fails.
MIN_TAIL_SAMPLES = 10

#: The benchmark's own copy of the search objectives and fit ceiling, so
#: the checks do not inherit a bug in ``repro.dse.pareto``.
OBJECTIVE_KEYS = ("latency", "DSP", "BRAM", "LUT", "FF")
FIT_THRESHOLD = 0.8


#: End-to-end metrics (untraced runs) and their units.  BENCHMARK.json
#: declares the same names, with each one's direction and bound.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: Arms of the default strategy race, in play order.
ARMS = ("sa", "greedy", "rl", "random")

#: Per-layer metrics (traced runs) and their units.  Every workload
#: reports every name; a layer the workload never calls reads 0.
#: Set-up layers are totals for the process; ``/op`` units are window
#: totals divided by the operations run (sweeps, races or requests), so
#: a faster system that fits more operations in the window compares
#: like for like.
PER_LAYER = {
    "frontend.parse_s": "s",
    "ir.lower_s": "s",
    "ir.analyze_s": "s",
    "graph.build_s": "s",
    "graph.encode_s": "s",
    "designspace.build_s": "s",
    "dse.pipeline.warmup_s": "s",
    "serve.boot_s": "s",
    "dse.pipeline.busy_s": "s/op",
    "dse.pipeline.calls": "count/op",
    "dse.pipeline.call_p50_ms": "ms",
    "dse.pipeline.fill_s": "s/op",
    "dse.pipeline.forward_s": "s/op",
    "dse.pipeline.materialize_s": "s/op",
    "dse.pipeline.forward_batches": "count/op",
    "dse.pipeline.model_points": "count/op",
    "dse.pipeline.cache_hit_ratio": "ratio",
    "dse.pipeline.cascade_skip_ratio": "ratio",
    "dse.pareto.merge_s": "s/op",
    "dse.pareto.merge_calls": "count/op",
    "dse.pareto.front_size": "count",
    "dse.search.self_s": "s/op",
    "dse.strategies.evaluate_s": "s/op",
    "dse.strategies.evaluate_calls": "count/op",
    "dse.strategies.memo_hit_ratio": "ratio",
    **{f"dse.race.step_s.{arm}": "s/op" for arm in ARMS},
    **{f"dse.race.self_s.{arm}": "s/op" for arm in ARMS},
    "dse.race.new_pareto_per_query": "ratio",
    "mem.run_rss_delta_mb": "MB",
    "serve.service.predict_p50_ms": "ms",
    "serve.batcher.mean_fill": "points/call",
    "serve.batcher.overhead_p50_ms": "ms",
    "serve.http.transport_p50_ms": "ms",
    "serve.shed_count": "count",
    "serve.client.p90_ms": "ms",
    "trace.points_per_s": "1/s",
    "trace.latency_p50_ms": "ms",
    "trace.spans": "count",
    "run.operations": "count",
}


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Exits non-zero when the sources are missing, so a directory holding
    only the benchmark fails fast instead of measuring some other copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: no repro sources under {src}")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# statistics


class InsufficientSamples(ValueError):
    """A percentile was asked for with too few samples to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``samples``.

    The median needs one sample; any higher percentile needs at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it.
    """
    n = len(samples)
    if n == 0:
        raise InsufficientSamples(f"p{q:g} of no samples")
    beyond = math.floor(n * (100.0 - q) / 100.0 + 1e-9)
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_TAIL_SAMPLES}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


@dataclass
class Tally:
    """Attempted / succeeded / failed / shed counts for one run."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()

    def record(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            if ok:
                self.succeeded += 1
            else:
                self.failed += 1

    def record_status(self, status: int) -> None:
        """An HTTP response: only 200 succeeds; 429 is also counted as shed."""
        with self._lock:
            self.attempted += 1
            if status == 200:
                self.succeeded += 1
            else:
                self.failed += 1
                if status == 429:
                    self.shed += 1

    def fail_check(self) -> None:
        """An operation that succeeded failed its output check afterwards."""
        with self._lock:
            self.succeeded -= 1
            self.failed += 1

    def to_dict(self) -> Dict[str, int]:
        return asdict(self)


# ---------------------------------------------------------------------------
# output checks


def usable(prediction) -> bool:
    """Valid, with every non-latency objective under the fit ceiling."""
    objectives = prediction.objectives
    return bool(prediction.valid) and objectives is not None and all(
        value < FIT_THRESHOLD for name, value in objectives.items() if name != "latency"
    )


def objective_matrix(predictions) -> np.ndarray:
    return np.array(
        [[p.objectives[k] for k in OBJECTIVE_KEYS] for p in predictions],
        dtype=np.float64,
    ).reshape(-1, len(OBJECTIVE_KEYS))


def dominated_member(front: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(i, j)`` where row ``j`` dominates row ``i``, or None if none does."""
    no_worse = (front[None, :, :] <= front[:, None, :]).all(axis=2)
    better = (front[None, :, :] < front[:, None, :]).any(axis=2)
    hits = np.argwhere(no_worse & better)
    return None if hits.size == 0 else (int(hits[0][0]), int(hits[0][1]))


def uncovered_points(
    points: np.ndarray, front: np.ndarray, rtol: float = 0.0, atol: float = 0.0
) -> List[int]:
    """Rows of ``points`` that no ``front`` row weakly dominates.

    ``rtol``/``atol`` widen each comparison, so a point predicted by a
    different engine within tolerance still counts as covered.
    """
    if points.size == 0:
        return []
    if front.size == 0:
        return list(range(points.shape[0]))
    slack = atol + rtol * np.abs(points)
    covered = (front[None, :, :] <= points[:, None, :] + slack[:, None, :]).all(axis=2)
    return [int(i) for i in np.nonzero(~covered.any(axis=1))[0]]


def check_search_result(top, pareto) -> List[str]:
    """Structural checks on one DSE result's top list and front."""
    problems = []
    for label, members in (("top", top), ("front", pareto)):
        bad = [i for i, c in enumerate(members) if not usable(c.prediction)]
        if bad:
            problems.append(f"{label} members {bad[:5]} are not usable")
    latencies = [c.prediction.objectives["latency"] for c in top if c.prediction.objectives]
    if any(b < a for a, b in zip(latencies, latencies[1:])):
        problems.append("top list is not sorted by latency")
    if pareto and not problems:
        pair = dominated_member(objective_matrix([c.prediction for c in pareto]))
        if pair is not None:
            problems.append(f"front member {pair[0]} is dominated by member {pair[1]}")
    return problems


def eager_disagreement(predictor, kernel: str, points, predictions, chunk: int = 16):
    """First disagreement between ``predictions`` and the eager reference, or None."""
    from repro.nn.lazy.equiv import predictions_equivalent
    from repro.nn.tensor import get_default_dtype

    for start in range(0, len(points), chunk):
        eager = predictor.predict_batch(kernel, list(points[start:start + chunk]))
        problem = predictions_equivalent(
            list(predictions[start:start + chunk]), eager, dtype=get_default_dtype()
        )
        if problem is not None:
            return f"{kernel}: {problem}"
    return None


def front_incomplete(predictor, kernel: str, points, pareto, chunk: int = 16):
    """Eagerly predict ``points``; report any usable one the front misses."""
    from repro.nn.lazy.equiv import tolerance_for
    from repro.nn.tensor import get_default_dtype

    eager = []
    for start in range(0, len(points), chunk):
        eager.extend(predictor.predict_batch(kernel, list(points[start:start + chunk])))
    candidates = [p for p in eager if usable(p)]
    rtol, atol = tolerance_for(get_default_dtype())
    missed = uncovered_points(
        objective_matrix(candidates),
        objective_matrix([c.prediction for c in pareto]),
        rtol=rtol, atol=atol,
    )
    if missed:
        return f"{kernel}: {len(missed)} usable points not weakly dominated by the front"
    return None


# ---------------------------------------------------------------------------
# tracing

SPAN_FIELDS = ("name", "start", "end", "parent", "rid")


class Tracer:
    """In-memory spans around public callables, restored on exit.

    A span is ``[name, start, end, parent, rid]``: times on the
    ``perf_counter`` clock, ``parent`` the index of the enclosing span
    on the same thread (or -1), and ``rid`` the run or request id that
    a root span shares with its descendants.  :meth:`shim` wraps the
    attribute a caller resolves at call time, so wrapping
    ``repro.dse.search:pareto_merge`` and
    ``repro.dse.strategies:pareto_merge`` covers both call sites.
    """

    def __init__(self):
        self.spans: List[list] = []
        self.absent: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        self._next_rid = 0

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            if stack:
                parent = stack[-1]
                rid = self.spans[parent][4]
            else:
                parent, rid = -1, self._next_rid
                self._next_rid += 1
            record = [name, time.perf_counter(), None, parent, rid]
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def mark(self) -> int:
        """Index separating spans recorded so far from later ones."""
        with self._lock:
            return len(self.spans)

    # -- shims ------------------------------------------------------------

    def shim(self, target: str, name: str,
             label: Optional[Callable[[tuple], str]] = None) -> bool:
        """Record a ``name`` span around every call of ``target``.

        ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  A
        target that no longer exists is listed in :attr:`absent` and
        reported as such, so a refactor that deletes a function cannot
        break the traced run.  ``label(args)`` appends a suffix to the
        span name.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return False
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args)}"
            with tracer.span(span_name):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        if own:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:  # inherited: drop the override instead of pinning the parent's
            self._restore.append(lambda: delattr(owner, attr))
        return True

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- export -----------------------------------------------------------

    def export(self) -> Dict[str, object]:
        with self._lock:
            spans = [list(s) for s in self.spans]
        return {"fields": list(SPAN_FIELDS), "absent": list(self.absent), "spans": spans}


#: Public callables the traced run times, as (target, span name[, label]).
#: Kernel compilation happens once per kernel, in whichever process
#: predicts: the DSE worker, or the server for the serve workloads.
SETUP_LAYERS = (
    ("repro.frontend.parser:parse_source", "frontend.parse"),
    ("repro.ir.lowering:lower_unit", "ir.lower"),
    ("repro.ir.analysis:analyze_kernel", "ir.analyze"),
    ("repro.graph:build_program_graph", "graph.build"),
    ("repro.graph.encoding:GraphEncoder.encode", "graph.encode"),
)
PIPELINE_LAYER = ("repro.dse.pipeline:EvaluationPipeline.predict_batch", "dse.pipeline.call")
DSE_LAYERS = SETUP_LAYERS + (
    ("repro.designspace:build_design_space", "designspace.build"),
    PIPELINE_LAYER,
    ("repro.dse.search:pareto_merge", "dse.pareto.merge"),
    ("repro.dse.strategies:pareto_merge", "dse.pareto.merge"),
    ("repro.dse.strategies:BudgetedEvaluator.evaluate", "dse.strategies.evaluate"),
    ("repro.dse.strategies:SearchStrategy.step", "dse.race.step", lambda args: args[0].name),
)
SERVER_LAYERS = SETUP_LAYERS + (
    ("repro.serve.service:build_design_space", "designspace.build"),
    PIPELINE_LAYER,
    ("repro.serve.service:PredictorService.predict_versioned", "serve.service.predict"),
)


def install_layers(tracer: Tracer, table) -> None:
    for target, name, *label in table:
        tracer.shim(target, name, *label)


def span_durations(spans: Sequence[list], start: int = 0) -> Dict[str, List[float]]:
    """Name -> list of span durations (seconds), for spans from ``start`` on."""
    out: Dict[str, List[float]] = {}
    for s in spans[start:]:
        if s[2] is not None:
            out.setdefault(s[0], []).append(s[2] - s[1])
    return out


def self_times(spans: Sequence[list], start: int = 0) -> Dict[str, float]:
    """Name -> summed self time: duration minus direct children's durations."""
    child_time: Dict[int, float] = {}
    for s in spans[start:]:
        if s[3] >= 0 and s[2] is not None:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    out: Dict[str, float] = {}
    for index in range(start, len(spans)):
        s = spans[index]
        if s[2] is not None:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child_time.get(index, 0.0)
    return out


def time_within(spans: Sequence[list], name: str, roots: Sequence[int]) -> float:
    """Total duration of ``name`` spans that descend from any of ``roots``."""
    root_set = set(roots)
    total = 0.0
    for s in spans:
        if s[0] != name or s[2] is None:
            continue
        parent = s[3]
        while parent >= 0 and parent not in root_set:
            parent = spans[parent][3]
        if parent >= 0:
            total += s[2] - s[1]
    return total


# ---------------------------------------------------------------------------
# system under test: construction and provenance


def untrained_predictor(seed: int = 0):
    """The deterministic untrained M7 stack (no database, no training).

    Weights are fixed by ``seed``; the benchmark measures speed, which
    does not depend on what the weights learned.
    """
    from repro.explorer.database import Database
    from repro.graph.encoding import EDGE_DIM, NODE_DIM
    from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
    from repro.model.dataset import GraphDatasetBuilder
    from repro.model.models import build_model
    from repro.model.predictor import GNNDSEPredictor

    builder = GraphDatasetBuilder(Database())
    config = MODEL_CONFIGS["M7"]
    classifier = build_model(config.for_task("classification"), NODE_DIM, EDGE_DIM, seed=seed)
    regressor = build_model(
        config.for_task("regression", REGRESSION_OBJECTIVES), NODE_DIM, EDGE_DIM, seed=seed + 1
    )
    bram = build_model(
        config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM, seed=seed + 2
    )
    return GNNDSEPredictor(classifier, regressor, bram, builder.normalizer, builder)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha(root: Path = ROOT) -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(engine: str) -> Dict[str, object]:
    """Provenance recorded with every run."""
    from repro.nn.tensor import get_default_dtype

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dtype": np.dtype(get_default_dtype()).name,
        "engine": engine,
    }
