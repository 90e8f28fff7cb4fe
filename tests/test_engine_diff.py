"""Differential testing of the eager engine, the reference every batched
path is checked against.

Three layers of evidence that ``repro.nn.tensor`` computes what it
documents, under the per-dtype tolerance policy of
:mod:`repro.nn.lazy.equiv`:

1. **Property-based fuzzing** — seeded random op-graph programs
   (elementwise chains, broadcasts, matmuls, reductions, gathers,
   segment ops, reflected ops, many-operand concat/stack_max) run on
   :class:`Tensor` and on an independent plain-NumPy interpreter.
   Failures are *shrunk*: the harness greedily deletes ops while the
   disagreement persists and reports the minimal failing sequence.
2. **Batched GNN forwards** — every GNN variant (M3–M7) run over a
   batch of design points agrees with the same model run one graph at a
   time, so a prediction does not depend on its batch.
3. **Predictor level** — the compiled pipeline and the predictor's
   eager path agree under :func:`predictions_equivalent`.
"""

import numpy as np
import pytest

from repro.nn import Segments, Tensor, concat, stack_max
from repro.nn.lazy.equiv import predictions_equivalent, tolerance_for
from repro.nn.tensor import set_default_dtype

# ---------------------------------------------------------------------------
# Program representation: a list of (op-name, params) steps interpreted
# identically by the eager engine and the NumPy reference.  Params carry
# concrete arrays so both interpretations see byte-identical operands.
# ---------------------------------------------------------------------------


class Step:
    __slots__ = ("name", "params")

    def __init__(self, name, **params):
        self.name = name
        self.params = params

    def __repr__(self):
        parts = []
        for key, value in self.params.items():
            if isinstance(value, np.ndarray):
                parts.append(f"{key}=ndarray{value.shape}")
            elif isinstance(value, list):
                items = ", ".join(
                    "chain" if v is None else f"ndarray{v.shape}" for v in value
                )
                parts.append(f"{key}=[{items}]")
            elif isinstance(value, Segments):
                parts.append(f"{key}=Segments(n={value.num_segments})")
            else:
                parts.append(f"{key}={value!r}")
        return f"{self.name}({', '.join(parts)})"


def _segments_for(rng, rows):
    """Random sorted segment ids covering ``rows`` rows."""
    num_segments = int(rng.integers(1, rows + 1))
    ids = np.sort(rng.integers(0, num_segments, size=rows))
    # Segments requires every id < num_segments; compress to the used range.
    return Segments(ids.astype(np.int64), num_segments=num_segments)


_APPLY = {
    "add_scalar": lambda t, p: t + p["value"],
    "radd": lambda t, p: Tensor(p["other"]) + t,
    "sub": lambda t, p: t - Tensor(p["other"]),
    "mul": lambda t, p: t * Tensor(p["other"]),
    "rmul": lambda t, p: Tensor(p["other"]) * t,
    "div": lambda t, p: t / Tensor(p["other"]),
    "square": lambda t, p: t * t,
    "pow_frac": lambda t, p: (t * t + 0.5).pow(p["exponent"]),
    "exp": lambda t, p: t.exp(),
    "log": lambda t, p: (t * t + 1.0).log(),
    "sqrt": lambda t, p: (t * t + 0.25).sqrt(),
    "tanh": lambda t, p: t.tanh(),
    "sigmoid": lambda t, p: t.sigmoid(),
    "relu": lambda t, p: t.relu(),
    "leaky_relu": lambda t, p: t.leaky_relu(p["alpha"]),
    "elu": lambda t, p: t.elu(p["alpha"]),
    "softmax": lambda t, p: t.softmax(axis=-1),
    "matmul": lambda t, p: t @ Tensor(p["weight"]),
    "rmatmul": lambda t, p: Tensor(p["left"]) @ t,
    "center": lambda t, p: t + t.sum(axis=0, keepdims=True) * p["scale"],
    "mean_cols": lambda t, p: t - t.mean(axis=1, keepdims=True),
    "transpose": lambda t, p: t.T,
    "flatten_restore": lambda t, p: t.reshape(-1).reshape(p["shape"]),
    "gather_rows": lambda t, p: t.gather_rows(p["index"]),
    "segment_sum": lambda t, p: t.segment_sum(p["segments"]),
    "segment_softmax": lambda t, p: t.segment_softmax(p["segments"]),
    "concat_self": lambda t, p: concat([t, Tensor(p["other"])], axis=1),
    "stack_max": lambda t, p: stack_max([t, Tensor(p["other"])]),
    # >=3 operands mixing fresh sources and the computed chain at a
    # random position (None marks where the chain is spliced in).
    "stack_max_many": lambda t, p: stack_max(
        [t * p["scale"] if o is None else Tensor(o) for o in p["operands"]]
    ),
    "concat_many": lambda t, p: concat(
        [t * p["scale"] if o is None else Tensor(o) for o in p["operands"]],
        axis=1,
    ),
}


def _np_exp(a):
    # The eager exp saturates its argument at +-60.
    return np.exp(np.clip(a, -60.0, 60.0))


def _np_segment_softmax(a, segments):
    out = np.zeros_like(a)
    for s in range(segments.num_segments):
        rows = segments.ids == s
        if rows.any():
            e = _np_exp(a[rows] - a[rows].max(axis=0))
            out[rows] = e / (e.sum(axis=0) + 1e-16)
    return out


def _np_segment_sum(a, segments):
    out = np.zeros((segments.num_segments,) + a.shape[1:], dtype=a.dtype)
    np.add.at(out, segments.ids, a)
    return out


def _np_softmax(a):
    e = _np_exp(a - a.max(axis=-1, keepdims=True))
    return e / (e.sum(axis=-1, keepdims=True) + 1e-16)


# The same programs in plain NumPy; ``c`` casts an operand to the dtype
# under test.
_REFERENCE = {
    "add_scalar": lambda a, p, c: a + c(p["value"]),
    "radd": lambda a, p, c: c(p["other"]) + a,
    "sub": lambda a, p, c: a - c(p["other"]),
    "mul": lambda a, p, c: a * c(p["other"]),
    "rmul": lambda a, p, c: c(p["other"]) * a,
    "div": lambda a, p, c: a / c(p["other"]),
    "square": lambda a, p, c: a * a,
    "pow_frac": lambda a, p, c: np.power(a * a + c(0.5), p["exponent"]),
    "exp": lambda a, p, c: _np_exp(a),
    "log": lambda a, p, c: np.log(np.maximum(a * a + c(1.0), 1e-12)),
    "sqrt": lambda a, p, c: np.sqrt(a * a + c(0.25)),
    "tanh": lambda a, p, c: np.tanh(a),
    "sigmoid": lambda a, p, c: 1.0 / (1.0 + _np_exp(-a)),
    "relu": lambda a, p, c: a * (a > 0),
    "leaky_relu": lambda a, p, c: a * np.where(a > 0, 1.0, p["alpha"]),
    "elu": lambda a, p, c: np.where(
        a > 0, a, p["alpha"] * (np.exp(np.clip(a, -60.0, 0.0)) - 1.0)
    ),
    "softmax": lambda a, p, c: _np_softmax(a),
    "matmul": lambda a, p, c: a @ c(p["weight"]),
    "rmatmul": lambda a, p, c: c(p["left"]) @ a,
    "center": lambda a, p, c: a + a.sum(axis=0, keepdims=True) * c(p["scale"]),
    "mean_cols": lambda a, p, c: a - a.mean(axis=1, keepdims=True),
    "transpose": lambda a, p, c: a.T,
    "flatten_restore": lambda a, p, c: a.reshape(-1).reshape(p["shape"]),
    "gather_rows": lambda a, p, c: a[p["index"]],
    "segment_sum": lambda a, p, c: _np_segment_sum(a, p["segments"]),
    "segment_softmax": lambda a, p, c: _np_segment_softmax(a, p["segments"]),
    "concat_self": lambda a, p, c: np.concatenate([a, c(p["other"])], axis=1),
    "stack_max": lambda a, p, c: np.maximum(a, c(p["other"])),
    "stack_max_many": lambda a, p, c: np.maximum.reduce(
        [a * c(p["scale"]) if o is None else c(o) for o in p["operands"]]
    ),
    "concat_many": lambda a, p, c: np.concatenate(
        [a * c(p["scale"]) if o is None else c(o) for o in p["operands"]],
        axis=1,
    ),
}
assert _REFERENCE.keys() == _APPLY.keys()


def _gen_step(rng, shape):
    """Draw one applicable random step for the current 2-D ``shape``."""
    rows, cols = shape
    choices = [
        "add_scalar", "radd", "sub", "mul", "rmul", "div", "square",
        "pow_frac", "exp", "log", "sqrt", "tanh", "sigmoid", "relu",
        "leaky_relu", "elu", "softmax", "center", "mean_cols",
        "flatten_restore", "segment_softmax",
    ]
    if cols <= 16:
        choices.append("concat_self")
    if cols <= 8:
        choices.append("concat_many")
    if rows > 1:
        choices += ["gather_rows", "segment_sum", "rmatmul"]
    choices += ["matmul", "stack_max", "stack_max_many", "transpose"]
    name = rng.choice(choices)

    def arr(s):
        return rng.normal(size=s)

    if name == "add_scalar":
        return Step(name, value=float(rng.normal())), shape
    if name in ("radd", "sub", "mul", "rmul"):
        other = arr((1, cols)) if rng.random() < 0.3 else arr(shape)
        return Step(name, other=other), shape
    if name == "div":
        other = rng.uniform(0.5, 1.5, size=shape) * np.where(
            rng.random(size=shape) < 0.5, -1.0, 1.0
        )
        return Step(name, other=other), shape
    if name == "pow_frac":
        return Step(name, exponent=float(rng.choice([0.5, 1.5, 2.0]))), shape
    if name in ("leaky_relu", "elu"):
        return Step(name, alpha=float(rng.uniform(0.05, 1.0))), shape
    if name == "matmul":
        out = int(rng.integers(1, 17))
        return Step(name, weight=arr((cols, out))), (rows, out)
    if name == "rmatmul":
        out = int(rng.integers(1, 17))
        return Step(name, left=arr((out, rows))), (out, cols)
    if name == "center":
        return Step(name, scale=-1.0 / rows), shape
    if name == "transpose":
        return Step(name), (cols, rows)
    if name == "flatten_restore":
        return Step(name, shape=shape), shape
    if name == "gather_rows":
        new_rows = int(rng.integers(1, rows + 1))
        index = rng.integers(0, rows, size=new_rows).astype(np.int64)
        return Step(name, index=index), (new_rows, cols)
    if name == "segment_sum":
        seg = _segments_for(rng, rows)
        return Step(name, segments=seg), (seg.num_segments, cols)
    if name == "segment_softmax":
        return Step(name, segments=_segments_for(rng, rows)), shape
    if name == "concat_self":
        return Step(name, other=arr(shape)), (rows, 2 * cols)
    if name == "stack_max":
        return Step(name, other=arr(shape)), shape
    if name in ("stack_max_many", "concat_many"):
        n = int(rng.integers(3, 6))
        chain_pos = int(rng.integers(0, n))
        operands = [None if i == chain_pos else arr(shape) for i in range(n)]
        scale = float(rng.uniform(0.5, 2.0))
        out_shape = shape if name == "stack_max_many" else (rows, n * cols)
        return Step(name, operands=operands, scale=scale), out_shape
    # param-less elementwise ops: square/exp/log/sqrt/tanh/sigmoid/relu/
    # softmax/mean_cols preserve shape
    return Step(name), shape


def gen_program(seed, length=8):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(2, 12))
    cols = int(rng.integers(1, 12))
    x0 = rng.normal(size=(rows, cols))
    steps, shape = [], (rows, cols)
    for _ in range(length):
        step, shape = _gen_step(rng, shape)
        steps.append(step)
    return x0, steps


def run_program(x0, steps, engine, dtype):
    """Interpret ``steps`` on ``engine`` ("eager" or "numpy") in ``dtype``."""
    if engine == "eager":
        set_default_dtype(dtype)
        t = Tensor(x0)
        for step in steps:
            t = _APPLY[step.name](t, step.params)
        return np.array(t.data, copy=True)

    def cast(value):
        return np.asarray(value, dtype=dtype)

    a = cast(x0)
    for step in steps:
        a = _REFERENCE[step.name](a, step.params, cast)
    return np.array(a, copy=True)


# ---------------------------------------------------------------------------
# Shrinking: greedily delete steps while the program still disagrees.
# ---------------------------------------------------------------------------


def _disagrees(x0, steps, dtype):
    rtol, atol = tolerance_for(dtype)
    try:
        eager = run_program(x0, steps, "eager", dtype)
        reference = run_program(x0, steps, "numpy", dtype)
    except Exception:
        return False  # deletion broke shape validity: not a valid shrink
    if eager.shape != reference.shape:
        return True
    return not np.allclose(eager, reference, rtol=rtol, atol=atol, equal_nan=True)


def shrink_program(x0, steps, dtype):
    """Minimal failing subsequence under greedy single-step deletion."""
    current = list(steps)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1 :]
            if _disagrees(x0, candidate, dtype):
                current = candidate
                changed = True
                break
    return current


def _report_failure(x0, steps, dtype):
    rtol, atol = tolerance_for(dtype)
    minimal = shrink_program(x0, steps, dtype)
    eager = run_program(x0, minimal, "eager", dtype)
    reference = run_program(x0, minimal, "numpy", dtype)
    lines = [f"eager disagrees with NumPy for dtype={np.dtype(dtype).name}"]
    if eager.shape == reference.shape:
        diff = np.abs(eager.astype(np.float64) - reference)
        rel = diff / np.maximum(np.abs(reference), np.finfo(np.float64).tiny)
        lines[0] += (
            f" (max_abs={np.nanmax(diff, initial=0.0):.3e}, "
            f"max_rel={np.nanmax(rel, initial=0.0):.3e}, rtol={rtol}, atol={atol})"
        )
    else:
        lines[0] += f" (shape {eager.shape} vs {reference.shape})"
    lines.append(
        f"minimal failing program ({len(minimal)} of {len(steps)} ops), "
        f"input shape {x0.shape}:"
    )
    lines += [f"  {i}: {step!r}" for i, step in enumerate(minimal)]
    pytest.fail("\n".join(lines))


def _check_program(x0, steps, dtype):
    rtol, atol = tolerance_for(dtype)
    eager = run_program(x0, steps, "eager", dtype)
    reference = run_program(x0, steps, "numpy", dtype)
    if eager.shape != reference.shape or not np.allclose(
        eager, reference, rtol=rtol, atol=atol, equal_nan=True
    ):
        _report_failure(x0, steps, dtype)


# ---------------------------------------------------------------------------
# 1. Property-based fuzzing with shrinking.
# ---------------------------------------------------------------------------


class TestFuzzPrograms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("seed", range(30))
    def test_random_program_agrees(self, seed, dtype):
        x0, steps = gen_program(seed)
        _check_program(x0, steps, dtype)

    def test_long_chain_agrees(self):
        """A 40-op chain accumulates rounding across every op kind."""
        x0, steps = gen_program(seed=1234, length=40)
        _check_program(x0, steps, np.float32)

    def test_shared_subgraph_agrees(self):
        """Diamond reuse: one node feeding several consumers must serve
        every consumer (and its gradient bookkeeping) correctly."""
        for dtype in (np.float32, np.float64):
            set_default_dtype(dtype)
            rng = np.random.default_rng(7)
            x0 = rng.normal(size=(8, 6))
            w = rng.normal(size=(6, 6))

            h = (Tensor(x0) @ Tensor(w)).relu()
            eager = (h * h.sigmoid() + h.tanh()).sum(axis=1, keepdims=True).data

            a = np.maximum(x0.astype(dtype) @ w.astype(dtype), 0)
            reference = (a / (1.0 + np.exp(-a)) + np.tanh(a)).sum(
                axis=1, keepdims=True
            )
            rtol, atol = tolerance_for(dtype)
            np.testing.assert_allclose(
                eager, reference, rtol=rtol, atol=atol, err_msg="shared subgraph"
            )

    def test_shrinker_finds_minimal_sequence(self):
        """The shrinker itself: with a synthetic failure predicate it must
        reduce to exactly the interacting ops."""
        steps = [Step(n) for n in ("a", "b", "c", "d", "e")]

        def fails(names):
            return "b" in names and "d" in names

        current = list(steps)
        changed = True
        while changed:  # same greedy loop as shrink_program
            changed = False
            for i in range(len(current)):
                candidate = current[:i] + current[i + 1 :]
                if fails([s.name for s in candidate]):
                    current = candidate
                    changed = True
                    break
        assert [s.name for s in current] == ["b", "d"]


# ---------------------------------------------------------------------------
# 2. GNN forwards: batched vs one graph at a time; predictor level.
# ---------------------------------------------------------------------------


def _small_gnn(config_name, task, seed=0):
    from dataclasses import replace

    from repro.graph.encoding import EDGE_DIM, NODE_DIM
    from repro.model import MODEL_CONFIGS, REGRESSION_OBJECTIVES, build_model

    base = MODEL_CONFIGS[config_name]
    base = replace(base, hidden=16, num_layers=2)
    objectives = REGRESSION_OBJECTIVES if task == "regression" else None
    return build_model(base.for_task(task, objectives), NODE_DIM, EDGE_DIM, seed=seed)


@pytest.fixture(scope="module")
def kernel_builder():
    from repro.explorer.database import Database
    from repro.model import GraphDatasetBuilder

    return GraphDatasetBuilder(Database())


class TestModelForwardDiff:
    @pytest.mark.parametrize("config_name", ["M3", "M4", "M5", "M6", "M7"])
    def test_gnn_variants_agree(self, config_name, kernel_builder):
        """Every GNN variant (conv type / JKN mode / pooling) gives each
        graph of a batch the output it gets alone."""
        import random

        from repro.designspace import build_design_space
        from repro.kernels import get_kernel
        from repro.nn.data import Batch, GraphData
        from repro.nn.tensor import no_grad

        set_default_dtype(np.float32)
        enc = kernel_builder.encoded_graph("atax")
        space = build_design_space(get_kernel("atax"))
        graphs = [
            GraphData(
                x=enc.fill(point),
                edge_index=enc.edge_index,
                edge_attr=enc.edge_attr,
                kernel="atax",
            )
            for point in space.sample(random.Random(3), 4)
        ]
        model = _small_gnn(config_name, "regression")
        model.eval()
        with no_grad():
            batched = model(Batch.from_graphs(graphs)).data
            single = np.concatenate(
                [model(Batch.from_graphs([g])).data for g in graphs], axis=0
            )
        rtol, atol = tolerance_for(np.float32)
        np.testing.assert_allclose(
            batched, single, rtol=rtol, atol=atol, err_msg=f"model {config_name}"
        )


class TestPredictorDiff:
    def test_predictor_engines_agree(self):
        """The compiled pipeline and the predictor's eager path agree at
        Prediction level."""
        import random

        from repro.designspace import build_design_space
        from repro.dse import EvaluationPipeline
        from repro.explorer import generate_database
        from repro.kernels import get_kernel
        from repro.model import TrainConfig, train_predictor

        set_default_dtype(np.float32)
        db = generate_database(kernels=["atax"], scale=0.1, seed=0)
        predictor = train_predictor(
            db, config_name="M5", train_config=TrainConfig(epochs=2)
        )
        space = build_design_space(get_kernel("atax"))
        points = space.sample(random.Random(0), 6)
        eager = predictor.predict_batch("atax", points)
        pipeline = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        compiled = pipeline.predict_batch("atax", points)
        assert pipeline.stats.engine == "compiled"
        problem = predictions_equivalent(compiled, eager, dtype=np.float32)
        assert problem is None, problem
