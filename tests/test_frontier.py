"""Tests for the vectorised Pareto filter and the running :class:`Frontier`.

The contracts under test:

- **Oracle equivalence**: chained matrix merges over any chunking of a
  stream give exactly the pure-Python quadratic filter's front of the
  whole stream, in membership and first-seen order, with ties, exact
  duplicates, ``±inf`` and NaN in the objectives.
- **Race pin**: a seeded strategy race reproduces a golden front, top-M
  list, budget ledger and per-arm novelty count bit-for-bit.
- **Trace hook**: :meth:`Frontier.merge` calls the module-level
  ``repro.dse.search.pareto_merge`` once per non-empty merge, so a
  tracer that wraps that name times every Pareto merge.
"""

import json
import math
import os
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dse.pareto as pareto_mod
import repro.dse.search as search_mod
from repro.designspace import build_design_space, point_key
from repro.dse import (
    BudgetedEvaluator,
    DSECandidate,
    Frontier,
    ModelDSE,
    QueryBudget,
    StrategyRacer,
    pareto_front,
)
from repro.dse.race import DEFAULT_ARMS
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel
from repro.model.predictor import Prediction
from tests import pareto_oracle

GOLDEN_RACE = os.path.join(os.path.dirname(__file__), "golden", "race_gemm_ncubed.json")

#: Objective values drawn from a small pool so ties and exact duplicate
#: rows are common, with both infinities and NaN mixed in.
VALUES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan])


class HLSOracle:
    """Pipeline stand-in backed by the HLS simulator (no model weights)."""

    def __init__(self, spec):
        self.spec = spec
        self.tool = MerlinHLSTool()

    def predict_batch(self, kernel, points, valid_threshold=0.5, objectives_for="all"):
        out = []
        for point in points:
            result = self.tool.synthesize(self.spec, point)
            out.append(
                Prediction(
                    valid=result.valid,
                    valid_prob=1.0 if result.valid else 0.0,
                    objectives=result.objectives,
                )
            )
        return out


@st.composite
def chunked_streams(draw):
    """(K, rows, chunk bounds): a tied objective stream and a chunking of it."""
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(VALUES, min_size=k, max_size=k), max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    bounds = list(zip([0] + cuts, cuts + [len(rows)]))
    return k, rows, bounds


def _keys(k):
    # Frontier's top-M list ranks by latency, so that key always exists.
    return ["latency"] + [f"o{j}" for j in range(1, k)]


def _candidates(rows, keys):
    return [
        DSECandidate({"i": i}, Prediction(True, 1.0, dict(zip(keys, row))))
        for i, row in enumerate(rows)
    ]


def _objectives(candidate):
    return candidate.prediction.objectives


class TestMatrixFilter:
    @given(chunked_streams())
    @settings(max_examples=300, deadline=None)
    def test_chained_merges_equal_oracle_front(self, stream):
        k, rows, bounds = stream
        keys = _keys(k)
        candidates = _candidates(rows, keys)
        expected = pareto_oracle.pareto_front(candidates, _objectives, keys)

        # The bare matrix merge, chained from an empty front.
        matrix = np.array(rows, dtype=np.float64).reshape(len(rows), k)
        front = np.empty((0, k))
        order = np.empty(0, dtype=int)
        for start, stop in bounds:
            keep_front, keep_new = pareto_mod.pareto_merge(front, matrix[start:stop])
            front = np.concatenate([front[keep_front], matrix[start:stop][keep_new]])
            order = np.concatenate([order[keep_front], np.arange(start, stop)[keep_new]])
        assert order.tolist() == [c.point["i"] for c in expected]

        # The same stream through Frontier.add, whose flags name the entrants.
        frontier = Frontier(top_m=3, keys=keys, usable=lambda c: True)
        for start, stop in bounds:
            chunk = candidates[start:stop]
            entered = frontier.add(chunk)
            members = {id(c) for c in frontier.pareto}
            assert entered == [id(c) in members for c in chunk]
        assert [c.point["i"] for c in frontier.pareto] == [c.point["i"] for c in expected]

    @given(chunked_streams())
    @settings(max_examples=100, deadline=None)
    def test_one_shot_front_equals_oracle_in_small_blocks(self, stream):
        k, rows, _ = stream
        keys = _keys(k)
        candidates = _candidates(rows, keys)
        expected = pareto_oracle.pareto_front(candidates, _objectives, keys)
        # A tiny block bound forces the row-blocked comparison path.
        with mock.patch.object(pareto_mod, "_BLOCK_CELLS", 7):
            assert pareto_front(candidates, _objectives, keys) == expected
        assert pareto_front(candidates, _objectives, keys) == expected


def _golden_race():
    spec = get_kernel("gemm-ncubed")
    space = build_design_space(spec)
    evaluator = BudgetedEvaluator(HLSOracle(spec), spec, space, QueryBudget(600))
    result = StrategyRacer(evaluator, DEFAULT_ARMS, seed=7).run()
    return {
        "kernel": "gemm-ncubed",
        "budget": 600,
        "seed": 7,
        "pareto": [point_key(c.point) for c in result.pareto],
        "top": [point_key(c.point) for c in result.top],
        "ledger": result.ledger(),
        "new_pareto": {name: o.new_pareto for name, o in result.totals.items()},
    }


class TestGoldenRace:
    """A seeded race's front, top-M, ledger and novelty, pinned by a golden file.

    The HLS simulator stands in for the surrogate so the objectives
    carry no model weights.  Regenerate with REPRO_REGEN_GOLDEN=1 only
    after an intentional change to search behaviour.
    """

    def test_race_matches_golden(self):
        got = _golden_race()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            with open(GOLDEN_RACE, "w") as handle:
                json.dump(got, handle, indent=1)
                handle.write("\n")
        with open(GOLDEN_RACE) as handle:
            golden = json.load(handle)
        assert got["pareto"] == golden["pareto"]
        assert got["top"] == golden["top"]
        assert got["ledger"] == golden["ledger"]
        assert got["new_pareto"] == golden["new_pareto"]


class TestTraceHook:
    """``search.pareto_merge`` is resolved per call, once per non-empty merge."""

    def _count(self, monkeypatch):
        calls = {"hook": 0, "non_empty": 0}
        original_hook = search_mod.pareto_merge
        original_merge = Frontier.merge

        def hook(*args, **kwargs):
            calls["hook"] += 1
            return original_hook(*args, **kwargs)

        def merge(self, top, pareto):
            calls["non_empty"] += bool(pareto)
            return original_merge(self, top, pareto)

        monkeypatch.setattr(search_mod, "pareto_merge", hook)
        monkeypatch.setattr(Frontier, "merge", merge)
        return calls

    def test_exhaustive_sweep(self, monkeypatch):
        calls = self._count(monkeypatch)
        spec = get_kernel("spmv-ellpack")
        space = build_design_space(spec)
        result = ModelDSE(
            HLSOracle(spec), spec, space, top_m=5, batch_size=16
        ).run(time_limit_seconds=300)
        assert result.exhaustive and result.pareto
        assert calls["hook"] == calls["non_empty"] > 1

    def test_race(self, monkeypatch):
        calls = self._count(monkeypatch)
        spec = get_kernel("fir")
        space = build_design_space(spec)
        evaluator = BudgetedEvaluator(HLSOracle(spec), spec, space, QueryBudget(60))
        result = StrategyRacer(evaluator, DEFAULT_ARMS, round_budget=8, seed=0).run()
        assert result.pareto
        assert calls["hook"] == calls["non_empty"] > 1
