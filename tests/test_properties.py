"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import divisors, factor_candidates, point_key
from repro.dse import pareto_front
from repro.frontend.pragmas import PipelineOption
from repro.model import TargetNormalizer
from repro.nn import Segments, Tensor, concat, stack_max
from repro.nn.tensor import IndexPlan
from tests.pareto_oracle import dominates

# -- numeric strategies ------------------------------------------------------

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def arrays(rows=st.integers(1, 8), cols=st.integers(1, 6)):
    return st.tuples(rows, cols).flatmap(
        lambda shape: st.lists(
            finite_floats, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]
        ).map(lambda flat: np.array(flat).reshape(shape))
    )


class TestTensorProperties:
    @given(arrays())
    @settings(max_examples=30, deadline=None)
    def test_add_commutative(self, a):
        b = a * 2.0 + 1.0
        left = (Tensor(a) + Tensor(b)).data
        right = (Tensor(b) + Tensor(a)).data
        np.testing.assert_allclose(left, right)

    @given(arrays())
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, a):
        once = Tensor(a).relu().data
        twice = Tensor(once).relu().data
        np.testing.assert_allclose(once, twice)

    @given(arrays())
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_sum_to_one(self, a):
        out = Tensor(a).softmax(axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    @given(arrays())
    @settings(max_examples=30, deadline=None)
    def test_stack_max_upper_bounds_inputs(self, a):
        b = a - 1.0
        out = stack_max([Tensor(a), Tensor(b)]).data
        assert np.all(out >= a - 1e-12)
        assert np.all(out >= b - 1e-12)

    @given(arrays(), arrays())
    @settings(max_examples=20, deadline=None)
    def test_concat_preserves_content(self, a, b):
        if a.shape[0] != b.shape[0]:
            b = np.resize(b, (a.shape[0], b.shape[1]))
        out = concat([Tensor(a), Tensor(b)], axis=1).data
        np.testing.assert_allclose(out[:, : a.shape[1]], a)
        np.testing.assert_allclose(out[:, a.shape[1]:], b)


class TestSegmentProperties:
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=30).map(sorted),
        st.integers(6, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_equals_loop(self, ids, num_segments):
        ids = np.array(ids)
        rng = np.random.default_rng(0)
        data = rng.normal(size=(ids.size, 3))
        seg = Segments(ids, num_segments)
        fast = seg.sum(data)
        slow = np.zeros((num_segments, 3))
        for row, sid in zip(data, ids):
            slow[sid] += row
        np.testing.assert_allclose(fast, slow, atol=1e-9)

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=30),
        st.integers(10, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_scatter_add_equals_loop(self, index, num_rows):
        index = np.array(index)
        rng = np.random.default_rng(1)
        values = rng.normal(size=(index.size, 2))
        plan = IndexPlan(index, num_rows)
        fast = plan.scatter_add(values)
        slow = np.zeros((num_rows, 2))
        for row, i in zip(values, index):
            slow[i] += row
        np.testing.assert_allclose(fast, slow, atol=1e-9)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20).map(sorted))
    @settings(max_examples=30, deadline=None)
    def test_segment_softmax_partition_of_unity(self, ids):
        ids = np.array(ids)
        seg = Segments(ids, 5)
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(ids.size, 1)))
        att = logits.segment_softmax(seg)
        sums = att.segment_sum(seg).data[:, 0]
        for s, count in zip(sums, seg.counts):
            if count:
                assert abs(s - 1.0) < 1e-6


class TestDesignSpaceProperties:
    @given(st.integers(1, 4096))
    @settings(max_examples=60, deadline=None)
    def test_divisors_divide(self, n):
        for d in divisors(n):
            assert n % d == 0
        assert divisors(n)[0] == 1
        assert divisors(n)[-1] == n

    @given(st.integers(1, 4096), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_factor_candidates_valid(self, trip, max_candidates):
        cands = factor_candidates(trip, max_candidates)
        assert len(cands) <= max_candidates
        assert cands == sorted(cands)
        assert all(trip % c == 0 for c in cands)
        assert 1 in cands

    @given(
        st.dictionaries(
            st.sampled_from(["A", "B", "C"]),
            st.one_of(st.integers(1, 64), st.sampled_from(list(PipelineOption))),
            min_size=1,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_point_key_injective_on_values(self, point):
        key = point_key(point)
        # Any change to one value changes the key.
        for name in point:
            mutated = dict(point)
            mutated[name] = 999
            assert point_key(mutated) != key


class TestParetoProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.1, 100, allow_nan=False), st.floats(0.1, 100, allow_nan=False)),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_front_members_not_dominated(self, pairs):
        items = [{"latency": a, "DSP": b} for a, b in pairs]
        front = pareto_front(items, lambda x: x, keys=("latency", "DSP"))
        assert front  # never empty
        for member in front:
            assert not any(
                dominates(other, member, ("latency", "DSP")) for other in items
            )

    @given(st.lists(st.floats(0.1, 100, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_single_objective_front_is_minimum(self, values):
        items = [{"latency": v} for v in values]
        front = pareto_front(items, lambda x: x, keys=("latency",))
        assert min(values) in [f["latency"] for f in front]


class TestNormalizerProperties:
    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_transform_monotone_decreasing(self, latencies):
        norm = TargetNormalizer().fit(latencies)
        ordered = sorted(set(latencies))
        transformed = [norm.transform_latency(l) for l in ordered]
        assert transformed == sorted(transformed, reverse=True)
        assert transformed[-1] >= -1e-9  # max latency maps to ~0

    @given(st.lists(st.integers(1, 10**9), min_size=1, max_size=20), st.integers(1, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_latency(self, latencies, probe):
        norm = TargetNormalizer().fit(latencies)
        assert norm.inverse_latency(norm.transform_latency(probe)) == (
            __import__("pytest").approx(probe, rel=1e-9)
        )
