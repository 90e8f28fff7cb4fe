"""Tests for the database, the evaluator, and the HLS-in-the-loop
searches: AutoDSE's bottleneck and hybrid explorers and random sampling
as budgeted strategies scored by the tool, and the database generator
that runs them."""

from dataclasses import asdict

import pytest

from repro.designspace import build_design_space
from repro.dse import BottleneckStrategy, BudgetedEvaluator, QueryBudget, StrategyRacer
from repro.durable import json_digest
from repro.errors import DatabaseError
from repro.explorer import (
    Database,
    DesignRecord,
    Evaluator,
    deserialize_point,
    generate_database,
    serialize_point,
)
from repro.frontend.pragmas import PipelineOption
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel


@pytest.fixture(scope="module")
def atax():
    return get_kernel("atax")


@pytest.fixture(scope="module")
def atax_space(atax):
    return build_design_space(atax)


@pytest.fixture()
def evaluator():
    return Evaluator(MerlinHLSTool(), Database(), parallelism=8)


def tool_search(evaluator, spec, space, strategy, max_evals, max_hours=None, seed=0):
    """Run one registered strategy alone with the HLS tool scoring each
    point; the records it commits carry the strategy's name."""
    budget = QueryBudget(max_evals, max_hours=max_hours)
    search = BudgetedEvaluator(evaluator, spec, space, budget)
    evaluator.source = strategy
    return StrategyRacer(search, [strategy], seed=seed).run()


def best_latency(race):
    return race.top[0].prediction.latency if race.top else None


class TestSerialization:
    def test_point_roundtrip(self):
        point = {"__PIPE__L0": PipelineOption.FINE, "__PARA__L0": 8}
        assert deserialize_point(serialize_point(point)) == point

    def test_database_save_load(self, tmp_path, atax, atax_space, evaluator):
        tool_search(evaluator, atax, atax_space, "random", max_evals=10)
        db = evaluator.database
        path = tmp_path / "db.json"
        db.save(path)
        loaded = Database.load(path)
        assert len(loaded) == len(db)
        first = next(iter(loaded))
        original = db.get(first.kernel, first.point_key)
        assert original.latency == first.latency
        assert original.utilization == first.utilization


class TestDatabase:
    def test_add_deduplicates(self, atax, atax_space):
        db = Database()
        tool = MerlinHLSTool()
        point = atax_space.default_point()
        result = tool.synthesize(atax, point)
        record = DesignRecord.from_result(result, point, source="x")
        assert db.add(record)
        assert not db.add(record)
        assert len(db) == 1

    def test_get_missing_raises(self):
        with pytest.raises(DatabaseError):
            Database().get("atax", "nope")

    def test_best_valid_respects_fit(self, atax, atax_space, evaluator):
        tool_search(evaluator, atax, atax_space, "random", max_evals=40, seed=3)
        db = evaluator.database
        best = db.best_valid("atax", fit_threshold=0.8)
        if best is not None:
            assert best.valid
            assert all(u < 0.8 for u in best.utilization.values())
            for record in db.valid_records("atax"):
                if all(u < 0.8 for u in record.utilization.values()):
                    assert best.latency <= record.latency

    def test_stats_by_round(self, atax, atax_space):
        db = Database()
        tool = MerlinHLSTool()
        evaluator = Evaluator(tool, db)
        evaluator.evaluate(atax, atax_space.default_point(), round=0)
        point2 = dict(atax_space.default_point())
        knob = atax_space.knobs[0]
        point2[knob.name] = knob.candidates[-1]
        evaluator.evaluate(atax, point2, round=2)
        assert db.stats(max_round=0)["total"] == 1
        assert db.stats()["total"] == 2

    def test_merge(self, atax, atax_space):
        tool = MerlinHLSTool()
        db1, db2 = Database(), Database()
        Evaluator(tool, db1).evaluate(atax, atax_space.default_point())
        added = db2.merge(db1)
        assert added == 1

    def test_save_is_atomic_under_crash(self, tmp_path, atax, atax_space, monkeypatch):
        """A crash mid-save never clobbers the existing database file."""
        import os

        db1 = Database()
        Evaluator(MerlinHLSTool(), db1).evaluate(atax, atax_space.default_point())
        path = tmp_path / "db.json"
        db1.save(path)
        before = path.read_bytes()

        db2 = Database()
        evaluator = Evaluator(MerlinHLSTool(), db2)
        evaluator.evaluate(atax, atax_space.default_point())
        point2 = dict(atax_space.default_point())
        knob = atax_space.knobs[0]
        point2[knob.name] = knob.candidates[-1]
        evaluator.evaluate(atax, point2)

        real_replace = os.replace

        def crash(src, dst):  # the process "dies" between write and rename
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            db2.save(path)
        monkeypatch.setattr(os, "replace", real_replace)

        # The original file is byte-for-byte untouched and still loads,
        # and the temp file did not leak.
        assert path.read_bytes() == before
        assert len(Database.load(path)) == len(db1)
        assert list(tmp_path.iterdir()) == [path]

        # The interrupted save can simply be retried.
        db2.save(path)
        assert len(Database.load(path)) == len(db2)
        assert db2.merge(db1) == 0


class TestEvaluator:
    def test_commits_to_database(self, atax, atax_space, evaluator):
        evaluator.evaluate(atax, atax_space.default_point())
        assert len(evaluator.database) == 1

    def test_parallel_elapsed_less_than_total(self, atax, atax_space, evaluator):
        for point in atax_space.sample(__import__("random").Random(0), 16):
            evaluator.evaluate(atax, point)
        assert evaluator.elapsed_seconds < evaluator.synth_seconds_total
        assert evaluator.elapsed_seconds > 0


class TestExplorers:
    def test_bottleneck_improves_over_default(self, atax, atax_space, evaluator):
        tool = evaluator.tool
        default_latency = tool.synthesize(atax, atax_space.default_point()).latency
        result = tool_search(evaluator, atax, atax_space, "bottleneck", max_evals=40)
        assert best_latency(result) is not None
        assert best_latency(result) < default_latency

    def test_bottleneck_trajectory_monotone(self, atax, atax_space, evaluator):
        search = BudgetedEvaluator(evaluator, atax, atax_space, QueryBudget(40))
        arm = BottleneckStrategy(search)
        StrategyRacer(search, [arm]).run()
        latencies = [lat for _, lat in arm.trajectory]
        # After the first committed improvement, quality never regresses.
        assert all(b <= a for a, b in zip(latencies[1:], latencies[2:]))

    def test_budget_respected(self, atax, atax_space, evaluator):
        result = tool_search(evaluator, atax, atax_space, "bottleneck", max_evals=15)
        assert result.queries <= 15

    def test_time_budget_respected(self, atax, atax_space, evaluator):
        result = tool_search(
            evaluator, atax, atax_space, "bottleneck", max_evals=10_000, max_hours=0.5
        )
        # One synthesis exceeds the budget, so it stops almost at once.
        assert result.queries < 30

    def test_hours_cap_stops_the_tool_mid_batch(self, atax, atax_space, evaluator):
        """The cap is read before each synthesis: once one design has
        used it up, the rest of the batch comes back unscored and
        uncharged."""
        budget = QueryBudget(100, max_hours=1e-9)
        search = BudgetedEvaluator(evaluator, atax, atax_space, budget)
        points = atax_space.sample(__import__("random").Random(0), 5)
        scored, _ = search.evaluate(points)
        assert scored[0] is not None and scored[1:] == [None] * 4
        assert budget.spent == 1 and budget.exhausted
        assert len(evaluator.database) == 1

    def test_hybrid_explores_neighbors(self, atax, atax_space, evaluator):
        result = tool_search(evaluator, atax, atax_space, "hybrid", max_evals=60)
        sources = {r.source for r in evaluator.database}
        assert sources == {"hybrid"}
        assert result.queries > 5

    def test_random_seeded_deterministic(self, atax, atax_space):
        tool = MerlinHLSTool()
        keys = []
        for _ in range(2):
            evaluator = Evaluator(tool, Database())
            tool_search(evaluator, atax, atax_space, "random", max_evals=10, seed=7)
            keys.append(sorted(r.point_key for r in evaluator.database))
        assert keys[0] == keys[1]


class TestGenerateDatabase:
    def test_small_generation(self):
        db = generate_database(kernels=["atax", "spmv-crs"], scale=0.05, seed=1)
        assert db.stats()["total"] > 10
        assert set(db.kernels()) == {"atax", "spmv-crs"}
        sources = {r.source for r in db}
        assert "random" in sources

    def test_directed_phases_respect_budget(self):
        """The hybrid's neighbour step stops when the budget runs out.

        atax at scale 0.05 targets 30 designs; the bottleneck and hybrid
        phases together may spend 7 + 9 of them.
        """
        db = generate_database(kernels=["atax", "spmv-crs"], scale=0.05, seed=1)
        directed = [
            r for r in db
            if r.kernel == "atax" and r.source in ("bottleneck", "hybrid")
        ]
        assert len(directed) <= 16


class TestPinnedOutcomes:
    """Exact outcomes of the HLS-in-the-loop searches, pinned so that a
    change to the search core shows up as a changed record or row."""

    @pytest.mark.parametrize(
        "scale, digest",
        [
            (0.3, "e3387876b2db27f5ce0ab34fc46c514473f04d2f1f7cd1b4dc80d11c3943727e"),
            (0.1, "efb009900b7719b4f579ee85d5d0a8108a2d2e6c0764813c44350cdb26bdc866"),
        ],
    )
    def test_generated_database_digest(self, scale, digest):
        db = generate_database(scale=scale, seed=0)
        assert json_digest([asdict(r) for r in db]) == digest

    @pytest.mark.parametrize(
        "kernel, latency, evaluations, hours",
        [
            ("bicg", 1136, 34, "13.024"),
            ("doitgen", 3325, 19, "4.328"),
            ("gesummv", 1717, 17, "8.000"),
            ("2mm", 45708, 74, "21.607"),
        ],
    )
    def test_table3_autodse_rows(self, kernel, latency, evaluations, hours):
        """Table 3's AutoDSE baseline: 163 evaluations or 21 simulated
        hours on 8 workers, seed 0."""
        spec = get_kernel(kernel)
        evaluator = Evaluator(MerlinHLSTool(), Database(), parallelism=8)
        result = tool_search(
            evaluator, spec, build_design_space(spec), "bottleneck",
            max_evals=163, max_hours=21.0, seed=0,
        )
        assert best_latency(result) == latency
        assert result.queries == evaluations
        assert f"{evaluator.elapsed_hours:.3f}" == hours


class TestConflictSemantics:
    """`add`/`merge` when the same point arrives from different rounds."""

    def _record(self, atax, atax_space, round=0, latency=None, source=""):
        tool = MerlinHLSTool()
        point = atax_space.default_point()
        result = tool.synthesize(atax, point)
        record = DesignRecord.from_result(result, point, source=source, round=round)
        if latency is not None:
            record.latency = latency
        return record

    def test_newer_round_wins(self, atax, atax_space):
        db = Database()
        old = self._record(atax, atax_space, round=0, latency=100, source="seed")
        new = self._record(atax, atax_space, round=2, latency=90, source="loop:r2")
        assert db.add(old)
        assert not db.add(new)  # not a NEW point…
        stored = db.get(atax.name, new.point_key)
        assert stored.latency == 90  # …but the newer label replaced the old
        assert stored.source == "loop:r2"
        assert db.overwrites == 1
        assert len(db) == 1

    def test_same_round_first_write_wins(self, atax, atax_space):
        db = Database()
        first = self._record(atax, atax_space, round=1, latency=100)
        second = self._record(atax, atax_space, round=1, latency=90)
        db.add(first)
        assert not db.add(second)
        assert db.get(atax.name, first.point_key).latency == 100
        assert db.overwrites == 0

    def test_older_round_does_not_clobber(self, atax, atax_space):
        db = Database()
        new = self._record(atax, atax_space, round=3, latency=90)
        old = self._record(atax, atax_space, round=1, latency=100)
        db.add(new)
        assert not db.add(old)
        assert db.get(atax.name, new.point_key).latency == 90
        assert db.overwrites == 0

    def test_merge_counts_overwrites_not_added(self, atax, atax_space):
        db = Database()
        db.add(self._record(atax, atax_space, round=0, latency=100))
        other = Database()
        other.add(self._record(atax, atax_space, round=2, latency=80))
        added = db.merge(other)
        assert added == 0
        assert db.overwrites == 1
        assert db.get(atax.name, next(iter(other)).point_key).latency == 80

    def test_created_provenance_roundtrips(self, tmp_path, atax, atax_space):
        db = Database()
        record = self._record(atax, atax_space, round=2, source="loop:r2")
        record.created = 1700000000.25
        db.add(record)
        path = tmp_path / "db.json"
        db.save(path)
        loaded = Database.load(path)
        stored = loaded.get(atax.name, record.point_key)
        assert stored.created == 1700000000.25
        assert stored.round == 2
        assert stored.source == "loop:r2"

    def test_load_accepts_records_without_created(self, tmp_path, atax, atax_space):
        """Databases saved before the `created` field still load."""
        import json

        db = Database()
        db.add(self._record(atax, atax_space))
        path = tmp_path / "db.json"
        db.save(path)
        raw = json.loads(path.read_text())
        for entry in raw:
            entry.pop("created")
        path.write_text(json.dumps(raw))
        loaded = Database.load(path)
        assert next(iter(loaded)).created == 0.0
