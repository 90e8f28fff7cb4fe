"""Tests for the sharded parallel DSE orchestrator (`repro.dse.parallel`).

The contract under test is exactness under failure: however the shards
are executed — in-process, across worker processes, through a crash and
retry, or split over two runs by a checkpoint — the merged result must
be bit-identical to the serial explorer's top-K ordering and Pareto
front.  Fault injection goes through :class:`WorkerHooks`, the same
hook the scaling benchmark uses for its simulated dispatch cost.
"""

import json
import logging
import os

import pytest

from repro.cli import main
from repro.designspace import build_design_space, point_key
from repro.dse import (
    DSECheckpoint,
    ModelDSE,
    ParallelDSE,
    ShardResult,
    WorkerHooks,
)
from repro.dse.parallel import candidate_from_payload, candidate_payload
from repro.errors import CheckpointError, DSEError, WorkerCrashError
from repro.kernels import get_kernel

from tests.test_pipeline import make_predictor

KERNEL = "fir"
TOP_M = 5


@pytest.fixture(scope="module")
def predictor():
    return make_predictor()


@pytest.fixture(scope="module")
def spec():
    return get_kernel(KERNEL)


@pytest.fixture(scope="module")
def space(spec):
    return build_design_space(spec)


# Function-scoped on purpose: the suite's autouse float64 fixture is
# function-scoped, and a module-scoped result would be computed *before*
# it on first use (higher scopes set up first) — i.e. under float32 —
# while the run under test executes under float64.
@pytest.fixture()
def serial_result(predictor, spec, space):
    return ModelDSE(predictor, spec, space, top_m=TOP_M).run()


def signature(result):
    """Bit-exact comparable view: top order + Pareto front, points + floats."""
    return (
        [(point_key(c.point), c.prediction) for c in result.top],
        [(point_key(c.point), c.prediction) for c in result.pareto],
    )


class _Abort(Exception):
    """Simulated mid-run kill for in-process checkpoint tests."""


# ---------------------------------------------------------------------------
# bit-identity


class TestBitIdentity:
    def test_workers1_matches_serial(self, predictor, spec, space, serial_result):
        result = ParallelDSE(predictor, spec, space, workers=1, top_m=TOP_M).run()
        assert signature(result) == signature(serial_result)
        assert result.explored == serial_result.explored
        assert result.workers == 1
        assert result.shards > 1
        assert result.retries == 0

    def test_workers1_never_spawns_processes(self, predictor, spec, space,
                                             serial_result, monkeypatch):
        dse = ParallelDSE(predictor, spec, space, workers=1, top_m=TOP_M)
        monkeypatch.setattr(
            dse, "_run_workers",
            lambda *a, **k: pytest.fail("workers=1 must stay in-process"),
        )
        assert signature(dse.run()) == signature(serial_result)

    def test_multiprocess_matches_serial(self, predictor, spec, space, serial_result):
        result = ParallelDSE(predictor, spec, space, workers=3, top_m=TOP_M).run()
        assert signature(result) == signature(serial_result)
        assert result.explored == serial_result.explored
        assert result.workers == 3
        assert result.retries == 0
        # Worker pipeline stats made it back through the merge.
        assert result.stats is not None
        assert result.stats.points == serial_result.explored

    def test_explicit_shard_size_is_result_invariant(self, predictor, spec, space,
                                                     serial_result):
        result = ParallelDSE(
            predictor, spec, space, workers=1, top_m=TOP_M, shard_size=7
        ).run()
        assert signature(result) == signature(serial_result)

    def test_clock_cut_run_says_so(self, predictor, spec, space):
        whole = ParallelDSE(predictor, spec, space, workers=1, top_m=TOP_M).run()
        assert not whole.time_limited
        cut = ParallelDSE(
            predictor, spec, space, workers=1, top_m=TOP_M, shard_size=7,
            hooks=WorkerHooks(batch_overhead_seconds=0.3),
        ).run(time_limit_seconds=0.1)
        assert cut.time_limited
        assert cut.explored < whole.explored

    def test_rejects_unboundable_spaces(self, predictor):
        big = get_kernel("2mm")
        big_space = build_design_space(big)
        with pytest.raises(DSEError, match="exhaustive"):
            ParallelDSE(predictor, big, big_space, workers=2).run()


# ---------------------------------------------------------------------------
# crash handling


class TestCrashRetry:
    def test_killed_worker_shard_retried_exactly_once(
        self, predictor, spec, space, serial_result, caplog
    ):
        def die_once(worker_id, shard_index, attempt):
            if shard_index == 2 and attempt == 1:
                os._exit(13)

        with caplog.at_level(logging.WARNING, logger="repro.dse.parallel"):
            result = ParallelDSE(
                predictor, spec, space, workers=2, top_m=TOP_M,
                hooks=WorkerHooks(on_shard_start=die_once),
            ).run()
        assert result.retries == 1
        assert signature(result) == signature(serial_result)
        retry_logs = [r for r in caplog.records if "retrying" in r.getMessage()]
        assert len(retry_logs) == 1
        assert "shard 2" in retry_logs[0].getMessage()

    def test_repeatedly_killed_shard_raises(self, predictor, spec, space):
        def die_always(worker_id, shard_index, attempt):
            if shard_index == 1:
                os._exit(13)

        with pytest.raises(WorkerCrashError, match="shard 1"):
            ParallelDSE(
                predictor, spec, space, workers=2, top_m=TOP_M,
                hooks=WorkerHooks(on_shard_start=die_always),
            ).run()

    def test_stalled_worker_is_killed_and_retried(
        self, predictor, spec, space, serial_result
    ):
        import time as time_mod

        def stall_once(worker_id, shard_index, attempt):
            if shard_index == 0 and attempt == 1:
                time_mod.sleep(60)

        # 3s window: the 60s stall is still detected immediately, but the
        # retried worker's first heartbeat is not racing a 1s deadline on
        # a loaded single-core runner (where it flaked).
        result = ParallelDSE(
            predictor, spec, space, workers=2, top_m=TOP_M,
            hooks=WorkerHooks(on_shard_start=stall_once),
            heartbeat_timeout_seconds=3.0,
        ).run()
        assert result.retries == 1
        assert signature(result) == signature(serial_result)

    def test_deterministic_worker_exception_is_not_retried(
        self, predictor, spec, space
    ):
        def boom(worker_id, shard_index, attempt):
            if shard_index == 0:
                raise ValueError("injected deterministic failure")

        with pytest.raises(DSEError, match="injected deterministic failure"):
            ParallelDSE(
                predictor, spec, space, workers=2, top_m=TOP_M,
                hooks=WorkerHooks(on_shard_start=boom),
            ).run()


# ---------------------------------------------------------------------------
# clock robustness: duration/deadline math must not touch the wall clock


class TestMonotonicClocks:
    def test_wall_clock_jump_does_not_trigger_stall_retry(
        self, predictor, spec, space, serial_result, monkeypatch
    ):
        """A stepped system clock must not fake (or hide) a stall.

        ``time.time`` is patched to jump hours on every read — under the
        old wall-clock stall detector every liveness check would exceed
        ``heartbeat_timeout_seconds`` and kill healthy workers (and the
        deadline check would abort the sweep).  Heartbeats and the stall
        timeout now run on ``time.monotonic``, so the run completes with
        zero retries and a bit-identical result.
        """
        import time as time_mod

        real_time = time_mod.time
        state = {"offset": 0.0}

        def jumpy_wall_clock():
            # Alternate huge forward and backward steps (NTP slam,
            # suspend/resume, manual clock set).
            state["offset"] = -state["offset"] + (7200.0 if state["offset"] <= 0 else 0.0)
            return real_time() + state["offset"]

        monkeypatch.setattr(time_mod, "time", jumpy_wall_clock)
        result = ParallelDSE(
            predictor, spec, space, workers=2, top_m=TOP_M,
            heartbeat_timeout_seconds=5.0,
        ).run()
        assert result.retries == 0
        assert signature(result) == signature(serial_result)

    def test_backwards_wall_clock_step_does_not_stall_serial_sweep(
        self, predictor, spec, space, serial_result, monkeypatch
    ):
        """The in-process deadline check is monotonic too: a wall clock
        stepped far backwards (which once meant 'never out of time') and
        then far forwards (which once meant 'already out of time') leaves
        the sweep untouched."""
        import itertools
        import time as time_mod

        real_time = time_mod.time
        offsets = itertools.cycle([-86_400.0, 86_400.0])
        monkeypatch.setattr(time_mod, "time", lambda: real_time() + next(offsets))
        result = ParallelDSE(predictor, spec, space, workers=1, top_m=TOP_M).run()
        assert signature(result) == signature(serial_result)
        assert result.explored == serial_result.explored

    def test_heartbeat_lag_and_retry_instruments_update(
        self, predictor, spec, space
    ):
        from repro.obs import REGISTRY

        lag = REGISTRY.histogram("dse.heartbeat_lag_seconds")
        completed = REGISTRY.counter("dse.shards_completed")
        lag0, done0 = lag.count, completed.value
        result = ParallelDSE(predictor, spec, space, workers=2, top_m=TOP_M).run()
        assert completed.value - done0 == result.shards
        assert lag.count > lag0
        # Worker monotonic stamps share the parent's epoch under fork,
        # so observed lag is a sane small non-negative queue delay.
        assert 0.0 <= lag.quantile(1.0) < 60.0


# ---------------------------------------------------------------------------
# checkpoint / resume


class TestCheckpointResume:
    @pytest.fixture()
    def ckpt(self, tmp_path):
        return str(tmp_path / "dse.ckpt.json")

    def _interrupted_run(self, predictor, spec, space, ckpt, shards_before_kill=2):
        """Run in-process until ``shards_before_kill`` shards are journalled."""
        done = []

        def abort_after(worker_id, shard_index, attempt):
            if len(done) >= shards_before_kill:
                raise _Abort()
            done.append(shard_index)

        with pytest.raises(_Abort):
            ParallelDSE(
                predictor, spec, space, workers=1, top_m=TOP_M,
                checkpoint_path=ckpt,
                hooks=WorkerHooks(on_shard_start=abort_after),
            ).run()
        return done

    def test_resume_skips_completed_shards(
        self, predictor, spec, space, serial_result, ckpt
    ):
        finished = self._interrupted_run(predictor, spec, space, ckpt)
        reran = []
        result = ParallelDSE(
            predictor, spec, space, workers=1, top_m=TOP_M,
            checkpoint_path=ckpt, resume=True,
            hooks=WorkerHooks(on_shard_start=lambda w, s, a: reran.append(s)),
        ).run()
        assert result.shards_resumed == len(finished)
        assert not set(reran) & set(finished)
        assert len(reran) == result.shards - len(finished)
        assert signature(result) == signature(serial_result)

    def test_journal_format(self, predictor, spec, space, ckpt):
        self._interrupted_run(predictor, spec, space, ckpt)
        with open(ckpt) as handle:
            journal = json.load(handle)
        assert journal["schema_version"] == 1
        assert journal["kernel"] == KERNEL
        assert journal["total_points"] > 0
        assert sorted(journal["completed"]) == ["0", "1"]
        shard = journal["completed"]["0"]
        assert shard["attempts"] == 1
        assert shard["explored"] > 0
        candidate = shard["top"][0]
        assert set(candidate) == {"point", "prediction"}
        # The running Pareto front is journalled alongside the shards.
        assert isinstance(journal["pareto"], list) and journal["pareto"]
        roundtrip = candidate_from_payload(candidate)
        assert candidate_payload(roundtrip) == candidate

    def test_half_written_checkpoint_raises(self, predictor, spec, space, ckpt):
        self._interrupted_run(predictor, spec, space, ckpt)
        with open(ckpt) as handle:
            text = handle.read()
        with open(ckpt, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(CheckpointError, match="corrupt or half-written"):
            ParallelDSE(
                predictor, spec, space, workers=1, top_m=TOP_M,
                checkpoint_path=ckpt, resume=True,
            ).run()

    def test_parameter_mismatch_raises(self, predictor, spec, space, ckpt):
        self._interrupted_run(predictor, spec, space, ckpt)
        with pytest.raises(CheckpointError, match="different run"):
            ParallelDSE(
                predictor, spec, space, workers=1, top_m=TOP_M + 1,
                checkpoint_path=ckpt, resume=True,
            ).run()

    def test_missing_checkpoint_starts_fresh(
        self, predictor, spec, space, serial_result, ckpt
    ):
        result = ParallelDSE(
            predictor, spec, space, workers=1, top_m=TOP_M,
            checkpoint_path=ckpt, resume=True,
        ).run()
        assert result.shards_resumed == 0
        assert signature(result) == signature(serial_result)
        assert os.path.exists(ckpt)

    def test_resume_requires_checkpoint_path(self, predictor, spec, space):
        with pytest.raises(DSEError, match="checkpoint_path"):
            ParallelDSE(predictor, spec, space, workers=1, resume=True)

    def test_multiprocess_run_honours_checkpoint(
        self, predictor, spec, space, serial_result, ckpt
    ):
        finished = self._interrupted_run(predictor, spec, space, ckpt)
        reran = []

        def record(worker_id, shard_index, attempt):
            reran.append(shard_index)

        result = ParallelDSE(
            predictor, spec, space, workers=2, top_m=TOP_M,
            checkpoint_path=ckpt, resume=True,
            hooks=WorkerHooks(on_shard_start=record),
        ).run()
        assert result.shards_resumed == len(finished)
        assert signature(result) == signature(serial_result)
        # reran was appended in forked children; the parent-side list stays
        # empty, so assert via the journal instead.
        journal = json.load(open(ckpt))
        assert len(journal["completed"]) == result.shards
        attempts = [entry["attempts"] for entry in journal["completed"].values()]
        assert all(a == 1 for a in attempts)

    def test_fingerprint_is_stable(self, spec, space):
        args = (spec.name, space, TOP_M, 0.8, 7, 14, 97)
        assert DSECheckpoint.fingerprint(*args) == DSECheckpoint.fingerprint(*args)
        changed = DSECheckpoint.fingerprint(spec.name, space, TOP_M, 0.8, 8, 14, 97)
        assert changed != DSECheckpoint.fingerprint(*args)


# ---------------------------------------------------------------------------
# shard-result transport


class TestShardResultPayload:
    def test_round_trip(self, predictor, spec, space):
        result = ParallelDSE(predictor, spec, space, workers=1, top_m=TOP_M).run()
        shard = ShardResult(
            index=3, top=result.top, pareto=result.pareto[:4],
            explored=result.explored, stats=result.stats, worker=1, attempts=2,
        )
        clone = ShardResult.from_payload(3, shard.to_payload())
        assert signature(clone) == signature(shard)
        assert clone.explored == shard.explored
        assert clone.attempts == 2 and clone.worker == 1
        assert clone.stats is not None
        assert clone.stats.points == shard.stats.points

    def test_malformed_payload_raises(self):
        with pytest.raises(CheckpointError, match="shard 5"):
            ShardResult.from_payload(5, {"top": [], "pareto": []})


# ---------------------------------------------------------------------------
# CLI integration


class TestParallelCLI:
    @pytest.fixture(scope="class")
    def artifact_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifact") / "model"
        make_predictor().save(str(path))
        return path

    def test_workers1_takes_plain_serial_path(self, artifact_dir, monkeypatch, capsys):
        import repro.dse as dse_pkg

        monkeypatch.setattr(
            dse_pkg, "ParallelDSE",
            lambda *a, **k: pytest.fail("--workers 1 must not shard"),
        )
        code = main(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--workers", "1"]
        )
        assert code == 0
        assert "parallel:" not in capsys.readouterr().out

    def test_parallel_output_matches_serial(self, artifact_dir, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        assert main(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--output", str(serial_out)]
        ) == 0
        assert main(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--workers", "2", "--output", str(parallel_out)]
        ) == 0
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        assert parallel["top"] == serial["top"]
        assert parallel["pareto"] == serial["pareto"]
        assert parallel["workers"] == 2 and parallel["shards"] > 1
        assert "parallel: 2 worker(s)" in capsys.readouterr().out

    def test_resume_without_checkpoint_errors(self, artifact_dir, capsys):
        code = main(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--resume"]
        )
        assert code == 1
        assert "--resume requires --checkpoint" in capsys.readouterr().err
