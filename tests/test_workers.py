"""Tests for the shared fork-worker core (`repro.workers`).

The property under test is isolation: a worker that dies at any point of
sending a message — just after it, or halfway through its bytes — costs
only its own pipe.  Its siblings' messages still arrive, and the dead
worker's pipe reaches end-of-file instead of blocking the parent.
"""

import os
import struct
import time

from repro.workers import ForkSupervisor


def _report_then_exit(worker_id, outbox, count, crash):
    for index in range(count):
        outbox.put(("hb", worker_id, index))
    if crash:
        os._exit(13)


def _die_mid_message(worker_id, outbox):
    # A frame header announcing 1000 bytes, then only 10 of them.
    fd = outbox._connection.fileno()
    os.write(fd, struct.pack("!i", 1000) + b"x" * 10)
    os._exit(13)


def _receive_until(supervisor, done, timeout=10.0):
    messages = []
    deadline = time.monotonic() + timeout
    while not done(messages) and time.monotonic() < deadline:
        messages.extend(supervisor.receive(0.05))
    return messages


class TestForkSupervisor:
    def test_messages_arrive_in_order_per_worker(self):
        supervisor = ForkSupervisor(_report_then_exit)
        try:
            for _ in range(2):
                supervisor.spawn(3, False)
            messages = _receive_until(supervisor, lambda got: len(got) == 6)
        finally:
            supervisor.shutdown()
        for worker_id in (0, 1):
            assert [m for m in messages if m[1] == worker_id] == [
                ("hb", worker_id, index) for index in range(3)
            ]

    def test_exit_right_after_a_message_never_blocks_siblings(self):
        """A shared ``multiprocessing.Queue`` hung here: the dying
        worker's feeder thread could take the queue's cross-process
        write lock to its grave, and no sibling message got through."""
        supervisor = ForkSupervisor(_report_then_exit)
        try:
            for _ in range(10):
                crashing = supervisor.spawn(1, True)
                survivor = supervisor.spawn(1, False)
                wanted = {crashing.worker_id, survivor.worker_id}
                messages = _receive_until(
                    supervisor, lambda got: {m[1] for m in got} >= wanted
                )
                assert {m[1] for m in messages} == wanted
                for handle in (crashing, survivor):
                    handle.process.join(timeout=10.0)
                    supervisor.discard(handle.worker_id)
        finally:
            supervisor.shutdown()

    def test_death_mid_message_closes_only_that_inbox(self):
        supervisor = ForkSupervisor(_die_mid_message)
        try:
            broken = supervisor.spawn()
            broken.process.join(timeout=10.0)
            assert broken.process.exitcode == 13
            supervisor.target = _report_then_exit
            healthy = supervisor.spawn(2, False)
            messages = _receive_until(
                supervisor,
                lambda got: len(got) == 2 and broken.inbox is None,
            )
            assert broken.inbox is None
            assert messages == [("hb", healthy.worker_id, 0), ("hb", healthy.worker_id, 1)]
        finally:
            supervisor.shutdown()

    def test_stall_scan_tolerates_a_discard_mid_scan(self):
        """The serve pool's monitor thread scans while the main thread
        spawns and discards; iterating the live dict killed the monitor
        with "dictionary changed size during iteration"."""
        supervisor = ForkSupervisor(_report_then_exit)
        try:
            first = supervisor.spawn(0, False)
            second = supervisor.spawn(0, False)
            alive = first.alive

            def alive_while_another_thread_discards():
                supervisor.discard(second.worker_id)
                return alive()

            first.alive = alive_while_another_thread_discards
            supervisor.stalled(3600.0)
        finally:
            supervisor.shutdown()

    def test_discard_and_shutdown_close_inboxes(self):
        supervisor = ForkSupervisor(_report_then_exit)
        first = supervisor.spawn(0, False)
        second = supervisor.spawn(0, False)
        first.process.join(timeout=10.0)
        assert supervisor.discard(first.worker_id) is first
        assert first.inbox is None
        supervisor.shutdown()
        assert second.inbox is None
        assert supervisor.receive(0.0) == []
