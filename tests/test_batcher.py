"""Edge cases of the dynamic micro-batcher (:mod:`repro.serve.batcher`):
latency-triggered flushes under trickle load, ragged final batches,
many concurrent submitters, queue-full shedding, and drain-on-shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve.batcher import (
    BatcherClosedError,
    DynamicBatcher,
    QueueFullError,
)


def _item(i: int) -> np.ndarray:
    return np.full(3, i, np.float32)


class TestConstruction:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            DynamicBatcher(0)
        with pytest.raises(ValueError):
            DynamicBatcher(4, max_queue=0)


class TestFlushTriggers:
    def test_size_trigger_fires_without_waiting_latency(self):
        b = DynamicBatcher(max_batch_size=2, max_latency=60.0)
        b.submit(_item(0))
        b.submit(_item(1))
        t0 = time.monotonic()
        batch = b.next_batch()
        assert len(batch) == 2
        assert time.monotonic() - t0 < 1.0  # did not sit out max_latency

    def test_timeout_only_flush_under_trickle_load(self):
        """A single queued request must come back after ~max_latency even
        though the batch never fills."""
        b = DynamicBatcher(max_batch_size=8, max_latency=0.05)
        b.submit(_item(7))
        t0 = time.monotonic()
        batch = b.next_batch()
        waited = time.monotonic() - t0
        assert [r.item[0] for r in batch] == [7.0]
        assert 0.02 <= waited < 1.0

    def test_ragged_final_batch(self):
        """max_batch_size+k requests split into one full and one ragged
        flush, preserving FIFO order."""
        b = DynamicBatcher(max_batch_size=4, max_latency=0.01)
        for i in range(6):
            b.submit(_item(i))
        first = b.next_batch()
        second = b.next_batch()
        assert [r.item[0] for r in first] == [0.0, 1.0, 2.0, 3.0]
        assert [r.item[0] for r in second] == [4.0, 5.0]
        assert b.depth() == 0


class TestConcurrency:
    def test_concurrent_submitters_all_served_exactly_once(self):
        b = DynamicBatcher(max_batch_size=8, max_latency=0.002,
                           max_queue=1024)
        n_threads, per_thread = 8, 25
        seen, seen_lock = [], threading.Lock()
        stop = threading.Event()

        def worker():
            while not stop.is_set() or b.depth():
                batch = b.next_batch()
                if batch is None:
                    return
                with seen_lock:
                    seen.extend(int(r.item[0]) for r in batch)

        workers = [threading.Thread(target=worker) for _ in range(3)]
        for w in workers:
            w.start()

        def submitter(base):
            for i in range(per_thread):
                b.submit(_item(base + i))

        submitters = [
            threading.Thread(target=submitter, args=(t * per_thread,))
            for t in range(n_threads)
        ]
        for s in submitters:
            s.start()
        for s in submitters:
            s.join()
        stop.set()
        b.shutdown()
        for w in workers:
            w.join(5.0)
        assert sorted(seen) == list(range(n_threads * per_thread))

    def test_two_workers_never_split_one_request(self):
        b = DynamicBatcher(max_batch_size=2, max_latency=0.001)
        grabbed, lock = [], threading.Lock()

        def worker():
            while True:
                batch = b.next_batch()
                if batch is None:
                    return
                with lock:
                    grabbed.extend(id(r) for r in batch)

        ws = [threading.Thread(target=worker) for _ in range(2)]
        for w in ws:
            w.start()
        reqs = [b.submit(_item(i)) for i in range(20)]
        deadline = time.monotonic() + 5.0
        while b.depth() and time.monotonic() < deadline:
            time.sleep(0.005)
        b.shutdown()
        for w in ws:
            w.join(5.0)
        assert sorted(grabbed) == sorted(id(r) for r in reqs)


class TestAdmission:
    def test_queue_full_sheds(self):
        b = DynamicBatcher(max_batch_size=4, max_latency=60.0, max_queue=3)
        for i in range(3):
            b.submit(_item(i))
        with pytest.raises(QueueFullError):
            b.submit(_item(99))
        # a full queue is a flush trigger — nothing more can arrive, so
        # the drain must not wait out the 60 s latency bound
        t0 = time.monotonic()
        assert len(b.next_batch()) == 3
        assert time.monotonic() - t0 < 1.0
        # draining one batch reopens admission
        b.submit(_item(4))

    def test_submit_after_shutdown_refused(self):
        b = DynamicBatcher(max_batch_size=4)
        b.shutdown()
        assert b.closed
        with pytest.raises(BatcherClosedError):
            b.submit(_item(0))


class TestShutdown:
    def test_shutdown_drains_queued_requests(self):
        """Queued work is still handed out after shutdown; None follows
        only once the queue is empty."""
        b = DynamicBatcher(max_batch_size=4, max_latency=60.0)
        for i in range(6):
            b.submit(_item(i))
        b.shutdown()
        first = b.next_batch()
        second = b.next_batch()
        assert [r.item[0] for r in first] == [0.0, 1.0, 2.0, 3.0]
        assert [r.item[0] for r in second] == [4.0, 5.0]
        assert b.next_batch() is None

    def test_shutdown_wakes_blocked_worker(self):
        b = DynamicBatcher(max_batch_size=4, max_latency=60.0)
        result = {}

        def worker():
            result["batch"] = b.next_batch()

        t = threading.Thread(target=worker)
        t.start()
        time.sleep(0.05)  # let it block on the empty queue
        b.shutdown()
        t.join(5.0)
        assert not t.is_alive()
        assert result["batch"] is None


class TestRequestHandle:
    def test_wait_timeout(self):
        b = DynamicBatcher(max_batch_size=4, max_latency=60.0)
        req = b.submit(_item(0))
        with pytest.raises(TimeoutError):
            req.wait(0.01)

    def test_wait_reraises_worker_error(self):
        b = DynamicBatcher(max_batch_size=1)
        req = b.submit(_item(0))
        (got,) = b.next_batch()
        got.error = RuntimeError("replica exploded")
        got.done.set()
        with pytest.raises(RuntimeError, match="exploded"):
            req.wait(1.0)
