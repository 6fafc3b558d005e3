"""Dynamic micro-batching: group single-item requests into batches.

The compiled network executes at a fixed batch size, so the server
amortizes per-call overhead by grouping concurrent requests. A batch is
flushed to a worker when either trigger fires:

* **size** — ``max_batch_size`` requests are waiting (or ``max_queue``,
  if that is smaller: a full queue sheds every newcomer, so nothing more
  can arrive), or
* **latency** — the *oldest* waiting request has been queued for
  ``max_latency`` seconds (trickle traffic still gets bounded queueing
  delay, at the cost of a ragged batch the worker zero-pads).

Admission is bounded: past ``max_queue`` waiting requests,
:meth:`DynamicBatcher.submit` raises :class:`QueueFullError` so callers
can shed load (the HTTP front end answers 429 with the queue depth and
request ID) instead of growing an unbounded backlog. Shutdown is draining: new submissions are refused,
but queued requests are still handed to workers; :meth:`next_batch`
returns ``None`` only once the queue is empty.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np


class QueueFullError(RuntimeError):
    """Raised by :meth:`DynamicBatcher.submit` when admission control
    rejects a request (queue at capacity — shed load upstream).

    Carries the shed context the HTTP front end surfaces in its 429
    body: :attr:`depth` (waiting requests at rejection time) and
    :attr:`reason` (currently always ``'queue_full'``).
    """

    def __init__(self, message: str = "queue at capacity",
                 depth: int = 0, reason: str = "queue_full"):
        super().__init__(message)
        self.depth = int(depth)
        self.reason = reason


class BatcherClosedError(RuntimeError):
    """Raised by :meth:`DynamicBatcher.submit` after shutdown."""


@dataclass
class Request:
    """One in-flight prediction request (a single item, no batch axis)."""

    item: np.ndarray
    enqueued_at: float
    #: propagated trace identity: client-supplied or server-generated,
    #: carried through batching into worker spans, logs, and responses
    request_id: str = ""
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None
    #: set by the worker: wall-clock seconds from submit to completion
    latency: float = 0.0

    def wait(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the worker completes this request; returns the
        output row or re-raises the worker-side error."""
        if not self.done.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        if self.error is not None:
            raise self.error
        return self.result

    def complete(self, result: np.ndarray, latency: float) -> None:
        """Fulfil this request (worker side): store the output row,
        stamp the latency the worker measured, and wake the waiter."""
        self.result = result
        self.latency = latency
        self.done.set()

    def fail(self, exc: BaseException) -> None:
        """Fail this request: :meth:`wait` re-raises ``exc``."""
        self.error = exc
        self.done.set()


class DynamicBatcher:
    """A bounded request queue with size- and latency-triggered flushes.

    Thread-safe on both sides: any number of submitter threads and any
    number of worker threads (one per model replica) may run
    concurrently. Workers loop on :meth:`next_batch`, which blocks until
    a flush trigger fires and never returns an empty list.
    """

    def __init__(self, max_batch_size: int, max_latency: float = 0.005,
                 max_queue: int = 64):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.max_batch_size = max_batch_size
        self.max_latency = float(max_latency)
        self.max_queue = max_queue
        self._queue: Deque[Request] = deque()
        self._cond = threading.Condition()
        self._closed = False

    # -- submitter side -----------------------------------------------------

    def submit(self, item: np.ndarray, request_id: str = "") -> Request:
        """Enqueue one item; returns its :class:`Request` handle.

        Raises :class:`QueueFullError` at capacity (the error carries
        the queue depth for the shed response) and
        :class:`BatcherClosedError` after :meth:`shutdown`.
        """
        req = Request(item, time.monotonic(), request_id=request_id)
        with self._cond:
            if self._closed:
                raise BatcherClosedError("batcher is shut down")
            if len(self._queue) >= self.max_queue:
                raise QueueFullError(
                    f"queue at capacity ({self.max_queue} waiting)",
                    depth=len(self._queue),
                )
            self._queue.append(req)
            self._cond.notify_all()
        return req

    def depth(self) -> int:
        """Number of requests currently waiting (not yet batched)."""
        with self._cond:
            return len(self._queue)

    # -- worker side --------------------------------------------------------

    def next_batch(self) -> Optional[List[Request]]:
        """Block until a batch is ready; ``None`` ends the worker loop.

        Returns between 1 and ``max_batch_size`` requests. Flushes when
        the queue reaches ``max_batch_size`` or ``max_queue`` (every
        newcomer is being shed, so waiting cannot grow the batch), when
        the oldest waiting request has aged ``max_latency`` seconds, or
        immediately (with whatever is queued) once the batcher is shut
        down. Returns ``None`` only when shut down *and* drained.
        """
        with self._cond:
            while True:
                while not self._queue:
                    if self._closed:
                        return None
                    self._cond.wait()
                deadline = self._queue[0].enqueued_at + self.max_latency
                while (self._queue
                       and len(self._queue) < min(self.max_batch_size,
                                                  self.max_queue)
                       and not self._closed):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(timeout=remaining)
                if not self._queue:
                    continue  # another worker drained it; start over
                n = min(self.max_batch_size, len(self._queue))
                return [self._queue.popleft() for _ in range(n)]

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self) -> None:
        """Refuse new submissions; wake all waiters. Queued requests are
        still served (drained) before workers see ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
