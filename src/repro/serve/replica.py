"""The replica handle: the one seam between the serving front end and
whatever executes a micro-batch.

:class:`~repro.serve.server.ModelServer` owns admission, batching,
metrics and the drain; a replica only answers ``run(x, n) -> rows`` for
one zero-padded batch, plus the facts the front end reads once at boot
(:data:`BOOT_FACTS` and ``memory_stats()``), ``alive()`` and
``close()``. :class:`NetReplica` is the in-thread transport — a
``CompiledNet`` called directly. The in-process transport
(:mod:`repro.serve.procserver`) runs this same class inside a forked
worker and ships ``run``'s arguments and result over a pipe.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.serve.checkpoint import load_checkpoint

#: attributes the front end reads off a replica at boot; a worker
#: process ships exactly these (plus ``memory_stats()``) when ready
BOOT_FACTS = ("batch_size", "item_shape", "output", "cache")


class NetReplica:
    """One forward-only ``CompiledNet`` behind the replica interface.

    ``output`` is the ensemble whose value array is the prediction;
    ``data_name`` is the DataEnsemble fed with request items (a
    forward-only compile has no loss, so nothing reads a label).
    """

    def __init__(self, net, output: str, *, data_name: str = "data"):
        self.net = net
        self.output = output
        self.data_name = data_name
        self.batch_size = net.batch_size
        self.item_shape = tuple(net.value(data_name).shape[1:])
        #: compile-cache provenance, ``None`` unless the compile went
        #: through repro.cache: ``(warm thaw?, entry creation time)``
        report = getattr(net, "compile_report", None)
        self.cache = (None if report is None or report.cache_key is None
                      else (bool(report.cache_hit), report.cache_created))

    @classmethod
    def from_checkpoint(cls, checkpoint, *, batch_size: int = 8,
                        options=None, output: Optional[str] = None,
                        num_threads: Optional[int] = None, tracer=None,
                        cache=None) -> "NetReplica":
        """Compile one forward-only replica of ``checkpoint`` (a path,
        or an already loaded :class:`~repro.serve.checkpoint.Checkpoint`)
        at ``batch_size``, bound to the checkpoint's parameter arrays."""
        ck = (load_checkpoint(checkpoint) if isinstance(checkpoint, str)
              else checkpoint)
        out = output or ck.output
        if out is None:
            raise ValueError(
                "checkpoint records no output ensemble; pass output="
            )
        return cls(ck.compile(batch_size, options=options,
                              num_threads=num_threads, tracer=tracer,
                              cache=cache), out)

    def memory_stats(self) -> Dict[str, int]:
        return self.net.memory_stats()

    def alive(self) -> bool:
        return True

    def run(self, x: np.ndarray, n: int, request_ids: str = "") -> np.ndarray:
        """Forward one padded batch ``x``; returns the first ``n`` output
        rows. ``request_ids`` flows into the executor's own step spans
        for this forward when the net has a tracer attached."""
        net = self.net
        net.trace_context = {"request_ids": request_ids}
        try:
            net.forward(**{self.data_name: x})
        finally:
            net.trace_context = None
        return net.value(self.output)[:n].copy()

    def close(self) -> None:
        self.net.close()
