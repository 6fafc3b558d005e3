"""Runtime buffer allocation from a compile-time plan.

Materializes the :class:`~repro.synthesis.plan.BufferPlan`:

* parameter fields are registered *by reference* — solver updates flow
  through the user's arrays (and through any aliased neuron views created
  by ``Ensemble.from_neurons``);
* batched buffers get a leading batch axis, plus a leading time axis for
  recurrent (time-unrolled) networks;
* aliases become NumPy views of their base buffers, so e.g. an
  ActivationEnsemble's "value" literally is its source's value array, and
  a fully-connected layer's "inputs" is a 2-D reshape of the source's
  activations — the shared memory regions of §5.2;
* when the plan carries a :class:`~repro.synthesis.liveness.MemoryPlan`,
  pooled buffers become offset views into one shared **arena**
  allocation instead of individual arrays — buffers whose live intervals
  never overlap occupy the same bytes (whole-program reuse extending
  §5.2's pairwise sharing).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.synthesis.liveness import ALIGN_BYTES, full_shape
from repro.synthesis.plan import BufferPlan, BufferSpec

DTYPE = np.float32


def allocate(plan: BufferPlan) -> Dict[str, np.ndarray]:
    """Allocate/register all buffers; returns name → array.

    With ``plan.memory`` attached, pooled buffers are carved out of a
    single arena at the planner's offsets; the returned dict is shaped
    identically either way (name → array of the buffer's full shape).
    """
    bufs: Dict[str, np.ndarray] = {}
    deferred = []
    mem = plan.memory
    arena = None
    if mem is not None and mem.arena_bytes:
        # a byte arena: buffers of any dtype carve typed views out of
        # it. NumPy promises 16-byte alignment only, so over-allocate and
        # start at the first aligned byte — the planner's offsets are
        # multiples of ALIGN_BYTES, which puts every pooled buffer on a
        # cache line (the views keep the allocation alive)
        raw = np.zeros(mem.arena_bytes + ALIGN_BYTES - 1, np.uint8)
        lead = -raw.ctypes.data % ALIGN_BYTES
        arena = raw[lead:lead + mem.arena_bytes]

    for spec in plan.buffers.values():
        if spec.alias_of is not None:
            deferred.append(spec)
            continue
        dtype = spec.np_dtype
        if spec.array is not None:
            arr = spec.array
            if arr.dtype != dtype:
                raise TypeError(
                    f"buffer {spec.name!r}: parameter arrays must be "
                    f"{dtype.name}, got {arr.dtype}"
                )
            bufs[spec.name] = arr
        elif arena is not None and spec.name in mem.offsets:
            shape = full_shape(plan, spec)
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            off = mem.offsets[spec.name]
            nbytes = n * dtype.itemsize
            bufs[spec.name] = (
                arena[off:off + nbytes].view(dtype).reshape(shape)
            )
        else:
            bufs[spec.name] = np.zeros(full_shape(plan, spec), dtype)

    remaining = deferred
    while remaining:
        progressed = []
        for spec in remaining:
            base = bufs.get(spec.alias_of)
            if base is None:
                progressed.append(spec)
                continue
            if spec.alias_reshape is not None:
                n_lead = len(full_shape(plan, spec)) - len(spec.shape)
                lead = base.shape[:n_lead]
                bufs[spec.name] = base.reshape(lead + spec.alias_reshape)
            else:
                bufs[spec.name] = base
        if len(progressed) == len(remaining):  # pragma: no cover
            raise ValueError(
                f"unresolvable buffer aliases: {[s.name for s in remaining]}"
            )
        remaining = progressed
    return bufs


def param_layout(plan: BufferPlan):
    """Flat packing of every model array (parameters and statistics):
    ``([(info, offset, shape, elems), ...], total_elems)`` in
    ``plan.params`` order.

    The multi-process backend carves one shared-memory block per role
    (values; a ``(n_workers, total)`` gradient grid) with this layout,
    so an array's bytes live at the same offset in every process. A
    statistic's gradient slot is never read.
    """
    out, off = [], 0
    for info in plan.params:
        shape = tuple(full_shape(plan, plan.buffers[info.value_buf]))
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        out.append((info, off, shape, n))
        off += n
    return out, off


def carve_param_views(layout, flat: np.ndarray, *,
                      grads: bool = False) -> Dict[str, np.ndarray]:
    """Buffer name → reshaped view into ``flat`` for every model array
    in a :func:`param_layout` (value buffers by default, parameter
    gradient buffers with ``grads=True``) — the dict
    :meth:`CompiledNet.rebind_buffers` takes to map a replica onto a
    shared block."""
    return {
        (info.grad_buf if grads else info.value_buf):
            flat[off:off + n].reshape(shape)
        for info, off, shape, n in layout
        if not grads or info.grad_buf is not None
    }


def allocate_private(plan: BufferPlan, num_shards: int) -> Dict[str, np.ndarray]:
    """Allocate per-shard private accumulators (name → ``(num_shards,
    *shape)`` array) for every buffer the parallel pass registered via
    :meth:`~repro.synthesis.plan.BufferPlan.mark_private`. Shard ``w``
    accumulates into row ``w``; the executor tree-reduces the rows after
    the shard barrier."""
    return {
        name: np.zeros((num_shards,) + acc.shape, DTYPE)
        for name, acc in plan.private_accums.items()
    }
