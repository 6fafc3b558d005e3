"""Buffer planning.

Decides, for every ensemble and connection, which memory regions exist and
which are *shared* (aliased), implementing the consequences of
shared-variable analysis (§5.2) and the in-place execution of
ActivationEnsembles (§3.2):

* a fully-shared connection's input "buffer" is a reshaped alias of the
  source's value array — no copy is synthesized and a single shared
  buffer serves every neuron (the FC case of Fig. 8);
* an ActivationEnsemble with a single-consumer source aliases the
  source's value and gradient arrays outright (in-place mode, O3+);
* window connections get an input buffer with the shared sink dimensions
  *dropped* (the im2col buffer shared across output channels), plus a
  padded staging buffer when the window reaches out of bounds;
* non-affine mappings get a general gather buffer driven by materialized
  index arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.frontend import parse_neuron_function
from repro.analysis.shared_variables import EnsembleFacts, analyze_ensemble
from repro.ir.nodes import buffers_read
from repro.core.ensemble import (
    AbstractEnsemble,
    ActivationEnsemble,
    DataEnsemble,
    Ensemble,
    LossEnsemble,
    NormalizationEnsemble,
)

DTYPE = np.float32


@dataclass
class BufferSpec:
    """One entry of the runtime buffer table."""

    name: str
    shape: Tuple[int, ...]  # without batch/time axes
    role: str  # value|grad|input|grad_input|field|padded|padded_grad
    batched: bool = True
    #: for role='field': the existing NumPy array to register (updates to
    #: parameters must flow through the user's arrays)
    array: Optional[np.ndarray] = None
    #: alias: (base buffer name, per-item reshape or None for same-shape)
    alias_of: Optional[str] = None
    alias_reshape: Optional[Tuple[int, ...]] = None
    #: gradient-role buffers are zeroed before each backward pass unless
    #: the first-writer pass proved the first toucher overwrites them
    needs_zero: bool = True
    #: storage dtype name; float32 everywhere unless the precision pass
    #: (repro.quant) retypes inference buffers
    dtype: str = "float32"
    #: batch rows actually allocated: ``None`` = the whole batch; set by
    #: fusion's contraction on a buffer that lives inside one
    #: batch-tiled group, which then indexes it tile-locally
    tile: Optional[int] = None

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize


@dataclass
class ConnPlan:
    """How one connection's inputs reach the sink ensemble."""

    mode: str  # 'inplace' | 'alias' | 'copy' | 'gather'
    #: input/grad-input buffer names ('' when mode='inplace')
    in_buf: str = ""
    grad_in_buf: str = ""
    #: source value/grad buffer names (post padding indirection)
    src_value: str = ""
    src_grad: str = ""
    #: padded staging buffers ('' if no padding)
    padded_value: str = ""
    padded_grad: str = ""
    pad_before: Tuple[int, ...] = ()
    #: recurrent connections read the previous time step and may never be
    #: aliased or inlined across the time boundary
    recurrent: bool = False


@dataclass
class ParamInfo:
    """A learnable parameter exposed to solvers."""

    ensemble: str
    name: str
    value_buf: str
    grad_buf: str
    lr_mult: float


@dataclass
class PrivateAccum:
    """Per-thread private storage for one shared buffer.

    Registered by the parallel pass (§5.4.3's shared-variable treatment
    applied at runtime): a batch-invariant buffer that batch shards
    accumulate into concurrently gets ``num_shards`` private copies of
    ``shape``, combined by a deterministic tree reduction after the shard
    barrier (see :mod:`repro.runtime.threads`); a contracted staging
    buffer gets one tile-sized copy per shard and no reduction.
    """

    name: str
    shape: Tuple[int, ...]


@dataclass
class BufferPlan:
    """Complete buffer table plus per-ensemble facts and connection plans."""

    batch_size: int
    time_steps: int
    buffers: Dict[str, BufferSpec] = field(default_factory=dict)
    facts: Dict[str, EnsembleFacts] = field(default_factory=dict)
    conn_plans: Dict[Tuple[str, int], ConnPlan] = field(default_factory=dict)
    params: List[ParamInfo] = field(default_factory=list)
    #: ensembles executed in place (value/grad alias their source's)
    inplace: Dict[str, str] = field(default_factory=dict)  # ens -> source
    #: buffers needing per-thread private accumulators under batch
    #: sharding (filled by repro.optim.parallel, allocated by
    #: repro.runtime.buffers.allocate_private)
    private_accums: Dict[str, PrivateAccum] = field(default_factory=dict)
    #: whole-program liveness/arena layout (a
    #: :class:`repro.synthesis.liveness.MemoryPlan`), attached by the
    #: compile pipeline's ``memory_plan`` pass; None = every buffer is
    #: individually allocated
    memory: Optional[object] = None
    #: reduced-precision plan (a :class:`repro.quant.precision.QuantPlan`),
    #: attached by the pipeline's ``precision`` pass; None = pure fp32
    quant: Optional[object] = None
    #: contracted buffer -> label of the batch-tiled group it lives in
    #: (:func:`repro.optim.fusion.contract`), and over-budget staging
    #: buffer -> why its chain was not batch-tiled
    #: (:func:`repro.optim.tiling.run`)
    contracted: Dict[str, str] = field(default_factory=dict)
    untiled: Dict[str, str] = field(default_factory=dict)

    def add(self, spec: BufferSpec) -> str:
        if spec.name in self.buffers:
            raise ValueError(f"duplicate buffer name {spec.name!r}")
        self.buffers[spec.name] = spec
        return spec.name

    def mark_private(self, name: str) -> None:
        """Register ``name`` (a non-alias buffer: unbatched, or
        contracted to a tile) for per-thread private allocation."""
        spec = self.buffers[name]
        lead = (spec.tile,) if spec.tile else ()
        self.private_accums[name] = PrivateAccum(
            name, lead + tuple(spec.shape))

    def value_buf(self, ens_name: str) -> str:
        return f"{ens_name}_value"

    def grad_buf(self, ens_name: str) -> str:
        return f"{ens_name}_grad"

    def field_buf(self, ens_name: str, fname: str) -> str:
        return f"{ens_name}_{fname}"

    def resolve_alias(self, name: str) -> str:
        """Follow alias links to the owning buffer."""
        seen = set()
        while self.buffers[name].alias_of is not None:
            if name in seen:
                raise ValueError(f"alias cycle through {name!r}")
            seen.add(name)
            name = self.buffers[name].alias_of
        return name


def _consumers(ens: AbstractEnsemble) -> list:
    """Non-recurrent connections consuming ``ens``."""
    return [
        c
        for c in ens.net.connections
        if c.source is ens and not c.recurrent
    ]


def plan_buffers(net, options) -> BufferPlan:
    """Build the buffer plan for a whole network."""
    plan = BufferPlan(net.batch_size, net.time_steps)
    order = net.topological_order()

    # First pass: per-ensemble value/grad/field buffers and facts.
    for ens in order:
        vname, gname = plan.value_buf(ens.name), plan.grad_buf(ens.name)
        if isinstance(ens, Ensemble):
            facts = analyze_ensemble(ens)
            plan.facts[ens.name] = facts
            inplace_src = _inplace_source(ens, facts, options, net)
            if inplace_src is not None:
                plan.inplace[ens.name] = inplace_src.name
                plan.add(BufferSpec(vname, ens.shape, "value",
                                    alias_of=plan.value_buf(inplace_src.name)))
                plan.add(BufferSpec(gname, ens.shape, "grad",
                                    alias_of=plan.grad_buf(inplace_src.name)))
            else:
                plan.add(BufferSpec(vname, ens.shape, "value"))
                plan.add(BufferSpec(gname, ens.shape, "grad"))
            for fname, binding in ens.field_bindings.items():
                bname = plan.field_buf(ens.name, fname)
                if binding.batch:
                    plan.add(BufferSpec(bname, binding.array.shape, "field",
                                        batched=True))
                else:
                    plan.add(BufferSpec(bname, binding.array.shape, "field",
                                        batched=False, array=binding.array))
            for p in ens.params:
                plan.params.append(ParamInfo(
                    ens.name, p.name,
                    plan.field_buf(ens.name, p.name),
                    plan.field_buf(ens.name, p.grad_name),
                    p.lr_mult,
                ))
        elif isinstance(ens, (DataEnsemble, NormalizationEnsemble)):
            plan.add(BufferSpec(vname, ens.shape, "value"))
            plan.add(BufferSpec(gname, ens.shape, "grad"))
        elif isinstance(ens, LossEnsemble):
            pass  # loss ensembles own no array buffers
        else:  # pragma: no cover - future ensemble kinds
            raise TypeError(f"unknown ensemble kind {type(ens).__name__}")

    # Second pass: connection plans (needs all value buffers present).
    for ens in order:
        if not isinstance(ens, Ensemble):
            continue
        facts = plan.facts[ens.name]
        for j, cf in enumerate(facts.connections):
            plan.conn_plans[(ens.name, j)] = _plan_connection(
                plan, ens, j, cf, options
            )
    return plan


def _inplace_source(ens, facts, options, net) -> Optional[AbstractEnsemble]:
    """Return the source to run in place on, or None."""
    if not options.inplace or not isinstance(ens, ActivationEnsemble):
        return None
    if len(facts.connections) != 1 or not facts.connections[0].identity:
        return None
    conn = ens.inputs[0]
    if conn.recurrent:
        return None
    src = conn.source
    # the source must own mutable buffers and feed only this ensemble
    if not isinstance(src, Ensemble):
        return None
    if len(_consumers(src)) != 1:
        return None
    # the source's backward must not read its own output value: in-place
    # execution lets the sink's forward clobber src_value, so e.g. max
    # pooling (whose backward compares inputs against self.value to route
    # the gradient) can never host an in-place activation
    if _backward_reads_value(src.neuron_type):
        return None
    return src


@lru_cache(maxsize=None)
def _backward_reads_value(neuron_type) -> bool:
    """Whether ``neuron_type``'s backward body reads ``self.value``."""
    if not neuron_type.has_backward():
        return False
    fn_ir = parse_neuron_function(neuron_type, "backward")
    return any("$value" in buffers_read(stmt) for stmt in fn_ir.body)


def _plan_connection(plan, ens, j, cf, options) -> ConnPlan:
    info = cf.mapping
    conn = ens.inputs[j]
    src = conn.source
    src_value = plan.value_buf(src.name)
    src_grad = plan.grad_buf(src.name)

    if plan.inplace.get(ens.name) == src.name and not conn.recurrent:
        return ConnPlan("inplace", src_value=src_value, src_grad=src_grad)

    if conn.recurrent and info.kind != "gather":
        # a time-shifted read can never alias the current buffers; stage
        # it through a real input copy
        kept_shape = tuple(ens.shape[d] for d in info.kept_sink_dims)
        k = info.window_size
        in_buf = f"{ens.name}_inputs{j}"
        grad_in = f"{ens.name}_grad_inputs{j}"
        plan.add(BufferSpec(in_buf, (k,) + kept_shape, "input"))
        plan.add(BufferSpec(grad_in, (k,) + kept_shape, "grad_input"))
        if info.needs_padding:
            raise ValueError(
                f"recurrent connection into {ens.name!r} requires padding, "
                f"which is not supported across time steps"
            )
        return ConnPlan("copy", in_buf, grad_in, src_value, src_grad,
                        pad_before=tuple(0 for _ in src.shape),
                        recurrent=True)

    if cf.fully_shared and info.kind == "all_to_all":
        k = info.window_size
        in_buf = f"{ens.name}_inputs{j}"
        grad_in = f"{ens.name}_grad_inputs{j}"
        plan.add(BufferSpec(in_buf, (k,), "input",
                            alias_of=src_value, alias_reshape=(k,)))
        plan.add(BufferSpec(grad_in, (k,), "grad_input",
                            alias_of=src_grad, alias_reshape=(k,)))
        return ConnPlan("alias", in_buf, grad_in, src_value, src_grad)

    if info.kind in ("window", "one_to_one"):
        kept_shape = tuple(ens.shape[d] for d in info.kept_sink_dims)
        k = info.window_size
        in_buf = f"{ens.name}_inputs{j}"
        grad_in = f"{ens.name}_grad_inputs{j}"
        plan.add(BufferSpec(in_buf, (k,) + kept_shape, "input"))
        plan.add(BufferSpec(grad_in, (k,) + kept_shape, "grad_input"))
        padded_value = padded_grad = ""
        pad_before: Tuple[int, ...] = tuple(0 for _ in src.shape)
        if info.needs_padding:
            pads = info.padding()
            pad_before = tuple(b for b, _ in pads)
            padded_shape = tuple(
                s + b + a for s, (b, a) in zip(src.shape, pads)
            )
            padded_value = f"{ens.name}_padsrc{j}"
            padded_grad = f"{ens.name}_padsrc{j}_grad"
            plan.add(BufferSpec(padded_value, padded_shape, "padded"))
            plan.add(BufferSpec(padded_grad, padded_shape, "padded_grad"))
        return ConnPlan(
            "copy", in_buf, grad_in, src_value, src_grad,
            padded_value, padded_grad, pad_before,
        )

    # general gather
    k = info.window_size
    in_buf = f"{ens.name}_inputs{j}"
    grad_in = f"{ens.name}_grad_inputs{j}"
    plan.add(BufferSpec(in_buf, (k,) + ens.shape, "input"))
    plan.add(BufferSpec(grad_in, (k,) + ens.shape, "grad_input"))
    return ConnPlan("gather", in_buf, grad_in, src_value, src_grad)
