"""The compiled network: buffers + executable steps (§3.4's ``init``).

``CompiledNet`` owns the allocated buffer table and the compiled
forward/backward step lists. It

* feeds input data into DataEnsemble value buffers,
* runs forward steps (per time step for recurrent nets); the loss is
  the summed values of the loss ensembles,
* zeroes gradient buffers and runs backward steps in reverse time,
* exposes parameter/gradient views to solvers.

Execution is driven by one **phase program** per phase, baked at init:
for every (phase, time step) the argument table each step function
receives — buffer views sliced to the right time step, recurrent reads
shifted to ``t - 1``, per-direction zero views for the ``t == 0``
initial state, and the memory planner's scheduled gradient zero-defs —
is constructed once, and each entry's callable is bound once, so
``forward()`` and ``backward()`` are literally ``for fn, env in
program: fn(env, self)``. With nothing attached and one thread the
program holds the compiled step functions themselves. Compiled with
``num_threads > 1``, a step the parallel pass marked batch-shardable is
bound as a shard closure over a persistent thread pool (§5.4.3 realized
at runtime; see :mod:`repro.runtime.threads`). A recording tracer wraps
each step in a span, and a numerics watchdog follows each step with its
check; assigning either re-binds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ensemble import DataEnsemble, LossEnsemble
from repro.runtime.buffers import allocate, allocate_private
from repro.runtime.threads import ShardPool, shard_bounds, tree_reduce
from repro.trace import NULL_TRACER

#: gradient-role buffers zeroed before every backward pass
_GRAD_ROLES = ("grad", "grad_input", "padded_grad")

#: why a forward-only program refuses gradient work
_FORWARD_ONLY = ("this net was compiled with mode='inference': the backward "
                 "program and its gradient buffers do not exist. Recompile "
                 "with mode='train' to backpropagate.")


@dataclass
class ParamView:
    """A solver-facing view of one learnable parameter. A forward-only
    program allocates no gradient: there ``grad`` raises."""

    ensemble: str
    name: str
    value: np.ndarray
    _grad: Optional[np.ndarray]
    lr_mult: float

    @property
    def key(self) -> str:
        return f"{self.ensemble}.{self.name}"

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            raise RuntimeError(f"{self.key}.grad: {_FORWARD_ONLY}")
        return self._grad


class CompiledNet:
    """An initialized, executable network.

    Produced by :func:`repro.optim.pipeline.compile_net` /
    :meth:`repro.core.network.Net.init`; owns the runtime buffer table
    and the compiled step lists. The main entry points are
    :meth:`forward`, :meth:`backward`, :meth:`parameters` (for solvers),
    :meth:`value`/:meth:`grad` (per-ensemble arrays), and
    :meth:`summary`/:meth:`profile`/:attr:`source` for inspection.
    """

    def __init__(self, net, plan, compiled, options, tracer=None,
                 compile_report=None, num_threads=1, watchdog=None):
        self.net = net
        self.plan = plan
        self.compiled = compiled
        self.options = options
        #: observability hooks (§7's "where does the time go"): the
        #: :attr:`tracer` (NullTracer by default), the :attr:`watchdog`
        #: (None by default) and the per-pass compilation record
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._watchdog = watchdog
        self.compile_report = compile_report
        #: extra args merged into every runtime span while set — the
        #: server stashes {'request_ids': ...} here so one request can
        #: be followed from HTTP admission into executor step spans.
        #: Traced callables read it per call: setting it re-binds nothing
        self.trace_context: Optional[Dict] = None
        self.buffers = allocate(plan)
        self.batch_size = net.batch_size
        self.time_steps = net.time_steps
        #: thread-parallel execution state: shardable steps split into
        #: min(num_threads, batch) contiguous batch shards; the pool is
        #: created lazily on the first sharded step
        self.num_threads = max(1, int(num_threads))
        self.num_shards = compiled.num_shards(self.batch_size,
                                              self.num_threads)
        self._pool: Optional[ShardPool] = None
        self._shard_bounds = (
            shard_bounds(self.batch_size, self.num_shards)
            if self.num_shards > 1 else []
        )
        self._shard_accums = (
            allocate_private(plan, self.num_shards)
            if self.num_shards > 1 else {}
        )
        #: compilation mode: 'train' (full program) or 'inference'
        #: (forward-only; :meth:`backward` refuses to run)
        self.mode = options.mode
        #: eval semantics when False: the dropout mask is the identity,
        #: batch norm uses running statistics; inference programs start
        #: — and should stay — in eval semantics
        self.training = self.mode != "inference"
        #: the key of the ``dropout`` intrinsic's mask, read by the
        #: backward too: each training forward draws one from the
        #: dropout layers' RNGs, an eval forward sets 0 (no mask)
        self.dropout_key = 0
        self._key_rngs = {id(e.rng): e.rng for e in net.ensembles.values()
                          if hasattr(e, "keep") and self.mode == "train"}
        #: current time step, exposed to extern closures so
        #: normalization layers can stash per-step state
        self.current_t = 0
        #: the value buffers :attr:`loss` sums (none forward-only)
        self._loss_bufs = [
            self.buffers[name] for name in (
                plan.value_buf(e.name) for e in net.ensembles.values()
                if isinstance(e, LossEnsemble))
            if name in plan.buffers]
        self._data_names = [
            e.name for e in net.ensembles.values() if isinstance(e, DataEnsemble)
        ]
        self._params = [
            ParamView(
                p.ensemble,
                p.name,
                self.buffers[p.value_buf],
                self.buffers.get(p.grad_buf),
                p.lr_mult,
            )
            for p in plan.params
        ]
        #: arena-pooled base buffers (empty without a memory plan):
        #: excluded from the blanket pre-backward zeroing (the planner
        #: schedules their zero-defs in-program)
        mem = plan.memory
        self._pooled = frozenset(mem.pooled) if mem is not None else frozenset()
        self._step_bytes: Dict[str, int] = {}
        self._build_programs()

    # -- pre-bound step programs --------------------------------------------

    def _base_env(self, t: int) -> Dict[str, np.ndarray]:
        """The name → array table steps see at time ``t`` (the buffer
        table itself for untimed nets; per-``t`` slices otherwise)."""
        if self.time_steps == 1:
            return self.buffers
        env: Dict[str, np.ndarray] = {}
        for name, arr in self.buffers.items():
            spec = self.plan.buffers.get(name)
            if spec is not None and not spec.batched:
                env[name] = arr  # untimed parameter/shared field
            else:
                env[name] = arr[t]
        return env

    def _build_programs(self) -> None:
        """Bake one argument table per (step, t) into ``(fn, env, step,
        t)`` records, then :meth:`_bind` them; an auxiliary entry (set
        ``current_t``, zero buffers) has no step. Called once at init and
        again by :meth:`rebind_buffers`."""
        T = self.time_steps
        mem = self.plan.memory
        #: per-direction zero initial-state views — forward reads and
        #: backward scatters must never share one tensor (a backward
        #: t==0 scatter would pollute the zeros a forward t==0 read
        #: expects); see tests/test_memory_plan.py's regression
        self._zero_views: Dict[Tuple[str, str], np.ndarray] = {}
        base_envs = {t: self._base_env(t) for t in range(T)}
        # buffers the planner zero-defs in-program, keyed by backward
        # step index (indices align: one Step per schedule item)
        zero_at: Dict[int, List[str]] = {}
        if mem is not None:
            for buf, (phase, idx) in mem.zero_defs.items():
                assert phase == "backward"
                zero_at.setdefault(idx, []).append(buf)
        self._entries: Dict[str, list] = {}
        for phase, steps in (("forward", self.compiled.forward),
                             ("backward", self.compiled.backward)):
            entries: list = []
            t_order = range(T) if phase == "forward" else range(T - 1, -1, -1)
            first_t = True
            for t in t_order:
                env = base_envs[t]
                entries.append((_set_t_fn(t), env, None, t))
                for idx, step in enumerate(steps):
                    if phase == "backward" and first_t and idx in zero_at:
                        arrs = tuple(self.buffers[b] for b in zero_at[idx])
                        entries.append((_zero_fn(arrs), env, None, t))
                    step_env = env
                    if step.recurrent_reads:
                        step_env = dict(env)
                        if t == 0:
                            zviews = []
                            for name in sorted(step.recurrent_reads):
                                z = self._zero_views.get((phase, name))
                                if z is None:
                                    proto = (self.buffers[name] if T == 1
                                             else self.buffers[name][0])
                                    z = np.zeros_like(proto)
                                    self._zero_views[(phase, name)] = z
                                zviews.append(z)
                                step_env[name] = z
                            # fresh zero state per step per iteration:
                            # an earlier scatter into the same view must
                            # not leak into this step's read
                            entries.append(
                                (_zero_fn(tuple(zviews)), env, None, t))
                        else:
                            for name in step.recurrent_reads:
                                step_env[name] = self.buffers[name][t - 1]
                    entries.append((step.fn, step_env, step, t))
                first_t = False
            self._entries[phase] = entries
        self._bind()

    def _bind(self) -> None:
        """Turn each record into the ``(fn, env)`` pair the phase loop
        runs: shard closures for shardable steps under ``num_shards >
        1``, spans when a recording tracer is attached, numerics checks
        when a watchdog is. Auxiliary entries and, with nothing
        attached, serial steps stay bare. Re-run whenever the tracer or
        watchdog changes."""
        tracer = self._tracer if self._tracer.enabled else None
        watchdog = self._watchdog
        self._program: Dict[str, list] = {}
        for phase, entries in self._entries.items():
            program = []
            for fn, env, step, t in entries:
                if step is not None:
                    if self.num_shards > 1 and step.shardable:
                        fn = self._shard_fn(step, env, phase, t, tracer)
                    elif tracer is not None:
                        fn = _spanned(fn, tracer, step.label, phase, t, {
                            "bytes": self.step_bytes(step),
                            "flops": step.flops})
                    if watchdog is not None:
                        fn = _watched(fn, watchdog, step, phase, t)
                program.append((fn, env))
            self._program[phase] = program

    def _shard_fn(self, step, env, cat: str, t: int, tracer):
        """One shardable step as ``num_shards`` contiguous batch shards
        on the pool, each with its own slice of the step's private
        accumulators, combined by a tree reduction after the barrier.
        Traced, each shard records its own span."""
        n, bounds, fn = self.num_shards, self._shard_bounds, step.fn
        accums = step.private_accums
        privates = {name: self._shard_accums[name] for name in accums}
        envs = [
            {**env, **{name: arr[w] for name, arr in privates.items()}}
            if privates else env
            for w in range(n)
        ]
        zeroed = [privates[name] for name, mode in accums.items()
                  if mode == "add"]
        # 'tile' privates are per-shard staging: nothing to combine
        reduced = [(name, mode == "add", privates[name])
                   for name, mode in accums.items() if mode != "tile"]
        if tracer is not None:
            args = {"bytes": self.step_bytes(step) // n,
                    "flops": step.flops // n}

        def sharded(env, rt):
            for parts in zeroed:
                parts[...] = 0
            if rt._pool is None:
                rt._pool = ShardPool(n)
            if tracer is None:
                rt._pool.run(lambda w: fn(envs[w], rt, *bounds[w]))
            else:
                # establish the tracer origin on the main thread;
                # workers only *read* the clock and stash timestamps
                tracer.now()
                marks = [None] * n

                def run_shard(w: int) -> None:
                    t0 = tracer.now()
                    fn(envs[w], rt, *bounds[w])
                    marks[w] = (t0, tracer.now() - t0)

                rt._pool.run(run_shard)
            for name, add, parts in reduced:
                total = tree_reduce(parts)
                if add:
                    env[name] += total
                else:  # 'store': first-writer-forwarded overwrite
                    env[name][...] = total
            if tracer is not None:
                ctx = rt.trace_context or {}
                for w, (start, dur) in enumerate(marks):
                    tracer.add_span(step.label, cat, start, dur, t=t,
                                    **args, shard=w, shards=n, **ctx)
        return sharded

    @property
    def tracer(self):
        """The attached :class:`~repro.trace.Tracer`; assigning re-binds."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._bind()

    @property
    def watchdog(self):
        """The attached numerics watchdog; assigning re-binds."""
        return self._watchdog

    @watchdog.setter
    def watchdog(self, watchdog) -> None:
        self._watchdog = watchdog
        self._bind()

    def rebind_buffers(self, arrays: Dict[str, np.ndarray]) -> None:
        """Re-point parameter value and gradient buffers with one
        program re-bake: the data-parallel trainer binds them onto its
        shared block, and back onto owned arrays at close. A value is
        re-pointed in the plan and the net's field binding too, freeing
        the array it replaces. (No alias views a parameter buffer.)"""
        plan = self.plan
        params = {b for i in plan.params for b in (i.value_buf, i.grad_buf)}
        for name, array in arrays.items():
            old = self.buffers[name]
            if (name not in params or array.shape != old.shape
                    or array.dtype != old.dtype):
                raise ValueError(
                    f"rebind_buffers({name!r}): not a parameter buffer of "
                    f"{old.shape}/{old.dtype} ({array.shape}/{array.dtype})")
        self.buffers.update(arrays)
        for p, info in zip(self._params, plan.params):
            if info.value_buf in arrays:
                binding = self.net[info.ensemble].field_bindings[info.name]
                binding.array = plan.buffers[info.value_buf].array = \
                    arrays[info.value_buf]
            p.value = self.buffers[info.value_buf]
            p._grad = self.buffers.get(info.grad_buf)
        self._step_bytes.clear()
        self._build_programs()

    # -- introspection ------------------------------------------------------

    def step_bytes(self, step) -> int:
        """Bytes touched by one step, computed once: the allocated
        sizes of the base buffers its def/use record names."""
        cached = self._step_bytes.get(step.name)
        if cached is None:
            cached = sum(self.buffers[b].nbytes for b in step.access.touched)
            self._step_bytes[step.name] = cached
        return cached

    def memory_stats(self) -> Dict[str, int]:
        """Non-parameter buffer footprint: ``naive_bytes`` (every buffer
        individually allocated), ``planned_bytes`` (actual, after arena
        reuse — equal to naive when the planner is off), and
        ``arena_bytes`` (the shared pool's size)."""
        mem = self.plan.memory
        if mem is not None:
            return {
                "naive_bytes": mem.naive_bytes,
                "planned_bytes": mem.planned_bytes,
                "arena_bytes": mem.arena_bytes,
            }
        naive = sum(self.buffers[name].nbytes
                    for name, spec in self.plan.buffers.items()
                    if spec.alias_of is None and not spec.is_param)
        return {"naive_bytes": naive, "planned_bytes": naive,
                "arena_bytes": 0}

    def memory_report(self):
        """Per-buffer view of the arena layout and peak-bytes accounting
        (:class:`~repro.trace.report.MemoryReport`)."""
        from repro.trace.report import MemoryReport

        return MemoryReport.from_compiled(self)

    def summary(self) -> str:
        """Parameter counts, buffer table size, planned vs naive peak
        bytes, step counts per phase and the C backend's Python steps."""
        n_params = sum(p.value.size for p in self._params)
        mstats = self.memory_stats()
        mem_line = (
            f"  memory     : {mstats['planned_bytes'] / 1e6:.2f} MB planned"
            f" vs {mstats['naive_bytes'] / 1e6:.2f} MB naive"
        )
        if mstats["naive_bytes"]:
            saved = mstats["naive_bytes"] - mstats["planned_bytes"]
            mem_line += (
                f" ({100.0 * saved / mstats['naive_bytes']:.0f}% reuse, "
                f"arena {mstats['arena_bytes'] / 1e6:.2f} MB)"
            )
        seen, buf_bytes = set(), 0
        for name, spec in self.plan.buffers.items():
            base = self.plan.resolve_alias(name)
            if base in seen or base not in self.buffers:
                continue
            seen.add(base)
            buf_bytes += self.buffers[base].nbytes
        lines = [
            f"CompiledNet: {len(self.net.ensembles)} ensembles, "
            f"batch {self.batch_size}"
            + (f", {self.time_steps} time steps" if self.time_steps > 1
               else "")
            + (", inference (forward-only)" if self.mode == "inference"
               else ""),
            f"  parameters : {n_params:,} floats "
            f"({4 * n_params / 1e6:.2f} MB) in {len(self._params)} tensors",
            f"  buffers    : {len(seen)} arrays, {buf_bytes / 1e6:.2f} MB",
            mem_line,
            *(f"    {row}" for row in self.memory_report().decisions()),
        ]
        for phase in ("forward", "backward"):
            steps = getattr(self.compiled, phase)
            if not steps:
                # forward-only programs have no backward phase at all —
                # don't print an empty/zero row for it
                continue
            fused = sum(1 for s in steps if "+" in s.label)
            lines.append(
                f"  {phase:10s} : {len(steps)} task steps"
                + (f" ({fused} fused)" if fused else "")
            )
        report = self.compile_report
        if report is not None and "codegen-c" in report:
            c = report["codegen-c"].rewrites
            env = report["codegen-c"].env
            line = (f"  native     : {c['native_steps']} steps on "
                    f"{c['kernels_unique']} kernels")
            if env.get("build_dir_hit"):
                line += ", build dir hit"
            elif env:
                line += (f", {c['translation_units']} units: "
                         f"cc {env['cc_seconds']:.2f}s on {env['cc_jobs']} "
                         f"jobs (slowest unit "
                         f"{env['cc_unit_max_seconds']:.2f}s)"
                         f" + link {env['link_seconds']:.2f}s")
            lines.append(line)
            lines += [f"    python {s.name} {s.label}: {s.fallback}"
                      for s in self.compiled.steps if s.fallback]
        if report is not None and report.cache_hit:
            lines.append(
                f"  compile    : warm cache hit {report.cache_key[:12]} "
                f"({report.compile_seconds * 1e3:.1f}ms thaw)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        n_params = sum(p.value.size for p in self._params)
        return (
            f"<CompiledNet ensembles={len(self.net.ensembles)} "
            f"batch={self.batch_size} params={n_params:,} "
            f"steps={len(self.compiled.steps)}>"
        )

    def profile(self):
        """Aggregate the attached tracer's recorded spans
        (:class:`~repro.trace.report.ProfileReport`)."""
        if not self.tracer.enabled:
            raise RuntimeError(
                "profile() needs a RecordingTracer; compile with "
                "compile_net(net, options, tracer=RecordingTracer())"
            )
        return self.tracer.profile()

    @property
    def source(self) -> str:
        """Generated Python source of the compiled program."""
        return self.compiled.source

    @cached_property
    def c_source(self) -> str:
        """The native program (the C of Figs. 9-12): exactly the text
        ``backend='c'`` compiles. A native program returns what it
        built; on the NumPy backend the same text is emitted from the
        compiled schedule when first read, with no toolchain."""
        compiled = self.compiled
        if self.options.backend == "c":
            return compiled.c_exec_source
        if compiled.schedule is None:
            raise RuntimeError(
                "c_source is emitted from the compiler's schedule, which "
                "a compile-cache thaw does not rebuild; compile this net "
                "cold (compile_net) to read its native program"
            )
        # reduced precision: raises the C kernels' float32-only reason
        replace(self.options, backend="c")
        from repro.codegen import c_backend

        return c_backend.emit_native_program(
            compiled, self.plan, self.net.time_steps)[0]

    def parameters(self) -> List[ParamView]:
        """Views of every trainable parameter: ``(name, ensemble, value,
        grad, lr_mult)`` tuples solvers iterate to apply updates."""
        return list(self._params)

    def _inspectable(self, name: str, ens_name: str) -> np.ndarray:
        if name not in self.plan.buffers:
            kind = name.rsplit("_", 1)[-1]
            raise KeyError(
                f"{ens_name!r} has no {kind} buffer in this program"
                + (" (pruned by mode='inference' compilation)"
                   if self.mode == "inference" else "")
            )
        base = self.plan.resolve_alias(name)
        if self.plan.buffers[base].tile:
            raise KeyError(
                f"{ens_name!r} was opted out of inspection: it lives inside "
                f"one batch-tiled group, which holds one tile of it at a "
                f"time. Add it to keep_alive= to inspect it."
            )
        # inspectable by rule, not by where the planner put the buffer: a
        # buffer it declined to pool (no saving, a recurrent carry) is
        # no more part of the contract than its pooled neighbours
        mem = self.plan.memory
        if mem is not None and not mem.kept_reasons.get(base, "").startswith(
                ("contract", "keep_alive")):
            raise KeyError(
                f"{ens_name!r} is not data, a sink or a loss feeder, so the "
                f"memory planner may reuse its buffers' storage mid-run. "
                f"Add it to keep_alive= (or compile with "
                f"CompilerOptions(memory_plan=False)) to inspect it."
            )
        return self.buffers[name]

    def value(self, ens_name: str) -> np.ndarray:
        """The value array of an ensemble (batch-leading; time-leading
        for recurrent nets)."""
        return self._inspectable(f"{ens_name}_value", ens_name)

    def grad(self, ens_name: str) -> np.ndarray:
        """The gradient array of an ensemble (layout mirrors
        :meth:`value`)."""
        if isinstance(self.net.ensembles.get(ens_name), LossEnsemble):
            raise KeyError(
                f"{ens_name!r} is a loss ensemble: it has no gradient "
                f"buffer, because its backward seeds back-propagation "
                f"and nothing reads its gradient")
        return self._inspectable(f"{ens_name}_grad", ens_name)

    @property
    def loss(self) -> float:
        """The loss ensembles' values from the last forward, summed in
        float64 over time steps and batch; 0.0 without any (a
        forward-only compile has none)."""
        return float(sum(v.sum(dtype=np.float64) for v in self._loss_bufs))

    # -- data feeding --------------------------------------------------------

    def set_input(self, ens_name: str, array: np.ndarray) -> None:
        """Copy a batch of inputs into a DataEnsemble's value buffer.

        For recurrent nets the array must carry a leading time axis.
        """
        if ens_name not in self._data_names:
            raise KeyError(f"{ens_name!r} is not a DataEnsemble")
        buf = self.buffers[f"{ens_name}_value"]
        array = np.asarray(array, dtype=buf.dtype)
        if array.shape != buf.shape:
            raise ValueError(
                f"input for {ens_name!r} has shape {array.shape}, "
                f"expected {buf.shape}"
            )
        buf[...] = array

    # -- execution ------------------------------------------------------------

    def forward(self, **inputs) -> float:
        """Run forward propagation; returns the loss (0.0 with no loss
        ensemble in the program, as in a forward-only compile).

        Keyword arguments feed DataEnsembles by name, e.g.
        ``cnet.forward(data=x, label=y)``.
        """
        for name, arr in inputs.items():
            self.set_input(name, arr)
        self.dropout_key = 0
        for rng in self._key_rngs.values() if self.training else ():
            self.dropout_key ^= int(rng.integers(1, 1 << 64, dtype=np.uint64))
        for fn, env in self._program["forward"]:
            fn(env, self)
        return self.loss

    def backward(self, seed_grads: Optional[Dict[str, np.ndarray]] = None
                 ) -> None:
        """Run back-propagation (call after :meth:`forward`).

        ``seed_grads`` optionally sets output-ensemble gradients after
        the pre-backward zeroing — the entry point for nets without a
        loss layer (``cnet.backward(seed_grads={'out': g})``).
        """
        self._training_only("backward()")
        self._zero_grads()
        if seed_grads:
            for ens_name, g in seed_grads.items():
                self.buffers[f"{ens_name}_grad"][...] = g
        for fn, env in self._program["backward"]:
            fn(env, self)

    def close(self) -> None:
        """Release the shard worker pool (idempotent; the pool is also
        recreated on demand if the net runs again)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def _zero_grads(self) -> None:
        # arena-pooled gradients are zeroed in-program by the planner's
        # zero-defs (zeroing them here would clobber forward-phase
        # tenants of the same bytes that backward still reads)
        for name, spec in self.plan.buffers.items():
            if (
                spec.role in _GRAD_ROLES
                and spec.alias_of is None
                and spec.needs_zero
                and name not in self._pooled
            ):
                self.buffers[name][...] = 0

    def clear_param_grads(self) -> None:
        """Zero parameter gradients (called by solvers each iteration)."""
        self._training_only("clear_param_grads()")
        for p in self._params:
            p.grad[...] = 0

    def _training_only(self, what: str) -> None:
        if self.mode == "inference":
            raise RuntimeError(f"{what}: {_FORWARD_ONLY}")


# -- pre-bound program auxiliaries (module-level so entries stay small) ----


def _set_t_fn(t: int):
    def set_t(env, rt, _t=t):
        rt.current_t = _t
    return set_t


def _zero_fn(arrays: tuple):
    if len(arrays) == 1:
        a0 = arrays[0]

        def zero_one(env, rt, _a=a0):
            _a[...] = 0
        return zero_one

    def zero_many(env, rt, _arrs=arrays):
        for a in _arrs:
            a[...] = 0
    return zero_many


# -- wrappers :meth:`CompiledNet._bind` puts around an entry ---------------


def _spanned(fn, tracer, name: str, cat: str, t: int, args: Dict):
    """``fn`` inside one span; the net's ``trace_context`` (request IDs)
    joins the span's args at call time."""
    def spanned(env, rt):
        token = tracer.begin(name, cat, t=t, **args,
                             **(rt.trace_context or {}))
        fn(env, rt)
        tracer.end(token)
    return spanned


def _watched(fn, watchdog, step, phase: str, t: int):
    def watched(env, rt):
        fn(env, rt)
        watchdog.after_step(rt, step, phase, t, env)
    return watched
