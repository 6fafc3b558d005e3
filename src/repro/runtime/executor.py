"""The compiled network: buffers + executable steps (§3.4's ``init``).

``CompiledNet`` owns the allocated buffer table and the compiled
forward/backward step lists. It

* feeds input data into DataEnsemble value buffers,
* runs forward steps (per time step for recurrent nets), collecting loss
  values recorded by loss ensembles,
* zeroes gradient buffers and runs backward steps in reverse time,
* fires the per-ensemble asynchronous gradient-reduction hook at each
  ``CommCall`` (a no-op unless a distributed runtime is attached, §6),
* exposes parameter/gradient views to solvers.

Execution is driven by **pre-bound step programs** baked at init: for
every (phase, time step) the argument table each step function receives
— buffer views sliced to the right time step, recurrent reads shifted to
``t - 1``, per-direction zero views for the ``t == 0`` initial state,
and the memory planner's scheduled gradient zero-defs — is constructed
once, so the serial hot loop is literally ``for fn, env in program:
fn(env, self)`` with no per-call dict building or per-step branching.

Compiled with ``num_threads > 1``, steps the parallel pass marked
batch-shardable execute as contiguous batch shards on a persistent
thread pool (§5.4.3 realized at runtime; see
:mod:`repro.runtime.threads`): each shard calls the step function with
its ``(_b0, _b1)`` batch bounds, buffers named in the step's
``private_accums`` are swapped for per-shard private accumulators, and
after the shard barrier the privates are combined by a deterministic
tree reduction. Everything else — extern steps, comm steps, whole nets
compiled with the default ``num_threads=1`` — runs exactly the serial
code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.ensemble import DataEnsemble
from repro.runtime.buffers import allocate, allocate_private
from repro.runtime.threads import ShardPool, shard_bounds, tree_reduce
from repro.trace import NULL_TRACER

#: gradient-role buffers zeroed before every backward pass
_GRAD_ROLES = ("grad", "grad_input", "padded_grad")

#: pre-bound program entry kinds: 'task' (a compiled step), 'comm' (an
#: async gradient-reduction insertion point), 'aux' (set current_t /
#: zero a buffer — runs unconditionally, untraced)
_TASK, _COMM, _AUX = "task", "comm", "aux"


@dataclass
class ParamView:
    """A solver-facing view of one learnable parameter."""

    ensemble: str
    name: str
    value: np.ndarray
    grad: np.ndarray
    lr_mult: float

    @property
    def key(self) -> str:
        return f"{self.ensemble}.{self.name}"


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
        #: observability hooks (§7's "where does the time go"): a
        #: Tracer (NullTracer by default — the untraced hot loops are
        #: untouched) and the per-pass compilation record
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.compile_report = compile_report
        #: numerics watchdog (repro.telemetry.watchdog): called after
        #: every executed task step to sample written buffers for
        #: NaN/Inf. None (default) keeps the untouched fast paths.
        self.watchdog = watchdog
        #: extra args merged into every runtime span while set — the
        #: server stashes {'request_ids': ...} here so one request can
        #: be followed from HTTP admission into executor step spans
        self.trace_context: Optional[Dict] = None
        self.buffers = allocate(plan)
        self.batch_size = net.batch_size
        self.time_steps = net.time_steps
        #: thread-parallel execution state: shardable steps split into
        #: min(num_threads, batch) contiguous batch shards; the pool is
        #: created lazily on the first sharded step
        self.num_threads = max(1, int(num_threads))
        shardable = any(
            getattr(s, "shardable", False)
            for phase in (compiled.forward, compiled.backward)
            for s in phase
        )
        self.num_shards = (
            min(self.num_threads, self.batch_size) if shardable else 1
        )
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
        self.mode = getattr(options, "mode", "train")
        #: read by stochastic/normalization closures (dropout mask
        #: sampling, batch-norm batch-vs-running statistics); inference
        #: programs start — and should stay — in eval semantics
        self.training = self.mode != "inference"
        #: current time step, exposed to extern closures so loss and
        #: normalization layers can stash per-step state
        self.current_t = 0
        #: set by the distributed runtime: fn(ensemble_name, [grad arrays])
        self.comm_hook: Optional[Callable] = None
        self._losses: Dict[str, float] = {}
        self._data_names = [
            e.name for e in net.ensembles.values() if isinstance(e, DataEnsemble)
        ]
        self._params = [
            ParamView(
                p.ensemble,
                p.name,
                self.buffers[p.value_buf],
                self.buffers[p.grad_buf],
                p.lr_mult,
            )
            for p in plan.params
        ]
        #: arena-pooled base buffers (empty without a memory plan):
        #: excluded from the blanket pre-backward zeroing (the planner
        #: schedules their zero-defs in-program) and from inspection
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
            if spec is not None and (spec.array is not None or not spec.batched):
                env[name] = arr  # untimed parameter/shared field
            else:
                env[name] = arr[t]
        return env

    def _build_programs(self) -> None:
        """Bake one argument table per (step, t): the hot loop then runs
        ``fn(env, self)`` with zero per-call construction. Called once at
        init and again by :meth:`rebind_buffer`."""
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
                entries.append((_AUX, _set_t_fn(t), env, None, t))
                for idx, step in enumerate(steps):
                    if step.kind == "comm":
                        if t == 0:
                            entries.append(
                                (_COMM, _comm_fn(step), env, step, t))
                        continue
                    if phase == "backward" and first_t and idx in zero_at:
                        arrs = tuple(self.buffers[b] for b in zero_at[idx])
                        entries.append(
                            (_AUX, _zero_fn(arrs), env, None, t))
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
                                (_AUX, _zero_fn(tuple(zviews)), env, None, t))
                        else:
                            for name in step.recurrent_reads:
                                step_env[name] = self.buffers[name][t - 1]
                    entries.append((_TASK, step.fn, step_env, step, t))
                first_t = False
            self._entries[phase] = entries
        #: the serial untraced hot path: kind/step/t stripped
        self._fast = {
            phase: [(fn, env) for _k, fn, env, _s, _t in entries]
            for phase, entries in self._entries.items()
        }

    def rebind_buffer(self, name: str, array: np.ndarray) -> None:
        """Replace one buffer-table entry (e.g. to share parameter
        memory across replicas) and re-bake everything derived from it:
        alias views, solver parameter views, and the pre-bound step
        programs."""
        self.rebind_buffers({name: array})

    def rebind_buffers(self, arrays: Dict[str, np.ndarray]) -> None:
        """Replace several buffer-table entries with one program
        re-bake. The multi-process backend binds every parameter value
        and gradient buffer onto shared memory in a single call —
        re-baking the step programs once instead of once per tensor."""
        for name, array in arrays.items():
            old = self.buffers[name]
            if array.shape != old.shape or array.dtype != old.dtype:
                raise ValueError(
                    f"rebind_buffer({name!r}): shape/dtype mismatch "
                    f"({array.shape}/{array.dtype} vs "
                    f"{old.shape}/{old.dtype})"
                )
        if not arrays:
            return
        for name, array in arrays.items():
            self.buffers[name] = array
        plan = self.plan
        targets = {plan.resolve_alias(name) for name in arrays}
        for spec in plan.buffers.values():
            if spec.alias_of is None:
                continue
            if plan.resolve_alias(spec.name) not in targets:
                continue
            base = self.buffers[spec.alias_of]
            if spec.alias_reshape is not None:
                n_lead = base.ndim - len(spec.shape)
                self.buffers[spec.name] = base.reshape(
                    base.shape[: max(n_lead, 0)] + spec.alias_reshape
                )
            else:
                self.buffers[spec.name] = base
        for p, info in zip(self._params, plan.params):
            p.value = self.buffers[info.value_buf]
            p.grad = self.buffers[info.grad_buf]
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
        seen, naive = set(), 0
        for name, spec in self.plan.buffers.items():
            base = self.plan.resolve_alias(name)
            if base in seen or spec.array is not None:
                continue
            base_spec = self.plan.buffers[base]
            if base_spec.array is not None:
                continue
            seen.add(base)
            naive += self.buffers[base].nbytes
        return {"naive_bytes": naive, "planned_bytes": naive,
                "arena_bytes": 0}

    def memory_report(self):
        """Slab-level view of the arena layout and peak-bytes accounting
        (:class:`~repro.trace.report.MemoryReport`)."""
        from repro.trace.report import MemoryReport

        return MemoryReport.from_compiled(self)

    def summary(self) -> str:
        """Parameter counts, buffer table size, planned vs naive peak
        bytes, and step counts per phase."""
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
            tasks = sum(1 for s in steps if s.kind == "task")
            comms = sum(1 for s in steps if s.kind == "comm")
            fused = sum(1 for s in steps if "+" in s.label)
            lines.append(
                f"  {phase:10s} : {tasks} task steps"
                + (f" ({fused} fused)" if fused else "")
                + (f", {comms} comm" if comms else "")
            )
        report = self.compile_report
        if report is not None and "codegen-c" in report:
            c = report["codegen-c"].rewrites
            line = (f"  native     : {c['native_steps']} steps on "
                    f"{c['kernels_unique']} kernels, ")
            line += (f"{c['parallel_regions']} parallel regions at "
                     f"{c['omp_threads']} threads" if c["omp_threads"] > 1
                     else "serial kernels (executor shards / one thread)")
            if c.get("build_dir_hit"):
                line += ", build dir hit"
            elif "cc_seconds" in c:
                line += (f", {c['translation_units']} units: "
                         f"cc {c['cc_seconds']:.2f}s on {c['cc_jobs']} jobs"
                         f" (slowest unit {c['cc_unit_max_seconds']:.2f}s)"
                         f" + link {c['link_seconds']:.2f}s")
            lines.append(line)
        if report is not None and report.cache_hit:
            lines.append(
                f"  compile    : warm cache hit {report.cache_key[:12]} "
                f"({report.compile_seconds * 1e3:.1f}ms thaw)"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        n_params = sum(p.value.size for p in self._params)
        tasks = sum(
            1
            for phase in (self.compiled.forward, self.compiled.backward)
            for s in phase
            if s.kind == "task"
        )
        return (
            f"<CompiledNet ensembles={len(self.net.ensembles)} "
            f"batch={self.batch_size} params={n_params:,} steps={tasks}>"
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

    @property
    def c_source(self) -> str:
        """C++/OpenMP rendering of the optimized schedule (Figs. 9-12)."""
        if self.compiled.c_source is None:
            raise RuntimeError(
                "c_source is rendered from the compiler's schedule, which "
                "a compile-cache thaw does not rebuild; compile this net "
                "cold (compile_net) to read its listing"
            )
        return self.compiled.c_source

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
        if self._pooled and base in self._pooled:
            raise KeyError(
                f"{ens_name!r} was opted out of inspection: its buffers "
                f"share arena storage under the memory planner and do "
                f"not survive the run. Add it to keep_alive= (or compile "
                f"with CompilerOptions(memory_plan=False)) to inspect it."
            )
        return self.buffers[name]

    def value(self, ens_name: str) -> np.ndarray:
        """The value array of an ensemble (batch-leading; time-leading
        for recurrent nets)."""
        return self._inspectable(f"{ens_name}_value", ens_name)

    def grad(self, ens_name: str) -> np.ndarray:
        """The gradient array of an ensemble (layout mirrors
        :meth:`value`)."""
        return self._inspectable(f"{ens_name}_grad", ens_name)

    @property
    def loss(self) -> float:
        """Sum of all loss ensembles' values from the last forward."""
        return sum(self._losses.values())

    def record_loss(self, name: str, value: float) -> None:
        """Accumulate a loss ensemble's contribution for this forward
        pass (called from generated loss-layer closures)."""
        self._losses[name] = self._losses.get(name, 0.0) + value

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
        """Run forward propagation; returns the loss (0 if no loss layer).

        Keyword arguments feed DataEnsembles by name, e.g.
        ``cnet.forward(data=x, label=y)``.
        """
        for name, arr in inputs.items():
            self.set_input(name, arr)
        self._losses.clear()
        if self.num_shards > 1:
            self._run_parallel("forward")
            return self.loss
        if self.tracer.enabled or self.watchdog is not None:
            self._run_traced("forward")
            return self.loss
        for fn, env in self._fast["forward"]:
            fn(env, self)
        return self.loss

    def backward(self, seed_grads: Optional[Dict[str, np.ndarray]] = None
                 ) -> None:
        """Run back-propagation (call after :meth:`forward`).

        ``seed_grads`` optionally sets output-ensemble gradients after
        the pre-backward zeroing — the entry point for nets without a
        loss layer (``cnet.backward(seed_grads={'out': g})``).
        """
        if self.mode == "inference":
            raise RuntimeError(
                "this net was compiled with mode='inference': the "
                "backward program and its gradient buffers do not "
                "exist. Recompile with mode='train' to backpropagate."
            )
        self._zero_grads()
        if seed_grads:
            for ens_name, g in seed_grads.items():
                self.buffers[f"{ens_name}_grad"][...] = g
        if self.num_shards > 1:
            self._run_parallel("backward")
            return
        if self.tracer.enabled or self.watchdog is not None:
            self._run_traced("backward")
            return
        for fn, env in self._fast["backward"]:
            fn(env, self)

    def _run_traced(self, phase: str) -> None:
        """One phase emitting a span per task step (and per fired comm
        hook); aux entries run silently. Also the watchdog path: with a
        NullTracer but a watchdog attached, begin/end are no-ops and
        only the per-step numerics check runs — same fns, same order,
        bitwise-identical outputs."""
        tracer = self.tracer
        watchdog = self.watchdog
        ctx = self.trace_context
        for kind, fn, env, step, t in self._entries[phase]:
            if kind == _TASK:
                token = tracer.begin(
                    step.label, phase, t=t, kind=step.kind,
                    bytes=self.step_bytes(step), flops=step.flops,
                    **(ctx or {}),
                )
                fn(env, self)
                tracer.end(token)
                if watchdog is not None:
                    watchdog.after_step(self, step, phase, t, env)
            elif kind == _COMM:
                if self.comm_hook is not None:
                    token = tracer.begin(
                        step.label, "comm", t=t, kind="comm",
                        bytes=self.step_bytes(step),
                    )
                    grads = [self.buffers[g] for g in step.comm.params]
                    self.comm_hook(step.comm.ensemble, grads)
                    tracer.end(token)
            else:
                fn(env, self)

    # -- thread-parallel execution -------------------------------------------

    def _run_parallel(self, phase: str) -> None:
        """One phase with shardable steps split across the pool."""
        tracer = self.tracer
        watchdog = self.watchdog
        for kind, fn, env, step, t in self._entries[phase]:
            if kind == _TASK:
                self._run_step_threaded(step, t, phase, env)
                if watchdog is not None:
                    watchdog.after_step(self, step, phase, t, env)
            elif kind == _COMM:
                if self.comm_hook is not None:
                    grads = [self.buffers[g] for g in step.comm.params]
                    if tracer.enabled:
                        with tracer.span(
                            step.label, "comm", t=t, kind="comm",
                            bytes=self.step_bytes(step),
                        ):
                            self.comm_hook(step.comm.ensemble, grads)
                    else:
                        self.comm_hook(step.comm.ensemble, grads)
            else:
                fn(env, self)

    def _run_step_threaded(self, step, t: int, cat: str, views) -> None:
        """Run one task step: sharded if marked, serial otherwise."""
        tracer = self.tracer
        ctx = self.trace_context or {}
        if not step.shardable:
            if tracer.enabled:
                with tracer.span(
                    step.label, cat, t=t, kind=step.kind,
                    bytes=self.step_bytes(step), flops=step.flops,
                    **ctx,
                ):
                    step.fn(views, self)
            else:
                step.fn(views, self)
            return
        n = self.num_shards
        accums = step.private_accums
        privates = {}
        for name, mode in accums.items():
            arr = self._shard_accums[name]
            if mode == "add":
                arr[...] = 0
            privates[name] = arr
        bounds = self._shard_bounds
        fn = step.fn
        traced = tracer.enabled
        if traced:
            # establish the tracer origin on the main thread; workers
            # only *read* the clock and stash timestamps locally
            tracer.now()
            marks: List[Optional[tuple]] = [None] * n

        def run_shard(w: int) -> None:
            lo, hi = bounds[w]
            v = views
            if privates:
                v = dict(views)
                for name, arr in privates.items():
                    v[name] = arr[w]
            if traced:
                t0 = tracer.now()
                fn(v, self, lo, hi)
                marks[w] = (t0, tracer.now() - t0)
            else:
                fn(v, self, lo, hi)

        if self._pool is None:
            self._pool = ShardPool(n)
        self._pool.run(run_shard)
        for name, mode in accums.items():
            if mode == "tile":  # per-shard staging, nothing to combine
                continue
            total = tree_reduce(privates[name])
            if mode == "add":
                views[name] += total
            else:  # 'store': first-writer-forwarded overwrite
                views[name][...] = total
        if traced:
            per_shard_bytes = self.step_bytes(step) // n
            per_shard_flops = step.flops // n
            for w, mark in enumerate(marks):
                start, dur = mark
                tracer.add_span(
                    step.label, cat, start, dur, t=t, kind=step.kind,
                    bytes=per_shard_bytes, flops=per_shard_flops,
                    shard=w, shards=n, **ctx,
                )

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
        # zero-defs (zeroing them here would clobber forward-phase slab
        # tenants that backward still reads)
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
        for p in self._params:
            p.grad[...] = 0


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


def _comm_fn(step):
    def comm(env, rt, _step=step):
        hook = rt.comm_hook
        if hook is not None:
            hook(_step.comm.ensemble,
                 [rt.buffers[g] for g in _step.comm.params])
    return comm
