"""Freezing a compiled network to plain data, and thawing it back.

``freeze`` turns a :class:`~repro.runtime.executor.CompiledNet` into a
JSON-able metadata dict plus a dict of NumPy arrays — everything needed
to rebuild an executor *without* re-running synthesis or any pass:

* the generated Python source (re-``exec``'d at thaw) and the C
  rendering;
* the scheduled step lists, minus the ``fn`` callables (re-bound from
  the exec'd namespace) and with comm steps as ``(ensemble, params)``
  pairs;
* the buffer table (shapes/roles/aliases/zero flags), with live
  parameter arrays replaced by ``(ensemble, field)`` references that
  thaw re-binds against a freshly built net;
* the memory plan (arena offsets/slabs, pooled set, zero-defs,
  intervals) and the parameter/in-place/private-accumulator tables;
* **closure descriptors**: the four runtime-closure kinds the lowering
  creates (``pre_forward``, gather/scatter pairs with their materialized
  index arrays, normalization, loss) recorded as rebuild recipes against
  the module-level factories in :mod:`repro.synthesis.lower`.

``thaw`` inverts all of that against a live net of the same
architecture. It never re-derives anything the compiler computed — a
thawed program is the cached program, byte for byte (the differential
oracle's ``cache`` check pins this bitwise).
"""

from __future__ import annotations

import re
from dataclasses import asdict
from typing import Dict, List, Tuple

import numpy as np

from repro.cache.key import CacheUnsupported
from repro.codegen.python_backend import CompiledProgram, Step, exec_program
from repro.core.ensemble import Ensemble, LossEnsemble, NormalizationEnsemble
from repro.ir import CommCall
from repro.synthesis.access import StepAccess
from repro.synthesis.liveness import Interval, MemoryPlan, Rematerialized, Slab
from repro.synthesis.lower import (
    make_gather_closures,
    make_loss_closures,
    make_norm_closures,
)
from repro.synthesis.plan import (
    BufferPlan,
    BufferSpec,
    ParamInfo,
    PrivateAccum,
)
from repro.trace.compile_report import CompileReport, PassRecord


class CacheError(RuntimeError):
    """A cache entry cannot be thawed against this process/net. Callers
    treat it as a miss and fall back to a cold compile."""


_GATHER_KEY = re.compile(r"^(.+)\.gather(\d+)$")


# ---------------------------------------------------------------------------
# freeze
# ---------------------------------------------------------------------------


def _field_map(net, plan) -> Dict[str, Tuple[str, str]]:
    """Buffer name -> (ensemble, field) for every bound field buffer."""
    out: Dict[str, Tuple[str, str]] = {}
    for ens in net.ensembles.values():
        if not isinstance(ens, Ensemble):
            continue
        for fname in ens.field_bindings:
            out[plan.field_buf(ens.name, fname)] = (ens.name, fname)
    return out


def _buffer_dicts(net, plan) -> List[dict]:
    fields = _field_map(net, plan)
    out = []
    for spec in plan.buffers.values():
        d = {
            "name": spec.name,
            "shape": [int(x) for x in spec.shape],
            "role": spec.role,
            "batched": bool(spec.batched),
            "alias_of": spec.alias_of,
            "alias_reshape": ([int(x) for x in spec.alias_reshape]
                              if spec.alias_reshape is not None else None),
            "needs_zero": bool(spec.needs_zero),
            "tile": spec.tile,
        }
        if spec.array is not None:
            ref = fields.get(spec.name)
            if ref is None:
                raise CacheUnsupported(
                    f"buffer {spec.name!r} holds a live array with no "
                    f"(ensemble, field) provenance; cannot freeze"
                )
            d["field"] = list(ref)
        out.append(d)
    return out


def _step_dict(step: Step) -> dict:
    return {
        "name": step.name,
        "kind": step.kind,
        "comm": ([step.comm.ensemble, [str(p) for p in step.comm.params]]
                 if step.comm is not None else None),
        "recurrent_reads": sorted(step.recurrent_reads),
        "label": step.label,
        "access": {"accesses": [list(a) for a in step.access.accesses],
                   "opaque": step.access.opaque},
        "flops": int(step.flops),
        "shardable": bool(step.shardable),
        "private_accums": dict(step.private_accums),
    }


def _memory_dict(mem: MemoryPlan) -> dict:
    return {
        "offsets": {k: int(v) for k, v in mem.offsets.items()},
        "arena_bytes": int(mem.arena_bytes),
        "slabs": [{"offset": int(s.offset), "nbytes": int(s.nbytes),
                   "members": list(s.members)} for s in mem.slabs],
        "pooled": sorted(mem.pooled),
        "zero_defs": {k: [v[0], int(v[1])]
                      for k, v in mem.zero_defs.items()},
        "intervals": {
            k: {"first": int(iv.first), "last": int(iv.last),
                "phases": sorted(iv.phases), "first_kind": iv.first_kind}
            for k, iv in mem.intervals.items()
        },
        "naive_bytes": int(mem.naive_bytes),
        "planned_bytes": int(mem.planned_bytes),
        "kept_reasons": dict(mem.kept_reasons),
        "rematerialized": {k: asdict(r)
                           for k, r in mem.rematerialized.items()},
        "declined": dict(mem.declined),
    }


def _closure_descriptors(net, plan, closures,
                         arrays: Dict[str, np.ndarray]) -> List[dict]:
    """Rebuild recipes covering every runtime closure, or raise
    :class:`CacheUnsupported` for closure kinds we cannot re-create."""
    descs: List[dict] = []
    covered = set()
    for (ens_name, j), cplan in sorted(plan.conn_plans.items()):
        fkey = f"{ens_name}.gather{j}"
        if fkey not in closures:
            continue
        akey = f"gather__{ens_name}__{j}"
        idx = plan.facts[ens_name].connections[j].mapping.gather_indices
        arrays[akey] = np.ascontiguousarray(idx)
        descs.append({
            "kind": "gather", "ensemble": ens_name, "conn": int(j),
            "in_buf": cplan.in_buf, "grad_in": cplan.grad_in_buf,
            "src_value": cplan.src_value, "src_grad": cplan.src_grad,
            "array": akey,
        })
        covered.update((fkey, f"{ens_name}.scatter{j}"))
    for ens in net.ensembles.values():
        name = ens.name
        if f"{name}.pre_forward" in closures:
            descs.append({"kind": "pre_forward", "ensemble": name})
            covered.add(f"{name}.pre_forward")
        if isinstance(ens, NormalizationEnsemble):
            fkey, bkey = f"{name}.norm_forward", f"{name}.norm_backward"
            if fkey in closures:
                descs.append({"kind": "norm", "ensemble": name,
                              "has_backward": bkey in closures})
                covered.add(fkey)
                if bkey in closures:
                    covered.add(bkey)
        elif isinstance(ens, LossEnsemble):
            fkey, bkey = f"{name}.loss_forward", f"{name}.loss_backward"
            if fkey in closures:
                descs.append({"kind": "loss", "ensemble": name})
                covered.update((fkey, bkey))
    unknown = sorted(set(closures) - covered)
    if unknown:
        raise CacheUnsupported(
            f"program carries closures the cache cannot rebuild: {unknown}"
        )
    return descs


#: arrays key holding the native shared object's bytes (uint8)
_SO_KEY = "__so__"


def _c_exec_dict(cnet, compiled, arrays: Dict[str, np.ndarray]):
    """The ``meta["c_exec"]`` record for a ``backend='c'`` compile —
    source + step argument orders + twin-step kernel names + toolchain
    fingerprint — stashing the built ``.so`` bytes into ``arrays``
    alongside. ``None`` for the numpy backend."""
    if getattr(cnet.options, "backend", "numpy") != "c":
        return None
    ce = {
        "source": compiled.c_exec_source,
        "steps": {k: list(v) for k, v in compiled.c_steps.items()},
        "symbols": dict(compiled.c_symbols),
        "toolchain": None,
    }
    if compiled.c_steps:
        from repro.codegen import c_backend

        try:
            data = c_backend.shared_object_bytes(compiled.c_exec_source)
        except (c_backend.CBackendUnavailable, OSError):
            return ce  # entry still thaws via a source recompile
        arrays[_SO_KEY] = np.frombuffer(data, dtype=np.uint8)
        ce["toolchain"] = c_backend.toolchain_fingerprint()
    return ce


def freeze(cnet) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Serialize ``cnet`` into ``(meta, arrays)`` for a cache entry.

    Raises :class:`~repro.cache.key.CacheUnsupported` when the program
    contains state the thaw path cannot reconstruct (callers then simply
    skip caching this compile).
    """
    plan, compiled = cnet.plan, cnet.compiled
    arrays: Dict[str, np.ndarray] = {}
    report = cnet.compile_report
    meta = {
        "batch_size": int(cnet.batch_size),
        "time_steps": int(cnet.time_steps),
        "num_threads": int(cnet.num_threads),
        "options": asdict(cnet.options),
        "source": compiled.source,
        # native-backend rebuild recipe: the executable C source plus
        # each native step's buffer-argument order; the compiled shared
        # object's bytes ride along in arrays["__so__"] (keyed to the
        # toolchain fingerprint) so a warm thaw installs them directly
        # and never invokes the compiler
        "c_exec": _c_exec_dict(cnet, compiled, arrays),
        "steps": {
            "forward": [_step_dict(s) for s in compiled.forward],
            "backward": [_step_dict(s) for s in compiled.backward],
        },
        "buffers": _buffer_dicts(cnet.net, plan),
        "params": [
            {"ensemble": p.ensemble, "name": p.name,
             "value_buf": p.value_buf, "grad_buf": p.grad_buf,
             "lr_mult": float(p.lr_mult)}
            for p in plan.params
        ],
        "inplace": dict(plan.inplace),
        "contracted": dict(plan.contracted),
        "untiled": dict(plan.untiled),
        "private_accums": {
            name: [int(x) for x in acc.shape]
            for name, acc in plan.private_accums.items()
        },
        "memory": (_memory_dict(plan.memory)
                   if plan.memory is not None else None),
        "closures": _closure_descriptors(
            cnet.net, plan, compiled.closures, arrays
        ),
        "report": {
            "total_time": float(report.total_time) if report else 0.0,
            "records": [
                {"name": r.name, "enabled": r.enabled,
                 "units_before": int(r.units_before),
                 "units_after": int(r.units_after),
                 "rewrites": {k: int(v) for k, v in r.rewrites.items()}}
                for r in (report.records if report else [])
            ],
        },
    }
    return meta, arrays


# ---------------------------------------------------------------------------
# thaw
# ---------------------------------------------------------------------------


def _rebuild_plan(net, meta, arrays) -> BufferPlan:
    plan = BufferPlan(int(meta["batch_size"]), int(meta["time_steps"]))
    for d in meta["buffers"]:
        spec = BufferSpec(
            name=d["name"],
            shape=tuple(d["shape"]),
            role=d["role"],
            batched=d["batched"],
            alias_of=d["alias_of"],
            alias_reshape=(tuple(d["alias_reshape"])
                           if d["alias_reshape"] is not None else None),
            needs_zero=d["needs_zero"],
            tile=d["tile"],
        )
        if d.get("field") is not None:
            ens_name, fname = d["field"]
            ens = net.ensembles.get(ens_name)
            binding = (ens.field_bindings.get(fname)
                       if isinstance(ens, Ensemble) else None)
            if binding is None:
                raise CacheError(
                    f"entry references field {ens_name}.{fname} the net "
                    f"does not define"
                )
            if tuple(binding.array.shape) != spec.shape:
                raise CacheError(
                    f"field {ens_name}.{fname}: entry shape {spec.shape} "
                    f"vs net shape {tuple(binding.array.shape)}"
                )
            spec.array = binding.array
        plan.buffers[spec.name] = spec
    plan.params = [
        ParamInfo(d["ensemble"], d["name"], d["value_buf"], d["grad_buf"],
                  d["lr_mult"])
        for d in meta["params"]
    ]
    plan.inplace = dict(meta["inplace"])
    plan.contracted = dict(meta["contracted"])
    plan.untiled = dict(meta["untiled"])
    plan.private_accums = {
        name: PrivateAccum(name, tuple(shape))
        for name, shape in meta["private_accums"].items()
    }
    md = meta["memory"]
    if md is not None:
        plan.memory = MemoryPlan(
            offsets=dict(md["offsets"]),
            arena_bytes=md["arena_bytes"],
            slabs=[Slab(s["offset"], s["nbytes"], list(s["members"]))
                   for s in md["slabs"]],
            pooled=frozenset(md["pooled"]),
            zero_defs={k: (v[0], v[1]) for k, v in md["zero_defs"].items()},
            intervals={
                k: Interval(k, iv["first"], iv["last"],
                            set(iv["phases"]), iv["first_kind"])
                for k, iv in md["intervals"].items()
            },
            naive_bytes=md["naive_bytes"],
            planned_bytes=md["planned_bytes"],
            kept_reasons=dict(md["kept_reasons"]),
            rematerialized={k: Rematerialized(**r)
                            for k, r in md["rematerialized"].items()},
            declined=dict(md["declined"]),
        )
    return plan


def _rebuild_closures(net, plan, meta, arrays) -> Dict:
    closures: Dict = {}
    for d in meta["closures"]:
        name = d["ensemble"]
        ens = net.ensembles.get(name)
        if ens is None:
            raise CacheError(f"entry references unknown ensemble {name!r}")
        kind = d["kind"]
        if kind == "pre_forward":
            if getattr(ens, "pre_forward", None) is None:
                raise CacheError(f"{name} lost its pre_forward closure")
            closures[f"{name}.pre_forward"] = ens.pre_forward
        elif kind == "gather":
            idx = arrays.get(d["array"])
            if idx is None:
                raise CacheError(f"entry is missing array {d['array']!r}")
            fwd, bwd = make_gather_closures(
                idx, d["in_buf"], d["grad_in"],
                d["src_value"], d["src_grad"],
            )
            j = d["conn"]
            closures[f"{name}.gather{j}"] = fwd.fn
            closures[f"{name}.scatter{j}"] = bwd.fn
        elif kind == "norm":
            if not isinstance(ens, NormalizationEnsemble):
                raise CacheError(f"{name} is not a NormalizationEnsemble")
            fwd, bwd = make_norm_closures(ens, plan)
            closures[f"{name}.norm_forward"] = fwd.fn
            if d["has_backward"]:
                if bwd is None:
                    raise CacheError(f"{name} lost its backward_fn")
                closures[f"{name}.norm_backward"] = bwd.fn
        elif kind == "loss":
            if not isinstance(ens, LossEnsemble):
                raise CacheError(f"{name} is not a LossEnsemble")
            fwd, bwd = make_loss_closures(ens, plan)
            closures[f"{name}.loss_forward"] = fwd.fn
            closures[f"{name}.loss_backward"] = bwd.fn
        else:
            raise CacheError(f"unknown closure descriptor kind {kind!r}")
    return closures


def _rebuild_steps(meta, namespace) -> Tuple[List[Step], List[Step]]:
    phases = []
    for phase in ("forward", "backward"):
        steps = []
        for d in meta["steps"][phase]:
            fn = None
            comm = None
            if d["kind"] == "task":
                fn = namespace.get(d["name"])
                if fn is None:
                    raise CacheError(
                        f"generated source defines no {d['name']!r}"
                    )
            elif d["comm"] is not None:
                comm = CommCall(d["comm"][0], tuple(d["comm"][1]))
            steps.append(Step(
                name=d["name"],
                kind=d["kind"],
                fn=fn,
                comm=comm,
                recurrent_reads=frozenset(d["recurrent_reads"]),
                label=d["label"],
                access=StepAccess(
                    tuple((b, k) for b, k in d["access"]["accesses"]),
                    d["access"]["opaque"],
                ),
                flops=d["flops"],
                shardable=d["shardable"],
                private_accums=dict(d["private_accums"]),
            ))
        phases.append(steps)
    return phases[0], phases[1]


def _rebind_native(compiled: CompiledProgram, meta: dict,
                   arrays: Dict[str, np.ndarray]) -> None:
    """Re-arm a ``backend='c'`` entry's native program and swap the
    kernels into the step lists.

    Warm path: when the entry carries the built shared object's bytes
    (``arrays["__so__"]``) *and* its recorded toolchain fingerprint
    matches this machine's, the bytes are installed at the
    content-addressed path directly — no compiler invocation at all.
    Otherwise the source is recompiled (itself content-addressed, so an
    unchanged program on the same machine is still a disk hit)."""
    from repro.codegen import c_backend

    ce = meta.get("c_exec") or {}
    source = ce.get("source", "")
    compiled.c_exec_source = source
    compiled.c_steps = {k: list(v)
                        for k, v in (ce.get("steps") or {}).items()}
    compiled.c_symbols = dict(ce.get("symbols") or {})
    if not compiled.c_steps:
        return
    so_path = None
    so_bytes = arrays.get(_SO_KEY)
    if (so_bytes is not None
            and ce.get("toolchain") is not None
            and ce["toolchain"] == c_backend.toolchain_fingerprint()):
        try:
            so_path = c_backend.install_shared_object(
                source, so_bytes.tobytes()
            )
        except (c_backend.CBackendUnavailable, OSError):
            so_path = None  # fall through to the source recompile
    if so_path is None:
        try:
            so_path = c_backend.compile_shared_object(source)
        except c_backend.CBackendUnavailable as exc:
            raise CacheError(
                f"cannot rebuild native program: {exc}"
            ) from exc
    c_backend.bind_steps(compiled, so_path, int(meta["batch_size"]),
                         int(meta["num_threads"]))


def _rebuild_report(meta) -> CompileReport:
    """The cold compile's pass record with every wall time zeroed: a
    thaw runs no passes, but keeps the counters for attribution."""
    report = CompileReport()
    for r in meta["report"]["records"]:
        report.add(PassRecord(
            r["name"], r["enabled"], 0.0,
            r["units_before"], r["units_after"], dict(r["rewrites"]),
        ))
    return report


def thaw(net, meta: dict, arrays: Dict[str, np.ndarray], options, *,
         tracer=None, watchdog=None):
    """Reconstruct a :class:`~repro.runtime.executor.CompiledNet` from a
    cache entry against a freshly built ``net`` of the same
    architecture. Raises :class:`CacheError` on any inconsistency —
    callers fall back to a cold compile.
    """
    from repro.runtime.executor import CompiledNet

    try:
        if int(meta["batch_size"]) != int(net.batch_size):
            raise CacheError(
                f"entry batch {meta['batch_size']} vs net {net.batch_size}"
            )
        if int(meta["time_steps"]) != int(net.time_steps):
            raise CacheError(
                f"entry time_steps {meta['time_steps']} vs net "
                f"{net.time_steps}"
            )
        plan = _rebuild_plan(net, meta, arrays)
        closures = _rebuild_closures(net, plan, meta, arrays)
        namespace = exec_program(meta["source"], closures)
        fwd, bwd = _rebuild_steps(meta, namespace)
        compiled = CompiledProgram(fwd, bwd, meta["source"], closures)
        if meta["options"].get("backend", "numpy") == "c":
            _rebind_native(compiled, meta, arrays)
        report = _rebuild_report(meta)
        return CompiledNet(
            net, plan, compiled, options, tracer=tracer,
            compile_report=report,
            num_threads=int(meta["num_threads"]), watchdog=watchdog,
        )
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(f"corrupt or incompatible entry: {exc}") from exc
