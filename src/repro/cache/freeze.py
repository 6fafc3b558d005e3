"""Freezing a compiled network to plain data, and thawing it back.

``freeze`` turns a :class:`~repro.runtime.executor.CompiledNet` into a
JSON-able metadata dict plus a dict of NumPy arrays — everything needed
to rebuild an executor *without* re-running synthesis or any pass:

* the generated Python source (re-``exec``'d at thaw) and, for
  ``backend="c"``, the native program with its built shared object;
* the compiler's own records — the forward/backward ``Step`` lists, the
  ``BufferPlan`` with its memory plan, the pass records — stored field
  by field (``dataclasses.fields``) and rebuilt from the same classes'
  type hints, so a record gains a field with no edit here;
* **closure descriptors**: the two runtime-closure kinds the lowering
  creates (gather/scatter pairs with their materialized index arrays,
  normalization) recorded as rebuild recipes against the module-level
  factories in :mod:`repro.synthesis.lower`.

The only record fields this module names are the few in
:data:`_NOT_STORED`, which a thaw re-links (a step's function, a
parameter's live array) or drops instead of reading. ``thaw`` never
re-derives anything the compiler computed — a thawed program is the
cached program, byte for byte (the differential oracle's ``cache``
check pins this bitwise).

A value the codec cannot store is a programming error, raised as
``TypeError`` naming its dotted path; :class:`CacheUnsupported` is kept
for the per-model cases (a closure kind with no recipe, a live array
with no field provenance, a program that is not fp32).
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.key import CacheUnsupported
from repro.codegen.python_backend import CompiledProgram, Step, exec_program
from repro.core.ensemble import Ensemble, NormalizationEnsemble
from repro.synthesis.liveness import MemoryPlan
from repro.synthesis.lower import make_gather_closures, make_norm_closures
from repro.synthesis.plan import BufferPlan, BufferSpec
from repro.trace.compile_report import CompileReport, PassRecord


class CacheError(RuntimeError):
    """A cache entry cannot be thawed against this process/net. Callers
    treat it as a miss and fall back to a cold compile."""


#: record fields an entry does not store; every other field of every
#: record is stored, and thawed by its type hint
_NOT_STORED = {
    # re-bound from the exec'd source, or by the native binding
    Step: ("fn",),
    # re-linked through meta["fields"] ({buffer: [ensemble, field]})
    BufferSpec: ("array",),
    # no thaw reads them: gathers keep their closure descriptor, and
    # only float32 programs are cached
    BufferPlan: ("facts", "conn_plans", "quant"),
    # a thaw runs no pass and no build: wall time zero, no env facts
    PassRecord: ("wall_time", "env"),
}

#: stored fields whose declared hint does not name their record
_HINTS = {(BufferPlan, "memory"): Optional[MemoryPlan]}


# ---------------------------------------------------------------------------
# the codec
# ---------------------------------------------------------------------------


def _is_record(cls) -> bool:
    return dataclasses.is_dataclass(cls) or hasattr(cls, "_fields")


@functools.lru_cache(maxsize=None)
def _stored(cls) -> Tuple[Tuple[str, object], ...]:
    """``(name, hint)`` of every stored field of a record class (a
    dataclass or a NamedTuple), resolved once per process."""
    hints = typing.get_type_hints(cls)
    names = (cls._fields if hasattr(cls, "_fields")
             else [f.name for f in dataclasses.fields(cls)])
    skip = _NOT_STORED.get(cls, ())
    return tuple((n, _HINTS.get((cls, n), hints[n]))
                 for n in names if n not in skip)


def _encode(value, path: str):
    """The JSON form of ``value``: records as dicts of their stored
    fields, tuples as lists, sets sorted."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    kind = type(value)
    if kind is list or kind is tuple:
        return [_encode(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if kind is dict and all(type(k) is str for k in value):
        return {k: _encode(v, f"{path}.{k}") for k, v in value.items()}
    if kind is set or kind is frozenset:
        return sorted(_encode(v, f"{path}[]") for v in value)
    if _is_record(kind):
        return {name: _encode(getattr(value, name), f"{path}.{name}")
                for name, _hint in _stored(kind)}
    raise TypeError(f"cannot store {path}: a {kind.__name__}")


@functools.lru_cache(maxsize=None)
def _decoder(hint):
    """A function rebuilding a value of type ``hint`` from its JSON
    form, or None where the JSON value is the value (scalars)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        (inner,) = (a for a in args if a is not type(None))
        dec = _decoder(inner)
        return None if dec is None else (
            lambda v: None if v is None else dec(v))
    if origin is tuple and args[-1] is Ellipsis:
        dec = _decoder(args[0])
        return tuple if dec is None else (lambda v: tuple(map(dec, v)))
    if origin is tuple:
        decs = [_decoder(a) for a in args]
        if not any(decs):
            return tuple
        decs = [d or (lambda x: x) for d in decs]
        return lambda v: tuple(d(x) for d, x in zip(decs, v))
    if origin in (list, set, frozenset) or hint in (set, frozenset):
        make = origin or hint
        dec = _decoder(args[0]) if args else None
        return make if dec is None else (lambda v: make(map(dec, v)))
    if origin is dict:
        dec = _decoder(args[1])
        return dict if dec is None else (
            lambda v: {k: dec(x) for k, x in v.items()})
    if _is_record(hint):
        # one constructor call spelled out per class, the way dataclasses
        # writes __init__: a loop over the fields thaws ~1.5x slower
        scope, params = {"cls": hint}, []
        for name, field_hint in _stored(hint):
            dec = _decoder(field_hint)
            if dec is None:
                params.append(f"{name}=v[{name!r}]")
            else:
                scope[f"_{name}"] = dec
                params.append(f"{name}=_{name}(v[{name!r}])")
        return eval(f"lambda v: cls({', '.join(params)})", scope)
    if hint in (str, int, float, bool):
        return None
    raise TypeError(f"the cache has no decoder for {hint!r}")


# ---------------------------------------------------------------------------
# freeze
# ---------------------------------------------------------------------------


def _field_refs(net, plan) -> Dict[str, List[str]]:
    """``{buffer: [ensemble, field]}`` for every buffer holding a live
    array, which a thaw re-links to the fresh net's."""
    fields: Dict[str, List[str]] = {}
    for ens in net.ensembles.values():
        for fname in _live_arrays(ens):
            fields[plan.field_buf(ens.name, fname)] = [ens.name, fname]
    refs = {}
    for spec in plan.buffers.values():
        if spec.array is None:
            continue
        if spec.name not in fields:
            raise CacheUnsupported(
                f"buffer {spec.name!r} holds a live array with no "
                f"(ensemble, field) provenance; cannot freeze"
            )
        refs[spec.name] = fields[spec.name]
    return refs


_DIRECTIONS = ("forward", "backward")


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
        fkey, bkey = (f"{ens.name}.norm_{d}" for d in _DIRECTIONS)
        if isinstance(ens, NormalizationEnsemble) and fkey in closures:
            descs.append({"kind": "norm", "ensemble": ens.name,
                          "has_backward": bkey in closures})
            covered.update(k for k in (fkey, bkey) if k in closures)
    unknown = sorted(set(closures) - covered)
    if unknown:
        raise CacheUnsupported(
            f"program carries closures the cache cannot rebuild: {unknown}"
        )
    return descs


#: arrays key holding the native shared object's bytes (uint8)
_SO_KEY = "__so__"


def _c_exec_dict(cnet, compiled, arrays: Dict[str, np.ndarray]):
    """The ``meta["c_exec"]`` record of a ``backend='c'`` compile —
    source and toolchain fingerprint — stashing the
    built ``.so`` bytes in ``arrays``. ``None`` for the numpy backend."""
    if cnet.options.backend != "c":
        return None
    ce = {"source": compiled.c_exec_source, "toolchain": None}
    if any(s.native for s in compiled.steps):
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
        "num_threads": int(cnet.num_threads),
        "options": asdict(cnet.options),
        "source": compiled.source,
        # native-backend recipe: the executable C source (each step
        # freezes its own binding); the shared object's bytes ride in
        # arrays["__so__"], so a warm thaw never invokes the compiler
        "c_exec": _c_exec_dict(cnet, compiled, arrays),
        "forward": _encode(compiled.forward, "forward"),
        "backward": _encode(compiled.backward, "backward"),
        "plan": _encode(plan, "plan"),
        "fields": _field_refs(cnet.net, plan),
        "closures": _closure_descriptors(
            cnet.net, plan, compiled.closures, arrays
        ),
        "report": _encode(report.records if report else [], "report"),
    }
    return meta, arrays


# ---------------------------------------------------------------------------
# thaw
# ---------------------------------------------------------------------------


def _live_arrays(ens) -> Dict[str, Optional[np.ndarray]]:
    """Field name → the array an ensemble binds: a neuron ensemble's
    field bindings (``None`` where a compile allocates the array), a
    normalization ensemble's statistics."""
    if isinstance(ens, Ensemble):
        return {f: b.array for f, b in ens.field_bindings.items()}
    return dict(getattr(ens, "stats", {}))


def _link_fields(net, plan: BufferPlan, fields: dict) -> None:
    """Point every field buffer at the fresh net's live array."""
    for buf, (ens_name, fname) in fields.items():
        spec = plan.buffers[buf]
        ens = net.ensembles.get(ens_name)
        array = _live_arrays(ens).get(fname) if ens is not None else None
        if array is None:
            raise CacheError(
                f"entry references field {ens_name}.{fname} the net "
                f"does not define"
            )
        if array.shape != spec.shape:
            raise CacheError(
                f"field {ens_name}.{fname}: entry shape {spec.shape} "
                f"vs net shape {array.shape}"
            )
        spec.array = array


def _rebuild_closures(net, plan, meta, arrays) -> Dict:
    closures: Dict = {}
    for d in meta["closures"]:
        name = d["ensemble"]
        ens = net.ensembles.get(name)
        if ens is None:
            raise CacheError(f"entry references unknown ensemble {name!r}")
        kind = d["kind"]
        if kind == "gather":
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
            externs = make_norm_closures(ens, plan)[:1 + d["has_backward"]]
            if None in externs:
                raise CacheError(f"{name} lost its backward_fn")
            for direction, ext in zip(_DIRECTIONS, externs):
                closures[f"{name}.norm_{direction}"] = ext.fn
        else:
            raise CacheError(f"unknown closure descriptor kind {kind!r}")
    return closures


def _rebind_native(compiled: CompiledProgram, meta: dict,
                   arrays: Dict[str, np.ndarray], batch_size: int) -> None:
    """Re-arm a ``backend='c'`` entry's native program and swap the
    kernels into the step lists.

    Warm path: when the entry carries the built shared object's bytes
    (``arrays["__so__"]``) *and* its recorded toolchain fingerprint
    matches this machine's, the bytes are installed at the
    content-addressed path directly — no compiler invocation at all.
    Otherwise the source is recompiled (itself content-addressed, so an
    unchanged program on the same machine is still a disk hit)."""
    from repro.codegen import c_backend

    ce = meta["c_exec"]
    compiled.c_exec_source = source = ce["source"]
    if not any(s.native for s in compiled.steps):
        return
    so_path = None
    so_bytes = arrays.get(_SO_KEY)
    if (so_bytes is not None
            and ce["toolchain"] == c_backend.toolchain_fingerprint()):
        try:
            so_path = c_backend.install_shared_object(source,
                                                      so_bytes.tobytes())
        except (c_backend.CBackendUnavailable, OSError):
            pass  # fall through to the source recompile
    if so_path is None:
        try:
            so_path = c_backend.compile_shared_object(source)
        except c_backend.CBackendUnavailable as exc:
            raise CacheError(
                f"cannot rebuild native program: {exc}") from exc
    c_backend.bind_steps(compiled, so_path, batch_size)


def thaw(net, meta: dict, arrays: Dict[str, np.ndarray], options, *,
         tracer=None, watchdog=None):
    """Reconstruct a :class:`~repro.runtime.executor.CompiledNet` from a
    cache entry against a freshly built ``net`` of the same
    architecture. Raises :class:`CacheError` on any inconsistency —
    callers fall back to a cold compile.
    """
    from repro.runtime.executor import CompiledNet

    try:
        plan = _decoder(BufferPlan)(meta["plan"])
        if plan.batch_size != net.batch_size:
            raise CacheError(
                f"entry batch {plan.batch_size} vs net {net.batch_size}"
            )
        if plan.time_steps != net.time_steps:
            raise CacheError(
                f"entry time_steps {plan.time_steps} vs net "
                f"{net.time_steps}"
            )
        _link_fields(net, plan, meta["fields"])
        closures = _rebuild_closures(net, plan, meta, arrays)
        fns = exec_program(meta["source"], closures)
        fwd, bwd = (_decoder(List[Step])(meta[phase])
                    for phase in ("forward", "backward"))
        for step in fwd + bwd:
            step.fn = fns.get(step.name)
            if step.fn is None:
                raise CacheError(
                    f"generated source defines no {step.name!r}")
        compiled = CompiledProgram(fwd, bwd, meta["source"], closures)
        if meta["options"].get("backend", "numpy") == "c":
            _rebind_native(compiled, meta, arrays, plan.batch_size)
        # the cold compile's pass records with every wall time zeroed: a
        # thaw runs no passes, but keeps the counters for attribution
        report = CompileReport(_decoder(List[PassRecord])(meta["report"]))
        return CompiledNet(
            net, plan, compiled, options, tracer=tracer,
            compile_report=report,
            num_threads=int(meta["num_threads"]), watchdog=watchdog,
        )
    except CacheError:
        raise
    except Exception as exc:
        raise CacheError(f"corrupt or incompatible entry: {exc}") from exc
