"""``compile_cached`` — the compile-with-persistent-cache entry point.

Wraps :func:`repro.optim.pipeline.compile_net` with the on-disk store:
hash the compile identity, thaw on hit (milliseconds — no synthesis, no
passes, no codegen), compile cold and freeze on miss. The returned
executor's ``compile_report`` says which path ran (``cache_hit``,
``cache_key``, ``compile_seconds``), so callers and telemetry never have
to guess.

The cache is *correctness-neutral* by construction: a thawed program is
the stored cold program re-bound to a fresh net, and the differential
oracle's ``cache`` check (:mod:`repro.testing.oracle`) pins warm==cold
bitwise over the fuzz corpus. Any failure in the cache path — corrupt
entry, foreign version, un-freezable closure, unwritable store —
degrades to an ordinary cold compile.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cache.freeze import CacheError, freeze, thaw
from repro.cache.key import (
    CacheUnsupported,
    as_builder,
    build_from,
    builder_batch,
    cache_key,
)
from repro.cache.store import CompileCache
from repro.trace.compile_report import PassRecord


def _as_cache(cache) -> CompileCache:
    if cache is None:
        return CompileCache()
    if isinstance(cache, CompileCache):
        return cache
    return CompileCache(cache)  # a directory path


def model_label(builder: dict) -> str:
    """Short human-readable tag for ``cache ls`` listings."""
    if builder["kind"] == "model_config":
        return str(builder["config"].get("name", "model_config"))
    if builder["kind"] == "net_spec":
        return f"net_spec(seed={builder['spec'].get('seed')})"
    return builder["kind"]


def compile_cached(model, batch_size: Optional[int] = None, *, net=None,
                   options=None, tracer=None, num_threads=None,
                   keep_alive=None, watchdog=None, cache=None):
    """Compile ``model`` through the persistent compilation cache.

    Parameters
    ----------
    model:
        What to compile: a :class:`~repro.models.ModelConfig`, a fuzz
        ``NetSpec``, or a checkpoint-style builder dict. This — not the
        built net — is what gets hashed, so the key is stable across
        processes.
    batch_size:
        Required for ``ModelConfig`` inputs (specs and builder records
        may pin their own); must agree with ``net`` when both are given.
    net:
        An already-built :class:`~repro.core.Net` matching ``model``.
        Pass it to choose its parameter values (a seeded draw, or a
        checkpoint's arrays: ``Checkpoint.compile`` passes
        ``ck.build()``); otherwise the net is built from ``model``.
    cache:
        A :class:`~repro.cache.store.CompileCache`, a directory path, or
        ``None`` for the default store (``REPRO_CACHE_DIR``).
    Other keywords mirror :func:`repro.optim.pipeline.compile_net`.
    """
    from repro.optim.pipeline import (
        CompilerOptions,
        compile_net,
        resolve_num_threads,
    )

    builder = as_builder(model)
    if batch_size is None:
        if net is not None:
            batch_size = net.batch_size
        else:
            batch_size = builder_batch(builder)
    if batch_size is None:
        raise ValueError(
            "compile_cached: pass batch_size= (the builder record does "
            "not pin one)"
        )
    batch_size = int(batch_size)
    if net is not None and net.batch_size != batch_size:
        raise ValueError(
            f"compile_cached: net.batch_size={net.batch_size} but "
            f"batch_size={batch_size}"
        )
    if options is None:
        options = CompilerOptions()
    nt = resolve_num_threads(num_threads)
    try:
        key = cache_key(builder, batch_size, options, nt, keep_alive)
    except CacheUnsupported:
        # not a cacheable compile: run it cold, store nothing
        return compile_net(net or build_from(builder, batch_size), options,
                           tracer=tracer, num_threads=nt,
                           keep_alive=keep_alive, watchdog=watchdog)
    store = _as_cache(cache)

    entry = store.get(key)
    if entry is not None:
        meta, arrays = entry
        if net is None:
            net = build_from(builder, batch_size)
        t0 = time.perf_counter()
        try:
            cnet = thaw(net, meta, arrays, options, tracer=tracer,
                        watchdog=watchdog)
        except CacheError:
            store.prune(key)  # poisoned entry: recompile cold below
        else:
            dt = time.perf_counter() - t0
            report = cnet.compile_report
            report.cache_hit = True
            report.cache_key = key
            report.cache_created = meta.get("created")
            report.compile_seconds = dt
            report.records.append(PassRecord(
                "cache_thaw", True, dt, 0, 0,
                {"passes_skipped": len(report.records)},
            ))
            return cnet

    if net is None:
        net = build_from(builder, batch_size)
    cnet = compile_net(net, options, tracer=tracer, num_threads=nt,
                       keep_alive=keep_alive, watchdog=watchdog)
    cnet.compile_report.cache_key = key
    try:
        meta, arrays = freeze(cnet)
        store.put(key, meta, arrays, model=model_label(builder))
    except (CacheUnsupported, OSError):
        # not freezable, or the store cannot be written: the compile
        # itself is still good
        pass
    return cnet
