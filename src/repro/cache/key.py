"""Cache keys: canonical builder records + content hashing.

An entry is addressed by a SHA-256 over everything that determines the
compiled program, rendered as canonical (sorted-keys) JSON:

* the **builder record** — the same type-tagged architecture rendering
  checkpoints store (``config_to_dict`` for a
  :class:`~repro.models.ModelConfig`, ``NetSpec.to_dict`` for a fuzz
  spec), so a checkpoint and the cache agree on what "the same model"
  means;
* the batch size and every :class:`~repro.optim.CompilerOptions` field
  (``asdict``), the executor thread count (shard marking happens at
  compile time), and the normalized ``keep_alive`` set (it shapes the
  memory plan);
* the backend identifier, the library version, the NumPy version, the
  batch-tile rule's constants (``repro.optim.tiling``) and the entry
  :data:`FORMAT_VERSION` — bumping any of these invalidates every
  existing entry rather than risking a stale thaw;
* for ``backend="c"``, the toolchain fingerprint (compiler version +
  flags + the target ``-march=native`` resolved to) — those entries
  embed the built shared object's bytes, which are only valid for the
  toolchain and the CPU that produced them.

Anything *not* in the key (tracer, watchdog, cache directory) must
never change the generated program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Optional

import numpy as np

#: executable backend identifiers (CompilerOptions.backend -> id); the
#: id is part of the key, so programs compiled for different backends
#: never collide even though the options dict alone would distinguish
#: them too
BACKEND_IDS = {"numpy": "python-numpy", "c": "c-openmp"}
BACKEND_ID = BACKEND_IDS["numpy"]

#: on-disk entry layout version: readers refuse newer entries and treat
#: older ones as misses (see repro.cache.store); part of the key, so a
#: bump simply stops matching old files instead of misreading them.
#: v2: entries may carry a ``c_exec`` native-program rebuild recipe
#: v3: C-backend entries embed the built ``.so`` bytes (keyed on the
#:     toolchain fingerprint) so warm boots never invoke the compiler
#: v4: the memory plan is byte-addressed (``arena_bytes``/slab
#:     ``nbytes``)
#: v5: ``c_exec`` carries ``symbols`` (steps sharing a twin's kernel)
#:     and its source is split into translation units at markers
#: v6: float32 programs only — buffers carry no storage dtype, and the
#:     paper-style C listing is no longer stored
#: v7: steps carry their ordered, alias-folded def/use record
#:     (``access``) instead of unfolded ``reads``/``writes`` name sets;
#:     norm/loss closures are rebuilt from the topology alone
#: v8: train programs re-gather staging copies in backward (re-copy
#:     steps, ``*_re`` buffers, a smaller arena); the memory plan
#:     carries ``rematerialized``/``declined``
#: v9: staging chains are batch-tiled and their buffers contracted
#:     (buffers carry ``tile``; the plan carries ``contracted`` /
#:     ``untiled``); native kernels return ``void``
#: v10: one batch-tiled group per conv layer (pad → … → pool); values
#:     and padded buffers carry ``tile`` too, and a pad is a zero-fill
#:     step plus its interior copy
#: v11: a re-gather from a padded buffer re-pads it first (backward
#:     ``pad_fill``/``pad`` steps, ``*_padsrc*_re`` buffers); a
#:     ``Rematerialized`` record names the re-padded buffer
FORMAT_VERSION = 11


class CacheUnsupported(ValueError):
    """The model cannot be cached (e.g. a closure kind the freezer does
    not know how to rebuild). Callers fall back to uncached compiles."""


def as_builder(model) -> dict:
    """Normalize a model description into the checkpoint-style builder
    record ``{"kind": "model_config"|"net_spec", ...}``.

    Accepts a :class:`~repro.models.ModelConfig`, a fuzz-generator
    ``NetSpec`` (anything with ``to_dict``/``seed``/``layers``), or an
    already-built builder dict (as stored in checkpoint metadata).
    """
    if isinstance(model, dict):
        if model.get("kind") not in ("model_config", "net_spec"):
            raise CacheUnsupported(
                f"builder dict has unknown kind {model.get('kind')!r}"
            )
        return model
    from repro.models.configs import ModelConfig, config_to_dict

    if isinstance(model, ModelConfig):
        return {"kind": "model_config", "config": config_to_dict(model)}
    if hasattr(model, "to_dict") and hasattr(model, "seed"):
        return {"kind": "net_spec", "spec": model.to_dict()}
    raise CacheUnsupported(
        f"cannot derive a builder record from {type(model).__name__}; "
        f"pass a ModelConfig, a NetSpec, or a checkpoint builder dict"
    )


def builder_batch(builder: dict) -> Optional[int]:
    """The batch size a builder record itself pins (net_spec records
    carry one; model_config records do not)."""
    if builder["kind"] == "net_spec":
        return int(builder["spec"]["batch"])
    return None


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cache_key(builder: dict, batch_size: int, options, num_threads: int,
              keep_alive) -> str:
    """SHA-256 hex key over the canonical compile identity (see module
    docstring). ``keep_alive=None`` means the mode-dependent default and
    hashes as a sentinel distinct from any explicit set."""
    import repro
    from repro.optim import tiling

    if options.precision != "fp32":
        raise CacheUnsupported("only float32 programs are cached")
    identity = {
        "builder": builder,
        "batch_size": int(batch_size),
        "options": asdict(options),
        "num_threads": int(num_threads),
        "keep_alive": (sorted(str(k) for k in keep_alive)
                       if keep_alive is not None else "default"),
        "backend": BACKEND_IDS[getattr(options, "backend", "numpy")],
        "repro_version": repro.__version__,
        "numpy_version": np.__version__,
        "format_version": FORMAT_VERSION,
        # module constants of the tile rules: they shape the schedule
        # and the buffer table like an option would
        "staging_tile": [tiling.STAGING_TILE_BYTES,
                         tiling.TILE_GRANULE_BYTES, tiling.N_TILES],
    }
    if getattr(options, "backend", "numpy") == "c":
        # C-backend entries embed built .so bytes, so the key must
        # change with the (compiler, flags, target) that produced them
        from repro.codegen.c_backend import toolchain_fingerprint

        identity["toolchain"] = toolchain_fingerprint()
    digest = hashlib.sha256(canonical_json(identity).encode()).hexdigest()
    return digest
