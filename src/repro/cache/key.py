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
  batch-tile rule's constants (``repro.optim.tiling``) and the
  :func:`source_fingerprint` of the package's own code — any edit to
  the library invalidates every existing entry rather than risking a
  stale thaw, and no layout version is kept by hand;
* for ``backend="c"``, the toolchain fingerprint (compiler version +
  flags + the target ``-march=native`` resolved to) — those entries
  embed the built shared object's bytes, which are only valid for the
  toolchain and the CPU that produced them.

Anything *not* in the key (tracer, watchdog, cache directory) must
never change the generated program.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional

import numpy as np

#: executable backend identifiers (CompilerOptions.backend -> id); the
#: id is part of the key, so programs compiled for different backends
#: never collide even though the options dict alone would distinguish
#: them too
BACKEND_IDS = {"numpy": "python-numpy", "c": "c-openmp"}
BACKEND_ID = BACKEND_IDS["numpy"]


@functools.lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """SHA-256 hex digest of every ``*.py`` file of the ``repro``
    package: its path relative to the package (POSIX spelling) and its
    bytes, in path order. The same code hashes alike wherever it is
    installed; computed once per process, on first use.

    An entry records the fingerprint of the code that wrote it, so an
    entry written by any other code is a miss, never a thaw."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix()
                      for p in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


#: the kinds of builder record (:func:`as_builder`)
BUILDER_KINDS = ("model_config", "net_spec")


class CacheUnsupported(ValueError):
    """This model's compile cannot be cached: a closure kind with no
    rebuild recipe, a live array with no field provenance, or a program
    that is not float32. Callers fall back to uncached compiles."""


def as_builder(model) -> dict:
    """Normalize a model description into the checkpoint-style builder
    record ``{"kind": "model_config"|"net_spec", ...}``.

    Accepts a :class:`~repro.models.ModelConfig`, a fuzz-generator
    ``NetSpec`` (anything with ``to_dict``/``seed``/``layers``), or an
    already-built builder dict (as stored in checkpoint metadata).
    """
    if isinstance(model, dict):
        if model.get("kind") not in BUILDER_KINDS:
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


def build_from(builder: dict, batch: int, params=None):
    """The (uncompiled) :class:`~repro.core.Net` a builder record
    describes, rebuilt at ``batch`` with values from ``params``."""
    if builder["kind"] == "model_config":
        from repro.models import build_latte
        from repro.models.configs import config_from_dict

        return build_latte(config_from_dict(builder["config"]), batch,
                           params=params).net
    from repro.testing.generator import NetSpec, build_net

    spec = NetSpec.from_dict(builder["spec"])
    return build_net(replace(spec, batch=batch), params=params)


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
    docstring). ``keep_alive`` hashes as its sorted names: ``None`` and
    ``()`` compile the same program, so they share a key."""
    import repro
    from repro.optim import tiling

    if options.precision != "fp32":
        raise CacheUnsupported("only float32 programs are cached")
    identity = {
        "builder": builder,
        "batch_size": int(batch_size),
        "options": asdict(options),
        "num_threads": int(num_threads),
        "keep_alive": sorted({str(k) for k in keep_alive or ()}),
        "backend": BACKEND_IDS[options.backend],
        "repro_version": repro.__version__,
        "numpy_version": np.__version__,
        "source": source_fingerprint(),
        # module constants of the tile rules: they shape the schedule
        # and the buffer table like an option would
        "staging_tile": [tiling.STAGING_TILE_BYTES,
                         tiling.TILE_GRANULE_BYTES],
    }
    if options.backend == "c":
        # C-backend entries embed built .so bytes, so the key must
        # change with the (compiler, flags, target) that produced them
        from repro.codegen.c_backend import toolchain_fingerprint

        identity["toolchain"] = toolchain_fingerprint()
    digest = hashlib.sha256(canonical_json(identity).encode()).hexdigest()
    return digest
