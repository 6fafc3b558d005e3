"""Persistent compilation cache (see docs/COMPILE_CACHE.md).

Compiling a Latte network runs synthesis, the whole optimization-pass
ladder, and codegen — seconds of work that is a pure function of the
architecture, the compiler options, and the toolchain versions. This
package memoizes that function on disk: ``compile_cached`` hashes the
compile identity, and a hit rebuilds the executor from the stored
program in milliseconds (``repro.cache.freeze``) instead of recompiling.

CLI: ``python -m repro.cache {ls,prune,warm}``.
"""

from repro.cache.api import compile_cached, model_label
from repro.cache.freeze import CacheError, freeze, thaw
from repro.cache.key import (
    BACKEND_ID,
    CacheUnsupported,
    as_builder,
    cache_key,
)
from repro.cache.store import CompileCache, default_cache_dir

__all__ = [
    "BACKEND_ID",
    "CacheError",
    "CacheUnsupported",
    "CompileCache",
    "as_builder",
    "cache_key",
    "compile_cached",
    "default_cache_dir",
    "freeze",
    "model_label",
    "thaw",
]
