"""On-disk compile-cache store: one ``<key>.npz`` per entry.

Layout: a single flat directory (default ``~/.cache/latte-repro/compile``,
overridable via ``REPRO_CACHE_DIR`` or the constructor). Each entry is an
uncompressed ``.npz`` holding the freeze metadata as JSON under
``__meta__`` plus any materialized arrays (gather index tables) under
their own keys — the same container discipline as
:mod:`repro.serve.checkpoint`.

Durability rules:

* **Writes are atomic**: ``tempfile.mkstemp`` in the cache directory,
  then ``os.replace``. Two processes warming the same key race benignly —
  both write complete files, the last rename wins, and readers only ever
  see a fully written entry.
* **Reads are corruption-tolerant**: any failure to load/parse/validate
  an entry (truncated file, version skew, key mismatch) deletes the bad
  file and reports a miss; callers recompile cold. A cache can only cost
  you a recompile, never a crash.
* **Eviction is size-bounded LRU**: ``put`` evicts oldest-by-mtime
  entries beyond ``max_bytes`` (``REPRO_CACHE_MAX_BYTES``, default
  512 MB); ``get`` touches mtime so hot entries survive.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.key import FORMAT_VERSION

ENV_DIR = "REPRO_CACHE_DIR"
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_FORMAT = "latte-compile-cache"
_META_KEY = "__meta__"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "latte-repro" / "compile"


@dataclass
class CacheEntryInfo:
    """One on-disk entry as listed by :meth:`CompileCache.entries`."""

    key: str
    path: Path
    size_bytes: int
    mtime: float
    model: str = "?"
    created: float = 0.0
    backend: str = "?"


class CompileCache:
    """Size-bounded LRU store of frozen compilations."""

    def __init__(self, root=None, max_bytes: Optional[int] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        if max_bytes is None:
            env = os.environ.get(ENV_MAX_BYTES)
            max_bytes = int(env) if env else DEFAULT_MAX_BYTES
        self.max_bytes = max_bytes

    # -- paths ------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    # -- read -------------------------------------------------------------

    def get(self, key: str) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
        """Load ``(meta, arrays)`` for ``key``, or ``None`` on miss.

        Any malformed entry (truncated write, foreign file, version
        skew) is deleted and reported as a miss.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(bytes(data[_META_KEY]).decode("utf-8"))
                arrays = {
                    name: data[name]
                    for name in data.files
                    if name != _META_KEY
                }
            if meta.get("format") != _FORMAT:
                raise ValueError(f"not a {_FORMAT} file")
            if meta.get("version") != FORMAT_VERSION:
                raise ValueError(
                    f"entry version {meta.get('version')} != "
                    f"{FORMAT_VERSION}"
                )
            if meta.get("key") != key:
                raise ValueError("entry key does not match its filename")
        except Exception:
            self._discard(path)
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return meta, arrays

    # -- write ------------------------------------------------------------

    def put(self, key: str, meta: dict, arrays: Dict[str, np.ndarray],
            *, model: str = "?") -> Path:
        """Atomically persist an entry and evict beyond ``max_bytes``."""
        meta = dict(meta)
        meta["format"] = _FORMAT
        meta["version"] = FORMAT_VERSION
        meta["key"] = key
        meta.setdefault("created", time.time())
        meta.setdefault("model", model)
        payload = dict(arrays)
        payload[_META_KEY] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        self.root.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        np.savez(buf, **payload)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, self.path_for(key))
        except BaseException:
            self._discard(Path(tmp))
            raise
        self.evict()
        return self.path_for(key)

    # -- maintenance ------------------------------------------------------

    def entries(self) -> List[CacheEntryInfo]:
        """All entries, most-recently-used first."""
        out: List[CacheEntryInfo] = []
        if not self.root.is_dir():
            return out
        for path in self.root.glob("*.npz"):
            try:
                st = path.stat()
            except OSError:
                continue
            info = CacheEntryInfo(
                key=path.stem, path=path,
                size_bytes=st.st_size, mtime=st.st_mtime,
            )
            try:
                with np.load(path, allow_pickle=False) as data:
                    meta = json.loads(
                        bytes(data[_META_KEY]).decode("utf-8")
                    )
                info.model = str(meta.get("model", "?"))
                info.created = float(meta.get("created", 0.0))
                opts = meta.get("options") or {}
                info.backend = str(opts.get("backend", "numpy"))
            except Exception:
                info.model = "<corrupt>"
            out.append(info)
        out.sort(key=lambda e: e.mtime, reverse=True)
        return out

    def total_bytes(self) -> int:
        return sum(e.size_bytes for e in self.entries())

    def evict(self, max_bytes: Optional[int] = None) -> List[str]:
        """Drop least-recently-used entries until under the size bound.
        Returns the evicted keys."""
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None or bound < 0:
            return []
        entries = self.entries()
        total = sum(e.size_bytes for e in entries)
        evicted: List[str] = []
        while entries and total > bound:
            victim = entries.pop()  # oldest mtime is last
            self._discard(victim.path)
            total -= victim.size_bytes
            evicted.append(victim.key)
        return evicted

    def prune(self, key: Optional[str] = None) -> int:
        """Delete one entry (by key or unique prefix) or, with no key,
        every entry. Returns the number removed."""
        if key is None:
            n = 0
            for e in self.entries():
                self._discard(e.path)
                n += 1
            return n
        matches = [e for e in self.entries() if e.key.startswith(key)]
        for e in matches:
            self._discard(e.path)
        return len(matches)

    # also clean up stray .npz.tmp files from crashed writers
    def clean_tmp(self) -> int:
        n = 0
        if self.root.is_dir():
            for path in self.root.glob("*.npz.tmp"):
                self._discard(path)
                n += 1
        return n

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
