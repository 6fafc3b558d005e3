"""Compile-cache CLI: ``python -m repro.cache {ls,prune,warm}``.

* ``ls``    — list entries (key prefix, model, backend, size, age),
  LRU-newest first, plus the directory total against the eviction
  bound; ``--json`` emits the same listing machine-readably.
* ``prune`` — delete one entry by key prefix, drop everything with
  ``--all``, or re-apply the size bound with ``--max-bytes``.
* ``warm``  — pre-populate the cache from a checkpoint so the *next*
  server boot is a warm start: ``python -m repro.cache warm
  --checkpoint model.npz``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024 or unit == "GB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GB"


def _fmt_age(seconds: float) -> str:
    if seconds < 120:
        return f"{int(seconds)}s"
    if seconds < 7200:
        return f"{int(seconds / 60)}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_ls(args) -> int:
    import json

    from repro.cache import CompileCache

    cache = CompileCache(args.cache_dir)
    entries = cache.entries()
    now = time.time()
    if args.json:
        payload = {
            "root": str(cache.root),
            "max_bytes": cache.max_bytes,
            "total_bytes": sum(e.size_bytes for e in entries),
            "entries": [
                {"key": e.key, "model": e.model,
                 "backend": e.backend,
                 "size_bytes": e.size_bytes,
                 "age_seconds": max(0.0, now - e.mtime),
                 "created": e.created}
                for e in entries
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"compile cache {cache.root}: empty")
        return 0
    print(f"compile cache {cache.root}:")
    print(f"{'key':14s} {'model':24s} {'backend':8s} "
          f"{'size':>9s} {'age':>6s}")
    for e in entries:
        print(f"{e.key[:12] + '..':14s} {e.model[:24]:24s} "
              f"{e.backend[:8]:8s} "
              f"{_fmt_bytes(e.size_bytes):>9s} "
              f"{_fmt_age(max(0.0, now - e.mtime)):>6s}")
    total = sum(e.size_bytes for e in entries)
    print(f"{len(entries)} entries, {_fmt_bytes(total)} "
          f"(bound {_fmt_bytes(cache.max_bytes)})")
    return 0


def _cmd_prune(args) -> int:
    from repro.cache import CompileCache

    cache = CompileCache(args.cache_dir, max_bytes=args.max_bytes)
    cache.clean_tmp()
    if args.all:
        n = cache.prune()
        print(f"pruned {n} entries")
    elif args.key:
        n = cache.prune(args.key)
        print(f"pruned {n} entries matching {args.key!r}")
    elif args.max_bytes is not None:
        evicted = cache.evict()
        print(f"evicted {len(evicted)} entries "
              f"(bound {_fmt_bytes(args.max_bytes)})")
    else:
        print("prune: pass a key prefix, --all, or --max-bytes",
              file=sys.stderr)
        return 2
    return 0


def _cmd_warm(args) -> int:
    from repro.cache import CompileCache
    from repro.optim import CompilerOptions
    from repro.serve.checkpoint import load_checkpoint

    cache = CompileCache(args.cache_dir)
    ck = load_checkpoint(args.checkpoint)
    if args.level is not None:
        options = CompilerOptions.level(args.level)
        if args.mode == "inference":
            options = CompilerOptions.inference(args.level)
    else:
        options = CompilerOptions.inference()
        if args.mode == "training":
            options = CompilerOptions()
    cnet = ck.compile(
        batch_size=args.batch_size,
        options=options,
        num_threads=args.threads,
        cache=cache,
    )
    report = cnet.compile_report
    state = "hit (already warm)" if report.cache_hit else "miss (stored)"
    print(f"warmed {args.checkpoint} -> {cache.root}")
    print(f"key {report.cache_key[:12]}..: {state}, "
          f"compile {report.compile_seconds * 1e3:.1f}ms")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and manage the persistent compilation cache.",
    )
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: REPRO_CACHE_DIR or "
                             "~/.cache/latte-repro/compile)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ls = sub.add_parser("ls", help="list cache entries")
    p_ls.add_argument("--json", action="store_true",
                      help="emit the listing as machine-readable JSON")

    p_prune = sub.add_parser("prune", help="delete entries")
    p_prune.add_argument("key", nargs="?", default=None,
                         help="key prefix to delete")
    p_prune.add_argument("--all", action="store_true",
                         help="delete every entry")
    p_prune.add_argument("--max-bytes", type=int, default=None,
                         help="evict LRU entries beyond this size")

    p_warm = sub.add_parser(
        "warm", help="compile a checkpoint into the cache"
    )
    p_warm.add_argument("--checkpoint", required=True,
                        help="checkpoint .npz to warm from")
    p_warm.add_argument("--batch-size", type=int, default=None,
                        help="serving batch size (default: checkpoint's)")
    p_warm.add_argument("--mode", choices=("inference", "training"),
                        default="inference")
    p_warm.add_argument("--level", type=int, default=None,
                        help="optimization level 0..4 (default: full)")
    p_warm.add_argument("--threads", type=int, default=None,
                        help="executor thread count baked into the key")

    args = parser.parse_args(argv)
    if args.command == "ls":
        return _cmd_ls(args)
    if args.command == "prune":
        return _cmd_prune(args)
    return _cmd_warm(args)


if __name__ == "__main__":
    sys.exit(main())
