"""C/OpenMP backend: paper-style rendering *and* native execution.

Two artifacts come out of this module:

* :func:`render_items` — the C++/OpenMP *rendering* the paper presents
  (Figures 9, 10, 12): the post-optimization schedule printed with
  symbolic loop bounds and ``gemm(...)`` calls. Used for inspection,
  golden tests, and documentation; never compiled.

* the **executable native backend** (``CompilerOptions(backend="c")``):
  every fused step is lowered to a C function (steps that are the same
  kernel on different buffers share one), the program is compiled once
  with the system toolchain (a few translation units through a pool of
  ``cc`` processes → one shared object) and loaded via :mod:`ctypes`.
  Buffers stay NumPy-owned — each step receives raw ``float*`` pointers
  into the executor's buffer table, so checkpoints, the memory
  planner's arena offsets, tracer spans, and ``rebind_buffer`` keep
  working unchanged.

The native lowering contract:

* one exported C function per *distinct* kernel, named like the Python
  step function of the first step that needs it (``_step_f0``,
  ``_step_b3``, ...), with the signature ``void step(float* <buf>, ...,
  long long _b0, long long _b1, long long _omp)`` where the buffer
  pointers are that step's touched buffers in sorted-name order and
  ``_b0/_b1`` are the same batch-shard bounds the threaded Python
  backend's step functions take; a later step whose body is identical
  up to buffer and loop-variable names calls the same function with
  its own buffers (``CompiledProgram.c_symbols``);
* scalar :class:`~repro.ir.Assign` units become plain loop nests over
  flat row-major offsets (strides baked in at compile time from the
  buffer plan), with value arithmetic performed in ``double`` and
  results stored as ``float`` — mirroring the O0 interpreter's
  float64-compute/float32-store behaviour;
* pattern-matched :class:`~repro.ir.Gemm` units become one sgemm call
  on the operands where they lie — per image, under a loop over the
  batch letter, for ``[n][c][y][x]`` conv operands — and kernels never
  allocate; a letter structure sgemm cannot express becomes a loop nest
  over the matched einsum letters — free (output) letters outer,
  contraction letters inner — accumulating into a local ``double`` with
  ``#pragma omp simd reduction`` on the innermost contraction loop;
* batch-disjoint outer loops carry ``#pragma omp parallel for``
  guarded by the per-call ``_omp`` thread count, which the binder pins
  to 1 whenever the executor itself shards batches across threads (no
  oversubscription, and bitwise-reproducible at 1 thread);
* any step the lowering cannot express (extern closures such as
  softmax-loss, or exotic index forms) silently keeps its Python step
  function — programs are hybrid by construction.

Steps that stay Python are recorded with a reason in
``CompiledProgram.c_skipped`` for diagnostics and tests.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import re
import shutil
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir import (
    Assign,
    BinOp,
    Call,
    CommCall,
    Compare,
    Const,
    ExternOp,
    For,
    Gemm,
    Index,
    SliceExpr,
    UnaryOp,
    Var,
    free_vars,
    write_target_vars,
)
from repro.ir.printer import to_c
from repro.synthesis.lower import BATCH_VAR
from repro.synthesis.units import FusedGroup, LoopUnit, unit_to_for_tree


def render_items(items, title: str = "") -> str:
    """Render a schedule (list of FusedGroup/CommCall) as C-like source."""
    out: List[str] = []
    if title:
        out.append(f"// === {title} ===")
    for item in items:
        if isinstance(item, CommCall):
            out.append(to_c(item))
            continue
        assert isinstance(item, FusedGroup)
        out.append(f"// {item.label}")
        units = item.units
        if item.contracted:
            from repro.codegen.python_backend import _contract_unit

            units = [_contract_unit(u, set(item.contracted), item.tile_loop)
                     for u in units]
        trees = [unit_to_for_tree(u) for u in units]
        if item.tile_loop is not None:
            sp = item.tile_loop
            tree = For(
                sp.var,
                sp.start,
                sp.stop,
                trees,
                parallel=sp.parallel,
                collapse=sp.collapse,
                schedule=sp.schedule,
            )
            out.append(to_c(tree))
        else:
            out.extend(to_c(t) for t in trees)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Native backend: toolchain detection and shared-object builds
# ---------------------------------------------------------------------------

class CBackendUnavailable(RuntimeError):
    """No working C toolchain (or a build failed); carries the reason."""


class _Unlowerable(Exception):
    """Internal: this step cannot be expressed in C; keep its Python fn."""


_F32 = np.dtype(np.float32)

#: params/locals we must never collide with, plus C keywords a user's
#: ensemble name could accidentally spell
_C_RESERVED = frozenset("""
auto break case char const continue default do double else enum extern
float for goto if inline int long register restrict return short signed
sizeof static struct switch typedef union unsigned void volatile while
_b0 _b1 _omp _acc _M _N _K _v _t
""".split())

#: the build recipe. The loop vectorizer is what makes kernels fast
#: (``-O2`` alone keeps it to its cheapest cost model); ``-O3``'s
#: complete peeling of small constant-trip loops is what makes them
#: slow to build. This recipe spends about two thirds of ``-O3``'s
#: ``cc`` time and computes the same bits at the same step time
#: (EXPERIMENTS.md, "cold native build", with the recipes measured and
#: rejected).
_BASE_FLAGS = ["-O2", "-ftree-vectorize", "-fpeel-loops", "-fPIC", "-shared"]
_EXTRA_FLAGS = ["-march=native", "-fopenmp"]

_PROBE_SRC = (
    "int latte_probe(int x) {\n"
    "  double s = 0;\n"
    "  #pragma omp parallel for reduction(+:s)\n"
    "  for (int i = 0; i < x; i++) s += i;\n"
    "  return (int)s;\n"
    "}\n"
)

#: memoized toolchain probe: {'cc': path, 'flags': [...], 'why': str,
#: 'target': digest of the target the flags resolve to}
_toolchain: Optional[Dict] = None
#: dlopen cache: .so path -> ctypes.CDLL
_dll_cache: Dict[str, ctypes.CDLL] = {}


def build_dir() -> Path:
    """Directory for compiled shared objects (content-addressed, so
    identical generated source is never compiled twice). Override with
    ``REPRO_CBUILD_DIR``."""
    env = os.environ.get("REPRO_CBUILD_DIR", "").strip()
    if env:
        p = Path(env)
    else:
        cache = os.environ.get("XDG_CACHE_HOME", "").strip()
        base = Path(cache) if cache else Path.home() / ".cache"
        p = base / "repro" / "cbuild"
    try:
        p.mkdir(parents=True, exist_ok=True)
        return p
    except OSError:
        fallback = Path(tempfile.gettempdir()) / "repro-cbuild"
        fallback.mkdir(parents=True, exist_ok=True)
        return fallback


def _find_compiler() -> Optional[str]:
    for cand in (os.environ.get("CC", "").strip() or None, "cc", "gcc",
                 "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _try_compile(cc: str, flags: List[str], src: Path, out: Path) -> bool:
    try:
        proc = subprocess.run(
            [cc, *flags, str(src), "-o", str(out), "-lm"],
            capture_output=True, timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 0 and out.exists()


def _target_macros(cc: str, flags: List[str]) -> str:
    """The macros ``cc`` predefines under ``flags``, sorted. They spell
    out the CPU ``-march=native`` resolved to (``__AVX512F__``,
    ``__FMA__``, ...); empty when the compiler cannot list them."""
    try:
        proc = subprocess.run([cc, *flags, "-dM", "-E", "-"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    if proc.returncode:
        return ""
    return "\n".join(sorted(proc.stdout.decode(errors="replace").splitlines()))


def _probe_toolchain() -> Dict:
    """Find a compiler and the widest flag set it accepts (memoized)."""
    global _toolchain
    if _toolchain is not None:
        return _toolchain
    cc = _find_compiler()
    if cc is None:
        _toolchain = {"cc": None, "flags": [],
                      "why": "no C compiler found ($CC, cc, gcc, clang)"}
        return _toolchain
    with tempfile.TemporaryDirectory(prefix="repro-ccheck-") as td:
        src = Path(td) / "probe.c"
        src.write_text(_PROBE_SRC)
        # drop optional flags one at a time until a combination works
        for n_extra in range(len(_EXTRA_FLAGS), -1, -1):
            flags = _BASE_FLAGS + _EXTRA_FLAGS[:n_extra]
            if _try_compile(cc, flags, src, Path(td) / f"probe{n_extra}.so"):
                # "-march=native" names no CPU: a .so built for one must
                # not be found by a build or cache lookup on another
                target = hashlib.sha256(
                    _target_macros(cc, flags).encode()).hexdigest()[:16]
                _toolchain = {"cc": cc, "flags": flags, "why": "",
                              "target": target}
                return _toolchain
    _toolchain = {"cc": cc, "flags": [],
                  "why": f"{cc} failed to build a trivial shared object"}
    return _toolchain


def have_c_toolchain() -> bool:
    """True when a compiler capable of building our kernels is present."""
    return _probe_toolchain()["cc"] is not None and not _probe_toolchain()["why"]


def toolchain_error() -> str:
    """Human-readable reason :func:`have_c_toolchain` returned False."""
    info = _probe_toolchain()
    return info["why"] or "toolchain available"


#: seconds one compiler process may run before the build is abandoned
_CC_TIMEOUT = 300.0

#: section markers inside the one-string program source: everything
#: before ``_RUNTIME_MARK`` is the header every translation unit
#: repeats, the runtime section defines the sgemm hook exactly once,
#: and each ``_KERNEL_MARK`` starts one kernel function
_RUNTIME_MARK = "/*@latte:runtime*/\n"
_KERNEL_MARK = "/*@latte:kernel*/\n"

#: kernel source bytes per translation unit. The split is a function of
#: the source alone — never of the CPU count — so every machine with
#: the same toolchain links byte-identical objects in the same order.
#: One unit per kernel would start a process and re-parse the header
#: ~100 times; a handful of units keeps a small worker pool busy.
_TU_BYTES = 16 * 1024


def _artifact(source: str) -> Path:
    """Content-addressed ``.so`` path for ``source`` under the active
    (compiler, flags, resolved target) triple; its ``.c`` twin sits
    beside it."""
    info = _probe_toolchain()
    if not info["cc"] or info["why"]:
        raise CBackendUnavailable(
            f"C backend unavailable: {toolchain_error()}"
        )
    tag = hashlib.sha256("\x00".join([
        source, info["cc"], " ".join(info["flags"]), info["target"],
    ]).encode()).hexdigest()[:24]
    return build_dir() / f"latte_{tag}.so"


def _translation_units(source: str) -> List[Tuple[str, str]]:
    """Split a program into ``(name, text)`` translation units: ``rt``
    (header + runtime section) and ``k0..kN`` (header + a share of the
    kernels). Kernels go largest-first onto the lightest unit, so the
    units cost about the same to compile; inside a unit they keep
    schedule order."""
    head, *kernels = source.split(_KERNEL_MARK)
    header, _, runtime = head.partition(_RUNTIME_MARK)
    units = [("rt", header + runtime)]
    if kernels:
        total = sum(map(len, kernels))
        n = min(len(kernels), -(-total // _TU_BYTES))
        bins: List[List[int]] = [[] for _ in range(n)]
        load = [0] * n
        for i in sorted(range(len(kernels)), key=lambda i: -len(kernels[i])):
            b = load.index(min(load))
            bins[b].append(i)
            load[b] += len(kernels[i])
        units += [
            (f"k{b}", header + "".join(kernels[i] for i in sorted(idx)))
            for b, idx in enumerate(bins)
        ]
    return units


def _cc_jobs() -> int:
    """Compiler processes to run at once: the CPUs this process may
    actually use (its affinity mask, where the platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class _CcFailed(Exception):
    """Internal: the compiler command named ``unit`` failed for ``reason``."""

    def __init__(self, unit: str, reason: str):
        super().__init__(unit, reason)
        self.unit, self.reason = unit, reason


def _run_cc(cmds: Dict[str, List[str]], cwd: Path,
            jobs: int) -> Dict[str, float]:
    """Run the named compiler commands, ``jobs`` at a time, in ``cwd``;
    returns each command's wall seconds by name.

    Raises ``_CcFailed(name, reason)`` for the first command that
    cannot start, exits non-zero or outlives ``_CC_TIMEOUT``; by then
    every sibling has been killed and waited for and no further command
    is started — a failed build leaves no compiler process behind.
    """
    lock = threading.Lock()
    live: set = set()
    failed: List[Tuple[str, str]] = []
    seconds: Dict[str, float] = {}

    def fail(name: str, why: str) -> None:
        failed.append((name, why))
        for p in live:
            p.kill()

    def one(name: str) -> None:
        cmd = cmds[name]
        with lock:
            if failed:
                return
            t0 = time.perf_counter()
            try:
                proc = subprocess.Popen(
                    cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                )
            except OSError as exc:
                fail(name, f"cannot run {cmd[0]}: {exc}")
                return
            live.add(proc)
        try:
            _, err = proc.communicate(timeout=_CC_TIMEOUT)
            why = (err.decode(errors="replace")[-2000:]
                   or f"exit status {proc.returncode}"
                   ) if proc.returncode else ""
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            why = f"{cmd[0]} still running after {_CC_TIMEOUT:g}s"
        with lock:
            seconds[name] = time.perf_counter() - t0
            live.discard(proc)
            if why and not failed:
                fail(name, why)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(one, cmds))  # list(): re-raise a worker's exception
    if failed:
        raise _CcFailed(*failed[0])
    return seconds


def _build(so: Path, source: str, units: List[Tuple[str, str]]) -> Dict:
    """Compile ``units`` in a private scratch directory under the build
    directory, link them in unit order and move the result to ``so``;
    returns the build's ``cc_jobs``/``cc_seconds``/
    ``cc_unit_max_seconds``/``link_seconds``."""
    info = _probe_toolchain()
    so.with_suffix(".c").write_text(source)
    flags = [f for f in info["flags"] if f != "-shared"]
    # largest unit first: the pool's tail is then a small one
    compile_cmds = {
        name: [info["cc"], *flags, "-c", f"{name}.c", "-o", f"{name}.o"]
        for name, _ in sorted(units, key=lambda u: -len(u[1]))
    }
    link_cmd = [info["cc"], *info["flags"],
                *(f"{name}.o" for name, _ in units), "-o", "out.so", "-lm"]
    jobs = min(_cc_jobs(), len(units))
    tmp = Path(tempfile.mkdtemp(prefix=f".{so.stem}.", dir=so.parent))
    try:
        for name, text in units:
            (tmp / f"{name}.c").write_text(text)
        t0 = time.perf_counter()
        unit_seconds = _run_cc(compile_cmds, tmp, jobs)
        t1 = time.perf_counter()
        _run_cc({"link": link_cmd}, tmp, 1)
        t2 = time.perf_counter()
        os.replace(tmp / "out.so", so)  # atomic: builders converge
    except _CcFailed as exc:
        kept = so.with_suffix(".c")
        if exc.unit != "link":
            kept = so.with_suffix(f".{exc.unit}.c")
            os.replace(tmp / f"{exc.unit}.c", kept)
        raise CBackendUnavailable(
            f"C backend build failed in unit {exc.unit} "
            f"(source kept at {kept}):\n{exc.reason}"
        ) from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"cc_jobs": jobs, "cc_seconds": t1 - t0,
            "cc_unit_max_seconds": max(unit_seconds.values()),
            "link_seconds": t2 - t1}


def compile_shared_object(source: str,
                          stats: Optional[Dict] = None) -> str:
    """Compile generated C ``source`` to a shared object; returns its path.

    Builds are content-addressed on (source, compiler, flags, resolved
    target): recompiling
    an identical program — e.g. a cache thaw, or the second oracle run of
    a determinism check — reuses the existing ``.so`` byte-for-byte.

    A miss splits the program into translation units
    (:func:`_translation_units`), compiles them with a pool of
    :func:`_cc_jobs` compiler processes inside a private scratch
    directory, links the objects in unit order and moves the result
    into place atomically, so concurrent builders of one program
    converge on identical bytes. Any failure — a unit that does not
    compile, a compiler that hangs or vanishes — raises
    :class:`CBackendUnavailable` naming the unit (its ``.c`` is kept)
    and leaves no object, shared object or scratch directory behind.

    ``stats``, when given, receives the build's counters
    (``translation_units``, ``cc_jobs``, ``cc_seconds`` — the pool's
    wall time —, ``cc_unit_max_seconds`` — its slowest unit's —,
    ``link_seconds``, ``so_bytes``, ``build_dir_hit``).
    """
    so = _artifact(source)
    units = _translation_units(source)
    rec = {"translation_units": len(units), "cc_jobs": 0, "cc_seconds": 0.0,
           "cc_unit_max_seconds": 0.0, "link_seconds": 0.0,
           "build_dir_hit": int(so.exists())}
    if not rec["build_dir_hit"]:
        rec.update(_build(so, source, units))
    rec["so_bytes"] = so.stat().st_size
    if stats is not None:
        stats.update(rec)
    return str(so)


#: memoized toolchain fingerprint (built on first use)
_fingerprint: Optional[str] = None


def toolchain_fingerprint() -> str:
    """A short stable identifier for the active compiler, its flags and
    the target they resolve to (``-march=native`` on this CPU).

    Cache entries that embed compiled shared-object bytes record this so
    a thaw on a different machine (or after a compiler upgrade) knows
    the bytes are foreign and falls back to recompiling from source.
    ``"none"`` when no toolchain is available.
    """
    global _fingerprint
    if _fingerprint is not None:
        return _fingerprint
    info = _probe_toolchain()
    if not info["cc"] or info["why"]:
        _fingerprint = "none"
        return _fingerprint
    try:
        proc = subprocess.run([info["cc"], "--version"],
                              capture_output=True, timeout=30)
        version = proc.stdout.decode(errors="replace").splitlines()[0]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        version = "unknown"
    digest = hashlib.sha256("\x00".join(
        [version, " ".join(info["flags"]), info["target"]]).encode()
    ).hexdigest()[:16]
    _fingerprint = f"{Path(info['cc']).name}:{digest}"
    return _fingerprint


def shared_object_bytes(source: str) -> bytes:
    """The compiled shared object for ``source``, as bytes (building it
    first if this process has not yet). Used by the compile cache to
    embed the native artifact in an entry so warm boots skip ``cc``."""
    return Path(compile_shared_object(source)).read_bytes()


def install_shared_object(source: str, data: bytes) -> str:
    """Drop pre-built shared-object ``data`` at the content-addressed
    path :func:`compile_shared_object` would produce for ``source``;
    returns that path without ever invoking the compiler.

    The caller is responsible for checking
    :func:`toolchain_fingerprint` matches the fingerprint recorded when
    the bytes were built — foreign bytes belong to a different compiler
    and must be rebuilt from source instead.
    """
    so = _artifact(source)
    if so.exists():
        return str(so)
    csrc = so.with_suffix(".c")
    if not csrc.exists():
        csrc.write_text(source)
    fd, tmp = tempfile.mkstemp(prefix=f".{so.stem}.", suffix=".so",
                               dir=so.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, so)  # atomic: concurrent installers converge
    except OSError:
        os.unlink(tmp)
        raise
    return str(so)


#: memoized cblas_sgemm lookup: None = not found, (addr, ilp64) = found;
#: the CDLL is pinned in _cblas_dll so the symbol address stays valid
_cblas_probed = False
_cblas_info: Optional[Tuple[int, int]] = None
_cblas_dll: Optional[ctypes.CDLL] = None


def _find_cblas() -> Optional[Tuple[int, int]]:
    """Locate a ``cblas_sgemm`` in the BLAS NumPy bundles (memoized).

    Returns ``(address, ilp64)`` or None. Packed GEMMs then run on the
    very library the NumPy backend's einsum/tensordot calls use — same
    kernels, same rounding — instead of the self-contained fallback.
    ``REPRO_C_NO_BLAS=1`` disables the lookup (fallback-kernel testing).
    """
    global _cblas_probed, _cblas_info, _cblas_dll
    if _cblas_probed:
        return _cblas_info
    _cblas_probed = True
    if os.environ.get("REPRO_C_NO_BLAS", "").strip():
        return None
    import glob

    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    candidates = sorted(glob.glob(str(libs_dir / "*openblas*"))) + sorted(
        set(glob.glob(str(libs_dir / "*blas*")))
        - set(glob.glob(str(libs_dir / "*openblas*")))
    )
    for path in candidates:
        try:
            dll = ctypes.CDLL(path)
        except OSError:
            continue
        for sym, ilp64 in (("scipy_cblas_sgemm64_", 1),
                           ("cblas_sgemm64_", 1), ("cblas_sgemm", 0)):
            fn = getattr(dll, sym, None)
            if fn is not None:
                _cblas_dll = dll
                _cblas_info = (ctypes.cast(fn, ctypes.c_void_p).value,
                               ilp64)
                return _cblas_info
    return None


def _load(so_path: str) -> ctypes.CDLL:
    dll = _dll_cache.get(so_path)
    if dll is None:
        dll = ctypes.CDLL(so_path)
        setter = getattr(dll, "latte_set_sgemm", None)
        if setter is not None:
            info = _find_cblas()
            if info is not None:
                setter.argtypes = [ctypes.c_void_p, ctypes.c_int]
                setter.restype = None
                setter(ctypes.c_void_p(info[0]), ctypes.c_int(info[1]))
        _dll_cache[so_path] = dll
    return dll


# ---------------------------------------------------------------------------
# Native backend: expression lowering
# ---------------------------------------------------------------------------

_CMP = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: value-context intrinsics -> C spelling (all double-precision)
_C_FUNCS = {
    "exp": "exp", "log": "log", "sqrt": "sqrt", "tanh": "tanh",
    "abs": "fabs", "sigmoid": "_sigmoid",
}


def _int_const(e: Const) -> int:
    v = e.value
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Unlowerable(f"non-numeric index constant {v!r}")
    if isinstance(v, float):
        if not v.is_integer():
            raise _Unlowerable(f"fractional index constant {v!r}")
        v = int(v)
    return v


def _ri(e) -> str:
    """Render an integer-context expression (indices, loop bounds)."""
    if isinstance(e, Const):
        return f"{_int_const(e)}LL"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        a, b = _ri(e.left), _ri(e.right)
        if e.op in ("+", "-", "*"):
            return f"({a} {e.op} {b})"
        if e.op == "//":
            return f"_ll_fdiv({a}, {b})"
        if e.op == "%":
            return f"_ll_fmod({a}, {b})"
        raise _Unlowerable(f"integer op {e.op!r}")
    if isinstance(e, UnaryOp) and e.op == "-":
        return f"(-{_ri(e.operand)})"
    if isinstance(e, Call) and e.func in ("min", "max") and len(e.args) >= 2:
        fn = "_ll_min" if e.func == "min" else "_ll_max"
        out = _ri(e.args[0])
        for arg in e.args[1:]:
            out = f"{fn}({out}, {_ri(arg)})"
        return out
    raise _Unlowerable(f"index expression {type(e).__name__}")


def _strides(shape: Tuple[int, ...]) -> List[int]:
    out, acc = [], 1
    for d in reversed(shape):
        out.append(acc)
        acc *= d
    return list(reversed(out))


class _Frame:
    """Per-step lowering context: buffer shapes and touched-buffer set."""

    def __init__(self, shapes: Dict[str, Tuple[int, ...]]):
        self.shapes = shapes
        self.used: set = set()
        #: Gemms lowered to an in-place sgemm call / a strided loop nest
        self.gemm_inplace = self.gemm_nests = 0

    def flat(self, buffer: str, index_exprs: List[str]) -> str:
        """Row-major flat offset of one element, strides baked in."""
        shape = self.shapes.get(buffer)
        if shape is None:
            raise _Unlowerable(f"buffer {buffer!r} not in plan")
        if buffer in _C_RESERVED or not buffer.isidentifier():
            raise _Unlowerable(f"buffer name {buffer!r} not a C identifier")
        if len(index_exprs) != len(shape):
            raise _Unlowerable(
                f"{buffer}: rank mismatch ({len(index_exprs)} indices, "
                f"shape {shape})"
            )
        self.used.add(buffer)
        terms = [
            ix if st == 1 else f"({ix}) * {st}LL"
            for ix, st in zip(index_exprs, _strides(shape))
        ]
        return " + ".join(terms) or "0"

    def load(self, ref: Index) -> str:
        idx = [_ri(ix) for ix in ref.indices]
        return f"(double){ref.buffer}[{self.flat(ref.buffer, idx)}]"


def _rv(e, fr: _Frame) -> str:
    """Render a value-context expression: computed in double precision."""
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, bool):
            return "1.0" if v else "0.0"
        if isinstance(v, int):
            return f"{v}.0"
        if isinstance(v, float):
            if v != v:
                return "NAN"
            if v == float("inf"):
                return "INFINITY"
            if v == float("-inf"):
                return "(-INFINITY)"
            return repr(v)
        raise _Unlowerable(f"constant {v!r}")
    if isinstance(e, Var):
        return f"(double){e.name}"
    if isinstance(e, Index):
        return fr.load(e)
    if isinstance(e, BinOp):
        a, b = _rv(e.left, fr), _rv(e.right, fr)
        if e.op in ("+", "-", "*", "/"):
            return f"({a} {e.op} {b})"
        if e.op == "//":
            return f"floor({a} / {b})"
        if e.op == "%":
            return f"_py_fmod({a}, {b})"
        if e.op == "**":
            return f"pow({a}, {b})"
        raise _Unlowerable(f"value op {e.op!r}")
    if isinstance(e, UnaryOp) and e.op == "-":
        return f"(-{_rv(e.operand, fr)})"
    if isinstance(e, Compare):
        op = _CMP.get(e.op)
        if op is None:
            raise _Unlowerable(f"comparison {e.op!r}")
        return f"({_rv(e.left, fr)} {op} {_rv(e.right, fr)})"
    if isinstance(e, Call):
        if e.func == "where" and len(e.args) == 3:
            c, a, b = (_rv(x, fr) for x in e.args)
            return f"(({c}) ? ({a}) : ({b}))"
        if e.func in ("min", "max") and len(e.args) >= 2:
            fn = "_d_min" if e.func == "min" else "_d_max"
            out = _rv(e.args[0], fr)
            for arg in e.args[1:]:
                out = f"{fn}({out}, {_rv(arg, fr)})"
            return out
        fn = _C_FUNCS.get(e.func)
        if fn is None or len(e.args) != 1:
            raise _Unlowerable(f"call {e.func!r}/{len(e.args)}")
        return f"{fn}({_rv(e.args[0], fr)})"
    raise _Unlowerable(f"value expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Native backend: statement and step lowering
# ---------------------------------------------------------------------------

def _open_loop(sp, lines: List[str], depth: int, pragma: str = "") -> int:
    pad = "  " * depth
    if pragma:
        lines.append(f"{pad}{pragma}")
    lines.append(
        f"{pad}for (long long {sp.var} = {_ri(sp.start)}; "
        f"{sp.var} < {_ri(sp.stop)}; {sp.var}++) {{"
    )
    return depth + 1


def _close_loops(lines: List[str], depth: int, down_to: int) -> None:
    for d in range(depth - 1, down_to - 1, -1):
        lines.append("  " * d + "}")


_PAR_PRAGMA = (
    "#pragma omp parallel for schedule(static) "
    "num_threads((int)_omp) if (_omp > 1)"
)


def _disjoint_vars(unit: LoopUnit) -> set:
    """Loop variables whose iterations write disjoint elements, so
    that their loop may run in parallel: on some target axis the index
    is affine in the loops and the variable's stride exceeds all that
    the others can add — alone on the axis, or a leading digit of a
    mixed-radix index such as the flattened window offset. ``y + w``
    lets two iterations of ``w`` meet; an indirect target (rows may
    collide) has none."""
    from repro.codegen.exprs import NonAffine, extract_affine

    out: set = set()
    if write_target_vars(unit.stmt) is None:
        return out
    reach = {sp.var: sp.extent - 1 for sp in unit.loops}
    for ix in unit.stmt.target.indices:
        try:
            stride = {}
            for v in free_vars(ix) & reach.keys():  # others: outer, fixed
                stride[v], ix = extract_affine(ix, v)
        except NonAffine:
            continue
        for v in stride:
            if abs(stride[v]) > sum(abs(stride[u]) * reach[u]
                                    for u in stride if u != v):
                out.add(v)
    return out


def _emit_assign(unit: LoopUnit, fr: _Frame, lines: List[str],
                 depth: int) -> None:
    stmt = unit.stmt
    tgt = stmt.target
    if not isinstance(tgt, Index):
        raise _Unlowerable("non-buffer assignment target")
    if any(isinstance(ix, (SliceExpr,)) for ix in tgt.indices):
        raise _Unlowerable("sliced assignment target")
    disjoint = _disjoint_vars(unit)
    top = depth
    # the outermost loop that iterates at all: a one-image tile's batch
    # loop has one trip, and a pragma there would run the nest serially
    outer = next((sp for sp in unit.loops if sp.extent > 1), None)
    for sp in unit.loops:
        pragma = _PAR_PRAGMA if (sp is outer and sp.var in disjoint) else ""
        depth = _open_loop(sp, lines, depth, pragma)
    pad = "  " * depth
    idx = [_ri(ix) for ix in tgt.indices]
    ref = f"{tgt.buffer}[{fr.flat(tgt.buffer, idx)}]"
    rhs = _rv(stmt.value, fr)
    if stmt.reduce is None:
        lines.append(f"{pad}{ref} = (float)({rhs});")
    elif stmt.reduce == "add":
        lines.append(f"{pad}{ref} = (float)((double){ref} + {rhs});")
    elif stmt.reduce == "mul":
        lines.append(f"{pad}{ref} = (float)((double){ref} * {rhs});")
    elif stmt.reduce in ("max", "min"):
        cmp = ">=" if stmt.reduce == "max" else "<="
        lines.append(f"{pad}{{ double _v = {rhs}; "
                     f"double _t = (double){ref}; "
                     f"{ref} = (float)((_t {cmp} _v) ? _t : _v); }}")
    else:
        raise _Unlowerable(f"reduce {stmt.reduce!r}")
    _close_loops(lines, depth, top)


def _classify_gemm(stmt: Gemm):
    """Shared Gemm analysis for both lowering strategies.

    ``var_axes`` records, for every matched loop variable, which
    (operand, axis) pairs it was sliced into; the slice expressions on
    those axes carry the variable's absolute iteration range — including
    tile sub-ranges after tiling and ``_b0/_b1`` after shard
    parameterization. Returns ``(refs, owner, ranges, slices, free,
    contract)`` where ``free`` letters index the output, ``contract``
    letters are summed over, and ``slices`` keeps each letter's
    SliceExpr for compile-time extent analysis.
    """
    if not stmt.var_axes or not stmt.var_loops:
        raise _Unlowerable("gemm without matched loop metadata")
    refs = {"a": stmt.a, "b": stmt.b, "c": stmt.c}
    owner: Dict[Tuple[str, int], str] = {}
    ranges: Dict[str, Tuple[str, str]] = {}
    slices: Dict[str, SliceExpr] = {}
    free: List[str] = []
    contract: List[str] = []
    for var in stmt.var_loops:
        entries = stmt.var_axes.get(var)
        if not entries:
            raise _Unlowerable(f"gemm var {var!r} lost its axes")
        rk, ax = entries[0]
        sl = refs[rk].indices[ax]
        if not isinstance(sl, SliceExpr):
            raise _Unlowerable(f"gemm var {var!r}: axis not a slice")
        step = sl.step
        if not (isinstance(step, Const) and step.value == 1):
            raise _Unlowerable("strided gemm slice")
        ranges[var] = (_ri(sl.start), _ri(sl.stop))
        slices[var] = sl
        for rk2, ax2 in entries:
            owner[(rk2, ax2)] = var
        if any(k == "c" for k, _ in entries):
            free.append(var)
        else:
            contract.append(var)
    return refs, owner, ranges, slices, free, contract


def _at(where: str, ix: SliceExpr, letter: SliceExpr) -> str:
    """Index along an operand's axis ``ix`` when its letter, ranging
    over ``letter``, is at ``where``: a contracted buffer counts rows
    from its tile's first, so its slice starts elsewhere."""
    if ix.start == letter.start:
        return where
    return f"({where} - ({_ri(letter.start)}) + ({_ri(ix.start)}))"


def _gemm_flat(refs, owner, slices, fr: _Frame, rk: str) -> str:
    """Flat offset of operand ``rk`` with matched axes replaced by their
    loop variables and remaining axes rendered as scalar expressions."""
    ref = refs[rk]
    idx = []
    for ax, ix in enumerate(ref.indices):
        var = owner.get((rk, ax))
        if var is not None:
            idx.append(_at(var, ix, slices[var]))
        elif isinstance(ix, (SliceExpr,)):
            raise _Unlowerable("unmatched gemm slice axis")
        else:
            idx.append(_ri(ix))
    return fr.flat(ref.buffer, idx)


def _gemm_is_sgemm(stmt: Gemm, free: List[str],
                   contract: List[str]) -> bool:
    """True when the Gemm's letters map onto a row-major sgemm call:
    there is a real contraction and no output letter spans both
    operands (a letter in A and B and C is a batched-diagonal pattern
    sgemm cannot express)."""
    if not contract:
        return False
    for var in free:
        kinds = {rk for rk, _ in stmt.var_axes[var]}
        if "a" in kinds and "b" in kinds:
            return False
    return True


def _int_extent(sl: SliceExpr) -> Optional[int]:
    """Compile-time extent of a matched slice — constant bounds, or a
    tile's ``size*t : size*(t+1)``, whose difference is — or None when
    the bounds are runtime expressions (shard sub-ranges)."""
    from repro.codegen.exprs import NonAffine, extract_affine

    lo, hi = sl.start, sl.stop
    try:
        for var in sorted(free_vars(lo) | free_vars(hi)):
            (c_lo, lo), (c_hi, hi) = (extract_affine(e, var)
                                      for e in (lo, hi))
            if c_lo != c_hi:
                return None
    except NonAffine:
        return None
    if isinstance(lo, Const) and isinstance(hi, Const):
        return _int_const(hi) - _int_const(lo)
    return None


def _rm_layout(outer: List[str], inner: List[str], stride: Dict[str, int],
               slices) -> Optional[int]:
    """Leading dimension when letters read as ``[outer..., inner...]``
    match the operand's row-major layout — the inner letters form one
    contiguous mixed-radix index and the outer letters advance by a
    single stride — else None. Inner extents (and all outer extents but
    the first) must be compile-time; a letter of extent 1 (a one-image
    tile's batch letter) constrains nothing and is skipped."""
    outer, inner = ([v for v in vs if _int_extent(slices[v]) != 1]
                    for vs in (outer, inner))
    width = 1
    for v in inner:
        ex = _int_extent(slices[v])
        if ex is None:
            return None
        width *= ex
    acc = 1
    for v in reversed(inner):
        if stride[v] != acc:
            return None
        acc *= _int_extent(slices[v])
    if not outer:
        return width
    ld = stride[outer[-1]]
    if ld < width:
        return None
    for j in range(len(outer) - 2, -1, -1):
        ex = _int_extent(slices[outer[j + 1]])
        if ex is None or stride[outer[j]] != stride[outer[j + 1]] * ex:
            return None
    return ld


def _try_passthrough(rk: str, rows: List[str], cols: List[str], refs,
                     owner, slices, fr: _Frame, allow_trans: bool = True,
                     hoist: Optional[str] = None):
    """Can operand ``rk`` be handed to sgemm in place — for one value of
    the loop variable ``hoist``, when a letter is hoisted out of the
    matrices into a loop around the call?

    True when its matched letters map onto the buffer's row-major
    layout either as ``[rows..., cols...]`` (NoTrans) or as
    ``[cols..., rows...]`` (Trans, for A/B only — cblas cannot
    transpose C). Returns ``(base_expr, ld_expr, trans)`` — a
    pointer-offset expression (letters pinned at their lower bounds),
    the leading dimension, and the transpose flag — or None when the
    operand must be gathered into scratch (replicated letters, strided
    or scattered layouts, runtime inner extents).
    """
    ref = refs[rk]
    shape = fr.shapes.get(ref.buffer)
    if shape is None or len(shape) != len(ref.indices):
        return None
    strides = _strides(shape)
    axes_of: Dict[str, List[int]] = {}
    for (rk2, ax), v in owner.items():
        if rk2 == rk:
            axes_of.setdefault(v, []).append(ax)
    matched = set(owner.values())
    rows, cols = ([v for v in vs if v != hoist] for vs in (rows, cols))
    for v in rows + cols:
        if len(axes_of.get(v, [])) != 1:
            return None  # replicated (broadcast) or diagonal letter
    for ax, ix in enumerate(ref.indices):
        if owner.get((rk, ax)) is None:
            if isinstance(ix, SliceExpr):
                return None
            try:
                if free_vars(ix) & matched:
                    return None
            except Exception:
                return None
    stride = {v: strides[axes_of[v][0]] for v in rows + cols}
    ld = _rm_layout(rows, cols, stride, slices)
    trans = 0
    if ld is None and allow_trans:
        ld = _rm_layout(cols, rows, stride, slices)
        trans = 1
    if ld is None:
        return None
    idx = []
    for ax, ix in enumerate(ref.indices):
        v = owner.get((rk, ax))
        idx.append(_ri(ix) if v is None else
                   _at(v if v == hoist else f"_lo_{v}", ix, slices[v]))
    base = fr.flat(ref.buffer, idx)
    return f"{ref.buffer} + ({base})", f"{ld}LL", trans


def _emit_gemm_inplace(unit: LoopUnit, fr: _Frame, lines: List[str],
                       depth: int, refs, owner, ranges, slices,
                       free: List[str], contract: List[str]) -> bool:
    """Lower a Gemm as ``_latte_gemm_rm`` on the operands where they
    lie; False (nothing emitted) when some operand is not a row-major
    matrix over its letters.

    ``C[m…][n…] = A[m…][k…] · B[k…][n…]`` is tried with either operand
    as ``A`` (cblas can transpose ``A`` and ``B`` but not ``C``, and
    which letters are rows is only a naming). When operands fail only
    because the batch letter sits between the row and column letters —
    ``[n][c][y][x]`` storage: every conv GEMM — that letter is hoisted
    into a loop around one call per image, accumulating after the first
    when it is a contraction letter. The multiply itself runs as a
    library sgemm — the exact BLAS NumPy uses, injected at load time —
    or the blocked fallback when no BLAS is present. Nothing is ever
    gathered into scratch: packing an operand costs O(M·K + K·N + M·N)
    copies, which is most of a contraction with few rows (~70 % of a
    16-filter conv1 kernel).
    """
    stmt = unit.stmt
    in_a = [v for v in free
            if "b" not in {rk for rk, _ in stmt.var_axes[v]}]
    in_b = [v for v in free if v not in in_a]

    def passthrough(ka, kb, m_vars, n_vars, hoist):
        found = tuple(
            _try_passthrough(rk, rows, cols, refs, owner, slices, fr,
                             allow_trans=(rk != "c"), hoist=hoist)
            for rk, rows, cols in ((ka, m_vars, contract),
                                   (kb, contract, n_vars),
                                   ("c", m_vars, n_vars)))
        return None if None in found else (found, m_vars, n_vars, hoist)

    hoists = (None, BATCH_VAR) if BATCH_VAR in ranges else (None,)
    match = next(filter(None, (
        passthrough(*sides, hoist) for hoist in hoists
        for sides in (("a", "b", in_a, in_b), ("b", "a", in_b, in_a)))),
        None)
    if match is None:
        return False
    args, m_vars, n_vars, hoist = match

    def extent(vars_: List[str]) -> str:
        return " * ".join(f"_ex_{v}" for v in vars_ if v != hoist) or "1LL"

    top = depth
    # the unit's own loops (e.g. a tile loop the tiler pushed inside)
    for sp in unit.loops:
        depth = _open_loop(sp, lines, depth)
    pad = "  " * depth
    lines.append(pad + "{")
    pad += "  "
    for v in free + contract:
        lo, hi = ranges[v]
        lines.append(f"{pad}const long long _lo_{v} = {lo};")
        lines.append(f"{pad}const long long _ex_{v} = ({hi}) - ({lo});")
    for name, vars_ in (("_M", m_vars), ("_N", n_vars), ("_K", contract)):
        lines.append(f"{pad}const long long {name} = {extent(vars_)};")
    accumulate = "1" if stmt.accumulate else "0"
    if hoist is not None:
        lines.append(f"{pad}for (long long {hoist} = _lo_{hoist}; "
                     f"{hoist} < _lo_{hoist} + _ex_{hoist}; {hoist}++)")
        pad += "  "
        if hoist in contract and not stmt.accumulate:
            accumulate = f"({hoist} > _lo_{hoist})"
    operands = ", ".join(f"({base}), {ld}" + (f", {trans}" if i < 2 else "")
                         for i, (base, ld, trans) in enumerate(args))
    lines.append(
        f"{pad}_latte_gemm_rm(_M, _N, _K, {operands}, {accumulate}, _omp);")
    lines.append("  " * depth + "}")
    _close_loops(lines, depth, top)
    return True


def _emit_gemm(unit: LoopUnit, fr: _Frame, lines: List[str],
               depth: int) -> None:
    """Lower a pattern-matched Gemm: one in-place sgemm when the letter
    structure and the operands' layout allow it, strided loop nest
    otherwise."""
    stmt = unit.stmt
    refs, owner, ranges, slices, free, contract = _classify_gemm(stmt)
    fr.used.add(stmt.c.buffer)
    if _gemm_is_sgemm(stmt, free, contract) and _emit_gemm_inplace(
            unit, fr, lines, depth, refs, owner, ranges, slices, free,
            contract):
        fr.gemm_inplace += 1
        return
    fr.gemm_nests += 1
    top = depth
    for sp in unit.loops:
        depth = _open_loop(sp, lines, depth)
    _emit_gemm_loop_body(unit, fr, lines, depth, refs, owner, ranges,
                         slices, free, contract)
    _close_loops(lines, depth, top)


def _emit_gemm_loop_body(unit: LoopUnit, fr: _Frame, lines: List[str],
                         depth: int, refs, owner, ranges, slices,
                         free: List[str], contract: List[str]) -> None:
    """The strided loop-nest Gemm lowering (no packing): free letters
    outer, contraction letters inner around a double accumulator. Used
    for letter structures sgemm cannot express."""
    stmt = unit.stmt

    def flat(rk: str) -> str:
        return _gemm_flat(refs, owner, slices, fr, rk)

    top = depth
    for i, var in enumerate(free):
        lo, hi = ranges[var]
        pragma = _PAR_PRAGMA if i == 0 else ""
        if pragma:
            lines.append("  " * depth + pragma)
        lines.append(
            f"{'  ' * depth}for (long long {var} = {lo}; "
            f"{var} < {hi}; {var}++) {{"
        )
        depth += 1
    pad = "  " * depth
    a, b = f"(double){stmt.a.buffer}[{flat('a')}]", \
        f"(double){stmt.b.buffer}[{flat('b')}]"
    fr.used.add(stmt.c.buffer)
    if contract:
        lines.append(f"{pad}double _acc = 0.0;")
        inner = depth
        for i, var in enumerate(contract):
            lo, hi = ranges[var]
            if i == len(contract) - 1:
                lines.append("  " * inner + "#pragma omp simd reduction(+:_acc)")
            lines.append(
                f"{'  ' * inner}for (long long {var} = {lo}; "
                f"{var} < {hi}; {var}++) {{"
            )
            inner += 1
        lines.append("  " * inner + f"_acc += {a} * {b};")
        _close_loops(lines, inner, depth)
    else:
        lines.append(f"{pad}double _acc = {a} * {b};")
    c = f"{stmt.c.buffer}[{flat('c')}]"
    if stmt.accumulate:
        lines.append(f"{pad}{c} = (float)((double){c} + _acc);")
    else:
        lines.append(f"{pad}{c} = (float)_acc;")
    _close_loops(lines, depth, top)


def _emit_unit_c(unit: LoopUnit, fr: _Frame, lines: List[str],
                 depth: int) -> None:
    stmt = unit.stmt
    if isinstance(stmt, ExternOp):
        raise _Unlowerable(f"extern closure {stmt.fn_key!r}")
    if isinstance(stmt, Gemm):
        _emit_gemm(unit, fr, lines, depth)
    elif isinstance(stmt, Assign):
        _emit_assign(unit, fr, lines, depth)
    else:
        raise _Unlowerable(f"statement {type(stmt).__name__}")


def env_shape(plan, spec, time_steps: int) -> Tuple[int, ...]:
    """Shape of the array a step function sees in its env for ``spec`` —
    the allocated shape minus the leading time axis the executor strips
    for time-unrolled nets (it binds per-``t`` views), with alias
    reshapes applied (mirrors ``buffers.allocate`` + ``_base_env``)."""
    from repro.synthesis.liveness import full_shape

    fs = full_shape(plan, spec)
    if spec.alias_reshape is not None:
        n_lead = max(len(fs) - len(spec.shape), 0)
        fs = fs[:n_lead] + tuple(spec.alias_reshape)
    if time_steps > 1 and spec.batched and spec.array is None:
        fs = fs[1:]
    return tuple(int(d) for d in fs)


def _emit_step(group: FusedGroup,
               shapes: Dict[str, Tuple[int, ...]]
               ) -> Tuple[List[str], List[str], "_Frame"]:
    """Lower one fused step to C statements; returns its touched
    buffers in sorted-name order, the function-body lines and the
    lowering frame (for its GEMM counters).

    Raises :class:`_Unlowerable` when any member unit cannot be
    expressed.
    """
    from repro.codegen.python_backend import lowered_units

    tile, units = lowered_units(group)
    fr = _Frame(shapes)
    body: List[str] = []
    depth = 1
    if tile is not None:
        depth = _open_loop(tile, body, depth)
    for unit in units:
        _emit_unit_c(unit, fr, body, depth)
    if tile is not None:
        _close_loops(body, depth, 1)
    return sorted(fr.used), body, fr


_IDENT = re.compile(r"(?<![\w.])[A-Za-z_]\w*")
_LOCAL_DECL = re.compile(r"\blong long (\w+) =")


def _alpha_rename(buffers: List[str], body: str) -> Tuple[str, List[int]]:
    """``body`` with every buffer and locally declared name replaced by
    its first-occurrence rank, and the rank of each buffer.

    Two steps whose renamed bodies are equal run the same kernel on
    different buffers: shapes, strides and bounds are literals in the
    text, and names outside the renamed set (intrinsics, the
    ``_b0/_b1/_omp`` parameters) must match verbatim. The buffer
    count leads the text, so equal texts always pair buffers one to one
    (a buffer the body never mentions ranks after those it does).
    """
    names = set(buffers).union(_LOCAL_DECL.findall(body))
    rank: Dict[str, int] = {}

    def sub(m):
        tok = m.group()
        if tok not in names:
            return tok
        return f"${rank.setdefault(tok, len(rank))}"

    canon = f"{len(buffers)} buffers\n" + _IDENT.sub(sub, body)
    return canon, [rank.setdefault(b, len(rank)) for b in buffers]


#: shared by every translation unit of a program
_C_HEADER = """\
/* Latte-generated native program. Machine-written; see
 * repro.codegen.c_backend. Compiled to a shared object and driven
 * through ctypes; buffers are NumPy-owned float32 arrays passed as raw
 * pointers. */
#include <math.h>

/* C[M,N] (+)= op(A)[M,K] @ op(B)[K,N], row-major with leading
 * dimensions (operands may be in-place views of larger buffers; ta/tb
 * select the transposed storage orientation). Defined once per
 * program, in the runtime section. */
__attribute__((visibility("hidden")))
void _latte_gemm_rm(long long M, long long N, long long K,
                    const float *A, long long lda, int ta,
                    const float *B, long long ldb, int tb,
                    float *C, long long ldc,
                    int accumulate, long long nthreads);

static inline double _sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }
static inline double _d_max(double a, double b) { return a >= b ? a : b; }
static inline double _d_min(double a, double b) { return a <= b ? a : b; }
static inline double _py_fmod(double a, double b) {
  double r = fmod(a, b);
  return (r != 0.0 && ((r < 0.0) != (b < 0.0))) ? r + b : r;
}
static inline long long _ll_min(long long a, long long b) {
  return a < b ? a : b;
}
static inline long long _ll_max(long long a, long long b) {
  return a > b ? a : b;
}
static inline long long _ll_fdiv(long long a, long long b) {
  long long q = a / b;
  return ((a % b) != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}
static inline long long _ll_fmod(long long a, long long b) {
  long long r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

"""

#: compiled exactly once per program, whatever the number of kernel units
_C_RUNTIME = """\
/* Optional BLAS hook: the runtime injects a cblas_sgemm address (from
 * the BLAS NumPy itself bundles) via latte_set_sgemm after dlopen, so
 * packed GEMMs run on the exact library the NumPy backend uses. With
 * no pointer installed the blocked fallback below keeps every program
 * self-contained. ilp64 selects the 64-bit-integer cblas ABI. */
static void *_latte_sgemm_ptr = 0;
static int _latte_sgemm_ilp64 = 1;
void latte_set_sgemm(void *p, int ilp64) {
  _latte_sgemm_ptr = p;
  _latte_sgemm_ilp64 = ilp64;
}
typedef void (*_latte_sgemm64_fn)(
    int order, int transa, int transb, long long m, long long n,
    long long k, float alpha, const float *a, long long lda,
    const float *b, long long ldb, float beta, float *c, long long ldc);
typedef void (*_latte_sgemm32_fn)(
    int order, int transa, int transb, int m, int n, int k, float alpha,
    const float *a, int lda, const float *b, int ldb, float beta,
    float *c, int ldc);

/* 101/111/112 = CblasRowMajor/CblasNoTrans/CblasTrans. */
void _latte_gemm_rm(long long M, long long N, long long K,
                    const float *A, long long lda, int ta,
                    const float *B, long long ldb, int tb,
                    float *C, long long ldc,
                    int accumulate, long long nthreads) {
  float beta = accumulate ? 1.0f : 0.0f;
  if (_latte_sgemm_ptr) {
    if (_latte_sgemm_ilp64)
      ((_latte_sgemm64_fn)_latte_sgemm_ptr)(
          101, ta ? 112 : 111, tb ? 112 : 111, M, N, K, 1.0f, A, lda, B,
          ldb, beta, C, ldc);
    else
      ((_latte_sgemm32_fn)_latte_sgemm_ptr)(
          101, ta ? 112 : 111, tb ? 112 : 111, (int)M, (int)N, (int)K,
          1.0f, A, (int)lda, B, (int)ldb, beta, C, (int)ldc);
    return;
  }
  #pragma omp parallel for schedule(static) \\
      num_threads((int)nthreads) if (nthreads > 1)
  for (long long i = 0; i < M; i++) {
    for (long long j = 0; j < N; j++) {
      double acc = accumulate ? (double)C[i * ldc + j] : 0.0;
      #pragma omp simd reduction(+:acc)
      for (long long p = 0; p < K; p++)
        acc += (double)A[ta ? p * lda + i : i * lda + p] *
               (double)B[tb ? j * ldb + p : p * ldb + j];
      C[i * ldc + j] = (float)acc;
    }
  }
}

"""


def emit_native_program(
    compiled, fwd_items, bwd_items, plan, time_steps: int
) -> Tuple[str, Dict[str, List[str]], Dict[str, str], Dict[str, str],
           Dict[str, int]]:
    """Lower every lowerable task step of a compiled program to C.

    Returns ``(source, steps, skipped, symbols, gemms)``. ``steps`` maps
    each native step name to its buffer-argument order and ``symbols``
    maps a step to the kernel it calls when that is not its own
    (together the rebuild recipe stored in compile-cache entries);
    ``skipped`` maps each Python-retained step name to the reason it
    stayed interpreted; ``gemms`` counts the native steps' Gemms by how
    they were lowered (``gemm_inplace`` / ``gemm_nests``).

    One function is emitted per *distinct* kernel: a step whose body
    equals an earlier step's up to buffer and loop-variable names
    (:func:`_alpha_rename`) binds to that step's function, passing its
    own buffers in that function's parameter order.
    """
    shapes = {
        name: env_shape(plan, spec, time_steps)
        for name, spec in plan.buffers.items()
    }
    parts: List[str] = [_C_HEADER, _RUNTIME_MARK, _C_RUNTIME]
    steps: Dict[str, List[str]] = {}
    skipped: Dict[str, str] = {}
    symbols: Dict[str, str] = {}
    gemms = {"gemm_inplace": 0, "gemm_nests": 0}
    #: renamed body -> (owning step, its label, its buffers' ranks)
    kernels: Dict[str, Tuple[str, str, List[int]]] = {}
    for step_list, items in ((compiled.forward, fwd_items),
                             (compiled.backward, bwd_items)):
        groups = [it for it in items if isinstance(it, FusedGroup)]
        task_steps = [s for s in step_list if s.kind == "task"]
        assert len(groups) == len(task_steps), "schedule/steps drifted"
        for step, group in zip(task_steps, groups):
            try:
                buffers, body, fr = _emit_step(group, shapes)
            except _Unlowerable as exc:
                skipped[step.name] = str(exc)
                continue
            for key in gemms:
                gemms[key] += getattr(fr, key)
            text = "\n".join(body)
            canon, ranks = _alpha_rename(buffers, text)
            owner = kernels.setdefault(canon,
                                       (step.name, group.label, ranks))
            if owner[0] != step.name:
                by_rank = dict(zip(ranks, buffers))
                steps[step.name] = [by_rank[r] for r in owner[2]]
                symbols[step.name] = owner[0]
                parts.append(f"/* {step.name} {group.label}: same kernel "
                             f"as {owner[0]} {owner[1]} */\n\n")
                continue
            steps[step.name] = buffers
            params = ", ".join([f"float* {b}" for b in buffers]
                               + ["long long _b0", "long long _b1",
                                  "long long _omp"])
            parts.append(
                f"{_KERNEL_MARK}/* {group.label} */\n"
                f"void {step.name}({params}) {{\n"
                f"  (void)_b0; (void)_b1; (void)_omp;\n"
                f"{text}\n}}\n\n"
            )
    return "".join(parts), steps, skipped, symbols, gemms


# ---------------------------------------------------------------------------
# Native backend: ctypes binding
# ---------------------------------------------------------------------------

def _make_step_fn(cfn, names: Tuple[str, ...], batch: int, omp: int):
    """Wrap one exported kernel as an executor-compatible step function.

    The wrapper has the exact calling convention of a Python-backend step
    — ``fn(env, rt)`` plain, ``fn(env, rt, _b0, _b1)`` sharded — and
    fetches each buffer pointer from ``env`` *per call*, so per-``t``
    views, recurrent zero views, private-accumulator swaps, and
    ``rebind_buffer`` all work with zero executor changes.
    """
    def step(env, rt, _b0=0, _b1=batch):
        args = []
        for n in names:
            a = env[n]
            if a.dtype is not _F32 and a.dtype != _F32:
                raise TypeError(
                    f"C backend: buffer {n!r} must be float32, got {a.dtype}"
                )
            if not a.flags["C_CONTIGUOUS"]:
                raise TypeError(
                    f"C backend: buffer {n!r} must be C-contiguous "
                    "(rebind_buffer with a contiguous array)"
                )
            args.append(a.ctypes.data)
        cfn(*args, _b0, _b1, omp)

    step._latte_native = True
    return step


def omp_threads_for(compiled, batch: int, num_threads: int) -> int:
    """In-kernel OpenMP thread count: ``num_threads`` when the executor
    runs steps whole, 1 when it splits batches into thread shards itself
    (mirrors the executor's ``num_shards`` rule; avoids oversubscription
    and keeps sharded runs comparable with the Python backend)."""
    shardable = any(
        s.shardable for s in compiled.forward + compiled.backward
    )
    num_shards = min(num_threads, batch) if shardable else 1
    return num_threads if num_shards == 1 else 1


def bind_steps(compiled, so_path: str, batch: int,
               num_threads: int) -> None:
    """Load a built program and swap its kernels into ``compiled``'s
    step lists: every step in ``c_steps`` calls the function named by
    ``c_symbols`` (its own name unless it shares a twin's kernel) with
    its own buffers."""
    dll = _load(so_path)
    omp = omp_threads_for(compiled, batch, num_threads)
    for step in compiled.forward + compiled.backward:
        bufnames = compiled.c_steps.get(step.name)
        if bufnames is None:
            continue
        cfn = dll[compiled.c_symbols.get(step.name, step.name)]
        cfn.restype = None
        cfn.argtypes = (
            [ctypes.c_void_p] * len(bufnames) + [ctypes.c_longlong] * 3
        )
        step.fn = _make_step_fn(cfn, tuple(bufnames), batch, omp)


def attach_native(compiled, fwd_items, bwd_items, plan, time_steps: int,
                  num_threads: int) -> Dict[str, float]:
    """Compile a program's lowerable steps to native code and swap their
    step functions in place (the tentpole entry point, called by
    ``compile_net`` when ``options.backend == 'c'``).

    Extern-closure steps and anything the lowering rejects keep their
    Python functions; ``compiled.c_exec_source``/``c_steps``/
    ``c_symbols`` record the native artifact + rebuild recipe for the
    compile cache, and ``c_skipped`` the per-step fallback reasons.
    Returns the ``codegen-c`` compile-report counters.
    """
    if not have_c_toolchain():
        raise CBackendUnavailable(
            f"backend='c' requested but {toolchain_error()}"
        )
    source, steps, skipped, symbols, gemms = emit_native_program(
        compiled, fwd_items, bwd_items, plan, time_steps
    )
    compiled.c_exec_source = source
    compiled.c_steps = steps
    compiled.c_skipped = skipped
    compiled.c_symbols = symbols
    stats = {"native_steps": len(steps),
             "kernels_unique": len(steps) - len(symbols), **gemms}
    if steps:
        so_path = compile_shared_object(source, stats)
        bind_steps(compiled, so_path, plan.batch_size, num_threads)
    return stats
