"""The life cycle every workload runs, and the reduction of its raw
samples to the named metrics.

One run = one workload in one process::

    set-up   imports, build, first cold compile per backend (incl. cc),
             reference checks, checkpoint write, warm-up steps
    measure  ROUNDS rounds, each a slice of every cell: cold compiles,
             training steps, cache thaws, serving traffic, a CLI boot
             (budget: --seconds)
    traced   the same with the program tracer on and bench spans
             recorded, plus the fixed-subject cells of extras.py

``USER`` (split by ``DEMOTED`` into ``END_TO_END`` and the tail of
``PER_LAYER``) and ``PER_LAYER`` are the single definition of the metric
names, units and directions; ``BENCHMARK.json`` repeats them and
``test_ledger.py`` holds the two together.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Dict, List, Tuple

from repro.codegen import c_backend

import cells
import extras
import host
from programs import ROUNDS, SERVED, WORKLOADS, program, workload_programs
from stats import geomean, median, percentile, tail_percentile
from tracing import Spans

#: (name, unit, better) — what a user of the system waits for or pays
USER: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("planned_mb", "MB", "lower"),
    ("step_ms_numpy", "ms", "lower"),
    ("step_ms_c", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("goodput_share", "ratio", "higher"),
    ("sat_items_per_s", "items/s", "higher"),
    ("compile_numpy_ms", "ms", "lower"),
    ("compile_c_s", "s", "lower"),
    ("compile_warm_ms", "ms", "lower"),
    ("boot_first_predict_s", "s", "lower"),
]
#: user metrics that cannot hold a bound of 10 % on the 2-vCPU container
#: the ledger was sized on (ISSUE 11: such a metric "moves to the
#: per-layer list and the JSON says why"). Every run still measures them
#: with tracing off and writes them to its record (``user``); the result
#: line carries them with the per-layer metrics, where nothing gates.
#: The reason is one for all clock readings: the host switches every few
#: seconds between two speeds 1.3-1.5x apart (GEMM, interpreter and cc
#: alike) and the share of slow seconds differs from run to run, so a
#: run's median lands nearer one mode or the other. More samples per
#: run do not help. The spreads are the widest per workload over the
#: run sets of 2026-09-25 (README.md, history.jsonl).
_HOST = ("quartile spread {} over ten seeds, a 10 % bound needs <= 0.05: "
         "the host's two speeds")
DEMOTED: Dict[str, str] = {
    "step_ms_numpy": _HOST.format("0.11-0.20"),
    "step_ms_c": _HOST.format("0.10-0.18"),
    "latency_p50_ms": _HOST.format("0.10-0.24"),
    "latency_p99_ms": _HOST.format("0.09-0.21") + "; one slow second "
                      "inside a window doubles the tail",
    "sat_items_per_s": _HOST.format("0.12-0.24"),
    "compile_numpy_ms": _HOST.format("0.07-0.24"),
    "compile_c_s": _HOST.format("0.06-0.17") + "; one cc run per program",
    "compile_warm_ms": _HOST.format("0.08-0.27"),
    "boot_first_predict_s": _HOST.format("0.07-0.28"),
}
END_TO_END = [row for row in USER if row[0] not in DEMOTED]

PHASES = tuple(p for p, _ in cells.RATES) + ("sat",)
BACKENDS = ("numpy", "c")


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("models.build_ms", "ms", "lower"),
        ("core.ensembles", "count", "lower"),
        ("core.connections", "count", "lower"),
        ("synthesis.plan_synthesize_ms", "ms", "lower"),
        ("synthesis.units", "count", "lower"),
        ("synthesis.liveness.planned_bytes", "bytes", "lower"),
        ("synthesis.liveness.arena_bytes", "bytes", "lower"),
        ("synthesis.liveness.reuse_fraction", "ratio", "higher"),
        ("synthesis.liveness.steps_moved", "count", "higher"),
    ]
    for name in cells.PASSES:
        rows.append((f"optim.{name}.ms", "ms", "lower"))
        rows.append((f"optim.{name}.rewrites", "count", "higher"))
    rows += [
        ("codegen.python_backend.ms", "ms", "lower"),
        ("codegen.python_backend.source_bytes", "bytes", "lower"),
        ("codegen.c_backend.attach_hot_ms", "ms", "lower"),
        ("codegen.c_backend.cc_s", "s", "lower"),
        ("codegen.c_backend.c_source_bytes", "bytes", "lower"),
        ("codegen.c_backend.so_bytes", "bytes", "lower"),
        ("codegen.c_backend.native_steps", "count", "higher"),
        ("codegen.c_backend.python_steps", "count", "lower"),
        ("codegen.c_backend.ffi_calls_per_step", "count", "lower"),
    ]
    for b in BACKENDS:
        pre = f"runtime.executor.{b}"
        rows += [
            (f"{pre}.forward_ms", "ms", "lower"),
            (f"{pre}.backward_ms", "ms", "lower"),
            (f"{pre}.task_steps", "count", "lower"),
            (f"{pre}.us_per_task_step", "us", "lower"),
            (f"{pre}.dispatch_floor_us", "us", "lower"),
            (f"{pre}.dispatch_share", "ratio", "lower"),
            (f"{pre}.self_ms", "ms", "lower"),
            (f"{pre}.gemm_ms", "ms", "lower"),
            (f"{pre}.loop_ms", "ms", "lower"),
            (f"{pre}.gemm_gflops", "GFLOP/s", "higher"),
            (f"{pre}.bytes_per_step", "bytes", "lower"),
        ]
    rows += [
        ("solvers.update_ms", "ms", "lower"),
        ("solvers.solve_epoch_s", "s", "lower"),
        ("runtime.threads.step_ms_t2", "ms", "lower"),
        ("runtime.distributed.epoch_s_t2", "s", "lower"),
        ("runtime.procpool.epoch_s_w2", "s", "lower"),
        ("serve.procserver.sat_items_per_s", "items/s", "higher"),
        ("serve.batcher.submit_us", "us", "lower"),
        ("serve.batcher.next_batch_us", "us", "lower"),
    ]
    for ph in PHASES:
        rows += [
            (f"serve.batcher.queue_wait_ms.{ph}", "ms", "lower"),
            (f"serve.batcher.batch_fill.{ph}", "ratio", "higher"),
            (f"serve.batcher.batches.{ph}", "count", "lower"),
        ]
    rows += [
        ("serve.server.replica_step_ms", "ms", "lower"),
        ("serve.server.overhead_ms", "ms", "lower"),
        ("serve.server.shed", "count", "lower"),
        ("serve.server.errors", "count", "lower"),
        ("serve.http.overhead_ms", "ms", "lower"),
        ("serve.checkpoint.save_ms", "ms", "lower"),
        ("serve.checkpoint.load_ms", "ms", "lower"),
        ("serve.checkpoint.bytes", "bytes", "lower"),
        ("serve.loadgen.late_ms_p99", "ms", "lower"),
        ("cache.key_ms", "ms", "lower"),
        ("cache.freeze_put_ms", "ms", "lower"),
        ("cache.thaw_ms", "ms", "lower"),
        ("cache.entry_bytes", "bytes", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
    ]
    for p in ("fp32", "fp16", "int8"):
        rows.append((f"quant.infer_ms.{p}", "ms", "lower"))
        rows.append((f"quant.planned_bytes.{p}", "bytes", "lower"))
    rows += [
        ("baselines.caffe_like.step_ms", "ms", "lower"),
        ("baselines.caffe_like.ratio", "ratio", "higher"),
        ("telemetry.render_ms", "ms", "lower"),
        ("telemetry.tracing_overhead_share", "ratio", "lower"),
        ("host.gemm_calib_ms", "ms", "lower"),
    ]
    return rows + [row for row in USER if row[0] in DEMOTED]


PER_LAYER = _per_layer()


def peak_rss_mb(facts: Dict[str, float]) -> float:
    """Peak resident set of this process or of its largest waited-for
    child (cc, the CLI server), whichever is larger; Linux reports KB.
    Both go into ``facts``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    facts["rss.self_mb"], facts["rss.largest_child_mb"] = (own / 1024.0,
                                                           child / 1024.0)
    return max(own, child) / 1024.0


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _by_program(samples, prefix: str) -> Dict[str, List[float]]:
    return {k[len(prefix):]: v for k, v in samples.items()
            if k.startswith(prefix) and v}


def _geomean_ms(samples, prefix: str, pick=median) -> float:
    rows = _by_program(samples, prefix)
    return 1e3 * geomean(pick(v) for v in rows.values())


def user_metrics(ctx, setup_s: float) -> Dict[str, float]:
    """Reduce the run's clock readings to the ``USER`` metrics."""
    samples = ctx.raw
    window_p50 = samples[f"window_p50_s/{cells.LATENCY_PHASE}"]
    ctx.facts["latency.tail_percentile"], tail = tail_percentile(
        samples[f"latency_s/{cells.LATENCY_PHASE}"])
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(ctx.facts),
        "planned_mb": ctx.facts["memory.planned_bytes"] / 1e6,
        "step_ms_numpy": _geomean_ms(samples, "step_s/numpy/"),
        "step_ms_c": _geomean_ms(samples, "step_s/c/"),
        "latency_p50_ms": 1e3 * median(window_p50),
        "latency_p99_ms": 1e3 * tail,
        "goodput_share": ctx.facts["serve.good"] / ctx.facts["serve.due"],
        "sat_items_per_s": median(samples["sat_items_per_s"]),
        "compile_numpy_ms": _geomean_ms(samples, "compile_s/numpy/"),
        "compile_c_s": _geomean_ms(samples, "compile_s/c/",
                                   pick=lambda v: v[0]) / 1e3,
        "compile_warm_ms": _geomean_ms(samples, "cache_hit_s/"),
        "boot_first_predict_s": median(samples["boot_warm_s"]),
    }


def _executor_rows(ctx, traces, floors, backend: str) -> Dict[str, float]:
    pre = f"runtime.executor.{backend}"
    cell_traces = {name: tr for (name, b), tr in traces.items()
                   if b == backend and tr.steps}
    per_step = lambda attr: sum(  # noqa: E731 - local shorthand
        getattr(tr, attr) / tr.steps for tr in cell_traces.values())
    fwd, bwd = 1e3 * per_step("fwd"), 1e3 * per_step("bwd")
    gemm, loop = 1e3 * per_step("gemm"), 1e3 * per_step("loop")
    tasks = per_step("tasks")
    gemm_s = sum(tr.gemm for tr in cell_traces.values())
    flops = sum(tr.flops for tr in cell_traces.values())
    floor = floors[backend]["floor_us"]
    plain = {name: median(ctx.raw[f"step_s/{backend}/{name}"])
             for name in cell_traces}
    update = {name: median(ctx.raw[f"update_s/{name}"])
              for name in cell_traces}
    # what the cell's task steps would cost at the MLP's per-step rate,
    # as a share of the cell's step; the MLP's own arithmetic is in the
    # floor, so cells with even smaller steps saturate at 1
    shares = [min(1.0, floor * (tr.tasks / tr.steps) / (1e6 * plain[name]))
              for name, tr in cell_traces.items()]
    ctx.facts[f"dispatch_share_by_model.{backend}"] = dict(
        zip(cell_traces, shares))
    return {
        f"{pre}.forward_ms": fwd,
        f"{pre}.backward_ms": bwd,
        f"{pre}.task_steps": tasks,
        f"{pre}.us_per_task_step":
            1e6 * sum(plain[n] - update[n] for n in plain) / tasks,
        f"{pre}.dispatch_floor_us": floor,
        f"{pre}.dispatch_share": median(shares),
        f"{pre}.self_ms": fwd + bwd - gemm - loop,
        f"{pre}.gemm_ms": gemm,
        f"{pre}.loop_ms": loop,
        f"{pre}.gemm_gflops": flops / gemm_s / 1e9 if gemm_s else 0.0,
        f"{pre}.bytes_per_step": per_step("bytes"),
    }


def per_layer(ctx, traces, ex: dict, calib_ms: float,
              user: Dict[str, float]) -> Dict[str, float]:
    f = ctx.facts
    out = {name: user[name] for name in DEMOTED}
    out |= {
        "models.build_ms":
            1e3 * sum(median(v) for v in _by_program(ctx.raw, "build_s/").values()),
        "synthesis.liveness.planned_bytes": f["memory.planned_bytes"],
        "synthesis.liveness.arena_bytes": f["memory.arena_bytes"],
        "synthesis.liveness.reuse_fraction":
            1.0 - f["memory.planned_bytes"] / f["memory.naive_bytes"],
    }
    direct = [
        "core.ensembles", "core.connections", "synthesis.plan_synthesize_ms",
        "synthesis.units", "synthesis.liveness.steps_moved",
        "codegen.python_backend.ms", "codegen.python_backend.source_bytes",
        "codegen.c_backend.attach_hot_ms", "codegen.c_backend.cc_s",
        "codegen.c_backend.c_source_bytes", "codegen.c_backend.so_bytes",
        "codegen.c_backend.native_steps", "codegen.c_backend.python_steps",
        "serve.server.shed", "serve.server.errors",
        "serve.checkpoint.bytes", "cache.entry_bytes", "cache.hits",
        "cache.misses",
    ]
    for name in cells.PASSES:
        direct += [f"optim.{name}.ms", f"optim.{name}.rewrites"]
    for key in direct:
        out[key] = f.get(key, 0.0)
    c_traces = [tr for (_, b), tr in traces.items() if b == "c" and tr.steps]
    out["codegen.c_backend.ffi_calls_per_step"] = sum(
        tr.native_calls / tr.steps for tr in c_traces)
    for backend in BACKENDS:
        out.update(_executor_rows(ctx, traces, ex["floors"], backend))
    out["solvers.update_ms"] = 1e3 * sum(
        median(v) for v in _by_program(ctx.raw, "update_s/").values())
    out["solvers.solve_epoch_s"] = ex["solve_epoch_s"]
    out["runtime.threads.step_ms_t2"] = ex["threads_step_ms"]
    out["runtime.distributed.epoch_s_t2"] = ex["distributed_epoch_s"]
    out["runtime.procpool.epoch_s_w2"] = ex["procpool_epoch_s"]
    out["serve.procserver.sat_items_per_s"] = ex["procserver_sat"]
    out["serve.batcher.submit_us"] = ex["batcher"]["submit_us"]
    out["serve.batcher.next_batch_us"] = ex["batcher"]["next_batch_us"]
    step_sum = batches = 0.0
    for ph in PHASES:
        n_batches = f[f"serve.batches.{ph}"]
        served = f[f"serve.served.{ph}"]
        mean_step = f[f"serve.step_sum_s.{ph}"] / n_batches
        out[f"serve.batcher.queue_wait_ms.{ph}"] = 1e3 * (
            f[f"serve.latency_sum_s.{ph}"] / served - mean_step)
        out[f"serve.batcher.batch_fill.{ph}"] = (
            served / (n_batches * cells.SERVE_BATCH))
        out[f"serve.batcher.batches.{ph}"] = n_batches
        step_sum += f[f"serve.step_sum_s.{ph}"]
        batches += n_batches
    out["serve.server.replica_step_ms"] = 1e3 * step_sum / batches
    out["serve.server.overhead_ms"] = 1e3 * (
        f["serve.step_sum_s.sat"] / f["serve.batches.sat"]
        - ctx.raw["bare_forward_s"][0])
    out["serve.http.overhead_ms"] = 1e3 * (
        median(ctx.raw["http_rtt_s"])
        - median(ctx.raw["closed_latency_s/inproc2"]))
    out["serve.checkpoint.save_ms"] = 1e3 * median(ctx.raw["checkpoint_save_s"])
    out["serve.checkpoint.load_ms"] = 1e3 * median(ctx.raw["checkpoint_load_s"])
    out["serve.loadgen.late_ms_p99"] = 1e3 * percentile(ctx.raw["late_s"], 99.0)
    out["cache.key_ms"] = 1e3 * median(ctx.raw["cache_key_s"])
    out["cache.freeze_put_ms"] = 1e3 * sum(ctx.raw["cache_freeze_put_s"])
    out["cache.thaw_ms"] = 1e3 * sum(
        median(v) for v in _by_program(ctx.raw, "cache_thaw_s/").values())
    for p, row in ex["quant"].items():
        out[f"quant.infer_ms.{p}"] = row["infer_ms"]
        out[f"quant.planned_bytes.{p}"] = row["planned_bytes"]
    out["baselines.caffe_like.step_ms"] = ex["caffe"]["step_ms"]
    out["baselines.caffe_like.ratio"] = ex["caffe"]["ratio"]
    out["telemetry.render_ms"] = 1e3 * median(ctx.raw["render_s"])
    ratios = [
        median(tr.walls) / median(ctx.raw[f"step_s/numpy/{name}"])
        for (name, b), tr in traces.items() if b == "numpy" and tr.steps]
    out["telemetry.tracing_overhead_share"] = geomean(ratios)
    out["host.gemm_calib_ms"] = calib_ms
    return out


# ---------------------------------------------------------------------------
# the life cycle
# ---------------------------------------------------------------------------


#: the GEMM calibration loop is timed again after every round. The
#: host's two usual speeds put the slowest reading of a run about 1.5x
#: above its fastest; a run beyond this limit saw something worse and
#: is marked unresolved (its numbers are still printed: the result line
#: needs every metric)
HOST_DRIFT_LIMIT = 2.0


def run(name: str, seed: int, seconds: float, trace: bool, root: str,
        workdir: str, t_start: float) -> dict:
    """Run workload ``name`` once; returns the ledger record (metrics,
    tally, per-model rows, host fingerprint)."""
    if not c_backend.have_c_toolchain():
        raise SystemExit(
            f"the ledger needs a C toolchain: {c_backend.toolchain_error()}")
    wl = WORKLOADS[name]
    spans = Spans(enabled=trace)
    ctx = cells.Ctx(seed, trace, spans, workdir, os.path.join(root, "src"))
    with spans.span("ledger.setup"):
        fingerprint = host.fingerprint(root)
        units = [cells.setup_unit(ctx, p)
                 for p in workload_programs(name)]
        for unit in units:
            cells.check_unit(ctx, unit)
        serve_unit = next((u for u in units if u.program.name == SERVED),
                          None) or cells.serve_only_unit(program(SERVED))
        served = cells.checkpoint_unit(ctx, serve_unit)
        cells.warm_up(ctx, units)
    setup_s = time.perf_counter() - t_start

    t_measure = time.perf_counter()
    calib = [fingerprint["gemm_calib_ms"]]
    with spans.span("ledger.measure"):
        train = cells.TrainCell(ctx, units, wl.train_share * seconds, ROUNDS)
        cache = cells.CacheCell(ctx, units)
        cells.boot(ctx, served, "cold")
        serve = cells.ServeCell(ctx, served)
        try:
            for _ in range(ROUNDS):
                cells.compile_round(ctx, units,
                                    wl.compile_share * seconds / ROUNDS)
                train.round()
                cache.round()
                serve.round(wl.serve_share * seconds / ROUNDS)
                cells.boot(ctx, served, "warm")
                calib.append(host.gemm_calibration_ms())
        finally:
            serve.finish()
        cache.finish()
    traces = train.traces
    measure_s = time.perf_counter() - t_measure
    host_drift = max(calib) / min(calib)
    if host_drift > HOST_DRIFT_LIMIT:
        ctx.unresolved.append("host")

    user = user_metrics(ctx, setup_s)
    if trace:
        with spans.span("ledger.extras"):
            cells.http_cell(ctx, served)
            ex = {
                "floors": extras.dispatch_floor(ctx),
                "solve_epoch_s": extras.solve_epoch_s(ctx),
                "procpool_epoch_s": extras.procpool_epoch_s(ctx),
                "procserver_sat": extras.procserver_sat(ctx, served),
                "threads_step_ms": extras.threads_step_ms(ctx),
                "distributed_epoch_s": extras.distributed_epoch_s(ctx),
                "batcher": extras.batcher_microbench(ctx),
                "quant": extras.quant_rows(ctx),
                "caffe": extras.caffe_rows(ctx),
            }
        metrics = per_layer(ctx, traces, ex, fingerprint["gemm_calib_ms"],
                            user)
        table = PER_LAYER
    else:
        metrics = user
        table = END_TO_END
    for unit in units if serve_unit in units else units + [serve_unit]:
        for cnet in unit.nets.values():
            cnet.close()
    served.reference.close()

    units_of = {n: u for n, u, _ in table}
    record = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": fingerprint,
        # GEMM calibration at set-up and after every round
        "gemm_calib_ms": calib,
        "host_drift": host_drift,
        "setup_s": setup_s,
        "measure_s": measure_s,
        "correct": ctx.tally.total_failed == 0,
        "tally": ctx.tally.as_dict(),
        "unresolved": list(ctx.unresolved),
        "metrics": {n: {"value": metrics[n], "unit": units_of[n]}
                    for n, _, _ in table},
        # every user-facing metric of this run, gated or not
        "user": user,
        "demoted": DEMOTED,
        "samples": {k: len(v) for k, v in sorted(ctx.raw.items())},
        "per_model": {
            k: 1e3 * median(v) for k, v in sorted(ctx.raw.items())
            if k.startswith(("step_s/", "compile_s/", "cache_hit_s/"))},
        "facts": {k: v for k, v in sorted(ctx.facts.items())},
    }
    if trace:
        table_s = spans.self_time_table()
        record["self_time_ms"] = {k: 1e3 * v for k, v in sorted(table_s.items())}
        # share of the traced step wall the per-layer spans account for
        # (executor forward/backward incl. their GEMM and loop-nest step
        # spans, gradient clearing, solver update); the rest is the gap
        # between two layer calls
        record["self_time_coverage"] = sum(
            tr.fwd + tr.clr + tr.bwd + tr.upd for tr in traces.values()
        ) / sum(tr.wall for tr in traces.values())
        record["_spans"] = spans
    return record
