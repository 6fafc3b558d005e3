#!/usr/bin/env python3
"""The perf ledger: one benchmark, four workloads, every layer attributed.

    python3 benchmarks/ledger/run.py --workload train_small --seed 0 \\
        --seconds 6 --trace 0          # one run, result object last
    python3 benchmarks/ledger/run.py [--trace]        # all four workloads
    python3 benchmarks/ledger/run.py --selfcheck      # two run sets + a
                                                      # third on new seeds

One run is one workload in one fresh process (forked from a supervisor
that waits until every process the run started has ended, ``supervised``
below): BLAS/OpenMP pinned to one thread, private ``REPRO_CACHE_DIR`` /
``REPRO_CBUILD_DIR`` / ``TMPDIR`` under ``benchmarks/results/ledger/``,
which also receives the per-run JSON (and, with ``--trace 1``, the
Chrome trace and self-time table).
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md next to this file for every metric's definition.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "benchmarks", "results", "ledger")
HISTORY = os.path.join(HERE, "history.jsonl")
WORKLOAD_NAMES = ("train_fig14", "train_small", "serve_vgg", "compile_boot")
#: runs per workload in one --selfcheck set, as many as the driver makes
SELFCHECK_RUNS = 10
#: bounds that are fixed, not derived: an exact count; a share of 1
#: (0.02 absolute); and set-up time, which the benchmark contract keeps
#: end-to-end whatever its spread (it cannot be demoted) and gives the
#: contract's widest bound
FIXED_BOUNDS = {"planned_mb": 0.0, "goodput_share": 0.02, "setup_s": 0.25}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0,
                    help="input tensors, arrival schedule, program order")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds "
                    "of BENCHMARK.json)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1),
                    help="1: program tracer on, bench spans recorded, "
                    "per-layer metrics reported")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two run sets on the same seeds plus a third on "
                    "new seeds: spreads, medians, suggested bounds")
    return ap.parse_args(argv)


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# one run, in this process
# ---------------------------------------------------------------------------


def pin_environment(workdir: str) -> None:
    """Everything that must be decided before NumPy and repro load."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("REPRO_NUM_THREADS", None)
    os.environ.pop("REPRO_C_NO_BLAS", None)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    os.environ["REPRO_CBUILD_DIR"] = os.path.join(workdir, "cbuild")
    # cc and tempfile scratch stay inside the checkout too
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(os.environ["TMPDIR"])
    sys.path.insert(0, SRC)


def print_metrics(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} setup {record['setup_s']:.2f}s "
          f"measure {record['measure_s']:.2f}s ==")
    for name, body in record["metrics"].items():
        print(f"{name:48s} {body['value']:16.6g} {body['unit']}")
    tally = record["tally"]
    print(f"operations: {sum(tally['attempted'].values())} attempted, "
          f"{sum(tally['failed'].values())} failed")
    for line in tally["details"]:
        print(f"FAILED {line}")
    for what in record["unresolved"]:
        print(f"UNRESOLVED {what}: " + (
            f"GEMM calibration moved {record['host_drift']:.2f}x during "
            "the run" if what == "host" else "generator ran late"))


def run_one(args) -> int:
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        pin_environment(workdir)
        import workloads

        record = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), ROOT, workdir, T_START)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = record.pop("_spans", None)
    if spans is not None:
        spans.write_chrome_trace(stem + ".trace.json")
        with open(stem + ".selftime.txt", "w") as f:
            for name, ms in record["self_time_ms"].items():
                f.write(f"{name:48s} {ms:12.3f} ms\n")
    record["claim"] = None
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print_metrics(record)
    tally = record["tally"]
    result = {
        "correct": record["correct"],
        "attempted": sum(tally["attempted"].values()),
        "failed": sum(tally["failed"].values()),
        "metrics": record["metrics"],
    }
    from stats import validate_result

    table = benchmark_json()["per_layer" if args.trace else "end_to_end"]
    validate_result(result, {m["name"]: m["unit"] for m in table})
    print(json.dumps(result))
    return 0 if record["correct"] else 1


# ---------------------------------------------------------------------------
# nothing outlives a run
# ---------------------------------------------------------------------------

#: how long a process the run left behind may take to end by itself
#: (multiprocessing's resource tracker does, milliseconds after the run)
#: before its process group is killed
GRACE_S = 2.0
_PR_SET_CHILD_SUBREAPER = 36


def supervised(run) -> int:
    """``run()`` in a forked child that leads a process group of its
    own. This process adopts whatever the run orphans (CLI servers, pool
    workers, ``cc``, the resource tracker) and returns the run's exit
    code only once every one of them has ended and been waited for;
    after ``GRACE_S``, or on SIGTERM/SIGINT, the group is killed."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise SystemExit("ledger: prctl(PR_SET_CHILD_SUBREAPER) failed: "
                         + os.strerror(ctypes.get_errno()))
    child = os.fork()
    if child == 0:
        os.setpgid(0, 0)
        return run()
    os.setpgid(child, child)  # here too: a signal may come before the child's

    def kill_group(*_):
        try:
            os.killpg(child, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group is already empty

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, kill_group)
    _, status = os.waitpid(child, 0)
    code = os.waitstatus_to_exitcode(status)
    ended = time.monotonic()
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break  # no process of the run is left
        if pid == 0:
            if time.monotonic() - ended > GRACE_S and not killed:
                print("ledger: the run left processes behind; killing "
                      "its process group", file=sys.stderr)
                kill_group()
                killed = True
            time.sleep(0.005)
    return code if code >= 0 else 128 - code


# ---------------------------------------------------------------------------
# many runs, each in a fresh subprocess
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh process; returns its ledger record."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}")
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        return json.load(f)


def run_all(args) -> int:
    records = []
    for workload in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            record = spawn(workload, args.seed, args.seconds, trace)
            print_metrics(record)
            records.append(record)
    summary = {
        "host": records[0]["host"],
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": records,
        "claim": None,
    }
    path = os.path.join(RESULTS, f"ledger-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


#: per-layer metrics that are exact counts of a deterministic compiler:
#: two runs of one checkout must agree on them to the last digit
_EXACT_SUFFIXES = (".rewrites", "_bytes", ".task_steps", ".native_steps",
                   ".python_steps", ".ffi_calls_per_step", ".hits",
                   ".misses", ".bytes_per_step", ".ensembles",
                   ".connections", ".units", ".steps_moved")


def must_repeat(name: str) -> bool:
    # a cache entry embeds its creation time, whose digits vary
    if name == "cache.entry_bytes":
        return False
    return (name.endswith(_EXACT_SUFFIXES)
            or name.startswith("quant.planned_bytes."))


def run_set(label: str, seeds, seconds: float) -> dict:
    """``{workload: {metric: [value per seed]}}`` for one run set: every
    user-facing metric, gated or demoted, tracing off."""
    values = {}
    for workload in WORKLOAD_NAMES:
        rows = values.setdefault(workload, {})
        for seed in seeds:
            t0 = time.perf_counter()
            record = spawn(workload, seed, seconds, 0)
            for name, value in record["user"].items():
                rows.setdefault(name, []).append(value)
            print(f"[{label}] {workload} seed {seed}: "
                  f"{time.perf_counter() - t0:.1f}s"
                  + "".join(f" UNRESOLVED {u}" for u in record["unresolved"]),
                  flush=True)
    return values


def append_history(label: str, seeds, host: dict, values: dict,
                   passed: bool) -> None:
    import statistics

    line = {
        "git_sha": host["git_sha"], "set": label, "seeds": list(seeds),
        "host": host, "selfcheck_passed": passed,
        "user": {w: {m: statistics.median(v) for m, v in rows.items()}
                 for w, rows in values.items()},
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def derived_bound(name: str, widest_spread: float) -> float:
    """ISSUE 11's rule: the larger of 5 % and twice the widest quartile
    spread seen, rounded up to a whole percent. Above 0.10 the metric
    cannot gate and belongs in ``workloads.DEMOTED``."""
    import math

    if name in FIXED_BOUNDS:
        return FIXED_BOUNDS[name]
    return max(0.05, math.ceil(200 * widest_spread) / 100)


def selfcheck(args) -> int:
    import statistics

    from stats import spread

    bench = benchmark_json()
    meta = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(SELFCHECK_RUNS))
    fresh = [1000 + s for s in seeds]
    sets = {
        "A": run_set("A", seeds, args.seconds),
        "B": run_set("B", seeds, args.seconds),
        "C": run_set("C", fresh, args.seconds),
    }
    traced = {w: [spawn(w, 0, args.seconds, 1) for _ in range(2)]
              for w in WORKLOAD_NAMES}
    host = traced[WORKLOAD_NAMES[0]][0]["host"]

    problems = []
    widest = {}
    print(f"{'workload':13s} {'metric':22s} {'median A':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'B/A':>7s} {'C/A':>7s}")
    for workload in WORKLOAD_NAMES:
        for name in sets["A"][workload]:
            a, b, c = (sets[k][workload][name] for k in "ABC")
            q1, med, q3 = statistics.quantiles(a, n=4)
            worst_spread = max(spread(a), spread(b), spread(c))
            widest[name] = max(widest.get(name, 0.0), worst_spread)
            shifts = {k: statistics.median(v) / statistics.median(a)
                      for k, v in (("B", b), ("C", c))}
            print(f"{workload:13s} {name:22s} {med:12.5g} {q1:12.5g} "
                  f"{q3:12.5g} {worst_spread:7.3f} {shifts['B']:7.3f} "
                  f"{shifts['C']:7.3f}")
            if name not in meta:  # demoted: reported, gates nothing
                continue
            bound = meta[name]["bound"]
            sign = 1.0 if meta[name]["better"] == "lower" else -1.0
            if worst_spread > bound:
                problems.append(f"{workload}/{name}: spread "
                                f"{worst_spread:.3f} > bound {bound}")
            for k, ratio in shifts.items():
                if sign * (ratio - 1.0) > bound:
                    problems.append(f"{workload}/{name}: set {k} median "
                                    f"worse than A by {ratio - 1:+.3f}")
    for workload, (first, second) in traced.items():
        for name, body in first["metrics"].items():
            if must_repeat(name) \
                    and body["value"] != second["metrics"][name]["value"]:
                problems.append(
                    f"{workload}/{name}: count {body['value']} != "
                    f"{second['metrics'][name]['value']} on the rerun")
        if not first["correct"] or not second["correct"]:
            problems.append(f"{workload}: traced run reported failures")
    print("derived bounds (larger of 0.05 and 2x the widest spread; above "
          "0.10 the metric cannot gate and is reported per-layer):")
    for name, w in widest.items():
        bound = derived_bound(name, w)
        where = "end_to_end" if name in meta else "per_layer"
        verdict = "  <-- MOVE" if (name not in FIXED_BOUNDS and
                                   (bound <= 0.10) != (name in meta)) else ""
        print(f"  {name:22s} widest spread {w:.4f} -> {bound:.2f} "
              f"(now {where}){verdict}")
    for p in problems:
        print(f"SELFCHECK FAILED {p}")
    for label, used in (("A", seeds), ("B", seeds), ("C", fresh)):
        append_history(label, used, host, sets[label], not problems)
    print("selfcheck " + ("FAILED" if problems else "ok")
          + f"; history appended to {os.path.relpath(HISTORY, ROOT)}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no program to measure — {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(benchmark_json()["run_seconds"])
    os.makedirs(RESULTS, exist_ok=True)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload == "all":
        return run_all(args)
    return supervised(lambda: run_one(args))


if __name__ == "__main__":
    sys.exit(main())
