"""Fuzzing CLI: ``python -m repro.testing.fuzz --seed N --budget K``.

Generates ``budget`` random networks from the seeded generator, runs the
full differential oracle on each (opt levels vs the O0 scalar
interpreter, thread counts vs serial, finite-difference gradient probes,
baseline parity, and — when a C toolchain is present — compiled
C backend parity), and on the first failure shrinks the spec to a
minimal reproducer, saves it under ``tests/regressions/`` (override with
``--out-dir``), prints the reproduction command, and exits non-zero.

``--inject-bug NAME`` deliberately breaks a runtime invariant first
(see ``repro.testing.oracle.inject_bug``) — a self-test that the oracle
catches and shrinks real optimizer bugs. A failure it causes is no
regression case: without ``--out-dir`` its reproducer goes to a fresh
temporary directory, never ``tests/regressions/``. CI runs a
date-derived seed nightly and uploads any reproducer as an artifact
(see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.testing.generator import random_spec
from repro.testing.minimize import save_reproducer, shrink
from repro.testing.oracle import INJECTABLE_BUGS, check_spec, inject_bug


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",") if x.strip())


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing of the Latte compiler/runtime.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; case i uses seed*100000 + i")
    parser.add_argument("--budget", type=int, default=25,
                        help="number of random networks to check")
    parser.add_argument("--levels", type=_parse_ints, default=(1, 2, 3, 4),
                        metavar="L,L,...",
                        help="opt levels compared against O0 (default "
                             "1,2,3,4)")
    parser.add_argument("--threads", type=_parse_ints, default=(2, 4),
                        metavar="N,N,...",
                        help="executor thread counts compared against "
                             "serial (default 2,4)")
    parser.add_argument("--grad-indices", type=int, default=3,
                        help="finite-difference probes per net (0 "
                             "disables)")
    parser.add_argument("--no-baselines", action="store_true",
                        help="skip caffe/mocha parity checks")
    parser.add_argument("--no-cbackend", action="store_true",
                        help="skip compiled C backend checks "
                             "(default: run when a C toolchain is found)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report the raw failing spec without "
                             "minimizing")
    parser.add_argument("--shrink-evals", type=int, default=150,
                        help="oracle evaluations the shrinker may spend")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="directory for reproducer JSON (default "
                             "tests/regressions/, or a fresh temporary "
                             "directory under --inject-bug)")
    parser.add_argument("--inject-bug", choices=INJECTABLE_BUGS,
                        default=None,
                        help="break an invariant on purpose (oracle "
                             "self-test)")
    parser.add_argument("--keep-going", action="store_true",
                        help="check the whole budget instead of stopping "
                             "at the first failure")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print the summary and failures")
    return parser


def run_fuzz(args) -> int:
    t0 = time.perf_counter()
    families = Counter()
    checks_run = 0
    failures = []

    def oracle(spec):
        return check_spec(
            spec,
            levels=args.levels,
            threads=args.threads,
            gradcheck_indices=args.grad_indices,
            baselines=not args.no_baselines,
            cbackend=False if args.no_cbackend else None,
        )

    ctx = (inject_bug(args.inject_bug) if args.inject_bug
           else contextlib.nullcontext())
    with ctx:
        for i in range(args.budget):
            case_seed = args.seed * 100_000 + i
            spec = random_spec(case_seed)
            families["recurrent" if spec.recurrent else
                     ("cnn" if len(spec.input_shape) == 3 else "mlp")] += 1
            report = oracle(spec)
            checks_run += len(report.checks)
            if not args.quiet:
                status = "ok" if report.ok else "FAIL"
                print(f"[{i + 1:3d}/{args.budget}] {status:4s} "
                      f"{spec.describe()}", flush=True)
            if report.ok:
                continue
            print(report.summary(), flush=True)
            final_spec = spec
            if not args.no_shrink:
                print("shrinking...", flush=True)
                final_spec = shrink(
                    spec, lambda s: not oracle(s).ok,
                    max_evals=args.shrink_evals,
                )
                report = oracle(final_spec)
                print(f"minimized to {len(final_spec.layers)} layers: "
                      f"{final_spec.describe()}", flush=True)
            out_dir = args.out_dir
            if out_dir is None and args.inject_bug:
                out_dir = Path(tempfile.mkdtemp(prefix="repro-fuzz-"))
            path = save_reproducer(
                final_spec,
                note=(f"fuzz --seed {args.seed} case {i}"
                      + (f" --inject-bug {args.inject_bug}"
                         if args.inject_bug else "")),
                failures=[str(m) for m in report.mismatches],
                directory=out_dir,
            )
            print(f"reproducer written to {path}")
            print(f"reproduce with: python -m repro.testing.fuzz "
                  f"--seed {args.seed} --budget {args.budget}"
                  + (f" --inject-bug {args.inject_bug}"
                     if args.inject_bug else ""))
            failures.append((i, final_spec, path))
            if not args.keep_going:
                break

    dt = time.perf_counter() - t0
    fam = ", ".join(f"{k}={v}" for k, v in sorted(families.items()))
    print(f"fuzz: {sum(families.values())}/{args.budget} nets "
          f"({fam}), {checks_run} oracle checks, "
          f"{len(failures)} failures, {dt:.1f}s")
    return 1 if failures else 0


def main(argv=None) -> int:
    return run_fuzz(make_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
