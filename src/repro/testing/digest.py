"""Program identity as a command: one digest line per compile.

    python -m repro.testing.digest [--backend numpy|c|all] [--against FILE]

Compiles the perf ledger's twelve programs (the networks
``benchmarks/ledger/programs.py`` builds, at the same geometry and
initialisation seed) in every configuration a program-neutral change
must leave alone:

* NumPy: O0..O4 x train/inference, plus ``memory_plan=False`` at O3
  and O4 (14 per program);
* C: O4 x train/inference x 1/2 threads (4 per program).

Each compile prints one line — program, configuration, then digests of
the generated Python ``source``, of the pass records' program facts
(``rewrites``), of the native program (``c_source``: what
``backend='c'`` built, or emitted from the schedule on NumPy) and the
exact ``planned_bytes``, then ``py``: the task steps the native
program leaves in Python (on C the steps with a ``fallback``; on NumPy
the steps the same emission of ``c`` binds to no kernel). Pass seconds
and each record's ``env`` (the build's timings, job count, ``so_bytes``
and ``build_dir_hit``) are left out, so a cold and a warm build
directory digest alike. A NumPy line ends with a clockless work
counter, ``ops``: the NumPy array operations of one forward plus
backward (:attr:`Step.ops <repro.codegen.python_backend.Step.ops>`
summed, times the time steps).

Every compile is also put through the oracle's static arena check
(:func:`repro.testing.oracle.arena_fault`: aligned offsets inside the
arena, and no two buffers live at once on the same bytes); the first
layout it rejects ends the run with exit 1, naming the compile and the
buffers.

``--against FILE`` reads a saved run (the printed lines) and exits 1
naming the first compile and field that differs (``py`` and ``ops``
only where the saved line has it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import repro.models as models
from repro.codegen import c_backend
from repro.optim import CompilerOptions
from repro.testing.generator import NetSpec, build_net
from repro.testing.oracle import ArenaFault, arena_fault
from repro.utils.rng import seed_all

#: the ledger's frozen ``NetSpec`` programs
SPEC_DIR = (Path(__file__).resolve().parents[3]
            / "benchmarks" / "ledger" / "specs")

#: the ledger's config programs: factory, channel scale, input size,
#: classes, batch
CONFIGS = {
    "alexnet": ("alexnet_config", 0.25, 67, 100, 8),
    "overfeat": ("overfeat_config", 0.125, 75, 100, 8),
    "vgg": ("vgg_config", 0.25, 64, 100, 8),
    "lenet": ("lenet_config", 0.5, 28, None, 8),
}

#: every ledger program, in the order the digest compiles them
PROGRAMS = tuple(CONFIGS) + (
    "mlp6x16", "cnn_a", "cnn_b", "mlp", "recurrent", "inception_a",
    "inception_b", "lstm")

#: digest fields, in the order a line prints and ``--against`` checks them
FIELDS = ("source", "rewrites", "c", "planned")


def ledger_model(name: str):
    """``(model, batch)``: the ``ModelConfig`` or ``NetSpec`` a ledger
    program is built from, and its batch size."""
    if name in CONFIGS:
        factory, scale, size, classes, batch = CONFIGS[name]
        return getattr(models, factory)().scaled(
            channel_scale=scale, input_size=size, classes=classes), batch
    if name == "mlp6x16":
        return models.mlp_config(hidden=(16,) * 6 + (4,), classes=4,
                                 input_dim=16), 4
    spec = NetSpec.from_dict(json.loads((SPEC_DIR / f"{name}.json").read_text()))
    return spec, spec.batch


def ledger_net(name: str):
    """A fresh uncompiled ledger program, seeded as the ledger seeds it."""
    model, batch = ledger_model(name)
    seed_all(1)
    if isinstance(model, NetSpec):
        return build_net(model)
    return models.build_latte(model, batch).net


def configurations(backend: str = "all"
                   ) -> Iterator[Tuple[str, CompilerOptions, int]]:
    """``(label, options, num_threads)`` of every digested compile on
    ``backend`` (``numpy``, ``c`` or ``all``)."""
    modes = ("train", "inference")
    if backend in ("numpy", "all"):
        for level in range(5):
            for mode in modes:
                yield f"O{level}-{mode}", CompilerOptions(
                    opt_level=level, mode=mode), 1
        for level in (3, 4):
            for mode in modes:
                yield f"O{level}-{mode}-noplan", CompilerOptions(
                    opt_level=level, mode=mode, memory_plan=False), 1
    if backend in ("c", "all"):
        for mode in modes:
            for threads in (1, 2):
                yield f"O4-{mode}-c-t{threads}", CompilerOptions(
                    mode=mode, backend="c"), threads


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(cnet) -> Dict[str, str]:
    """The program facts of one compiled net, by :data:`FIELDS`."""
    records = [
        (r.name, r.enabled, r.units_before, r.units_after,
         sorted(r.rewrites.items()))
        for r in cnet.compile_report.records
    ]
    steps = cnet.compiled.steps
    if cnet.options.backend == "c":
        c_source = cnet.c_source
        python = sum(1 for step in steps if step.fallback)
    else:
        c_source, bindings, _ = c_backend.emit_native_program(
            cnet.compiled, cnet.plan, cnet.plan.time_steps)
        python = sum(1 for call, _why in bindings.values() if call is None)
    facts = {"source": _sha(cnet.source),
             "rewrites": _sha(json.dumps(records)),
             "c": _sha(c_source),
             "planned": str(cnet.memory_stats()["planned_bytes"]),
             "py": str(python)}
    if cnet.options.backend == "numpy":
        facts["ops"] = str(cnet.plan.time_steps * sum(
            step.ops for step in steps))
    return facts


def digest_line(name: str, label: str, options: CompilerOptions,
                num_threads: int) -> str:
    """Compile one ledger program and return its digest line; raises
    :class:`~repro.testing.oracle.ArenaFault` naming the compile when
    its arena layout fails the static check."""
    cnet = ledger_net(name).init(options, num_threads=num_threads)
    try:
        fault = arena_fault(cnet.plan)
        if fault is not None:
            raise ArenaFault(f"{name} {label}: {fault}")
        facts = digest(cnet)
    finally:
        cnet.close()
    return " ".join([name, label] + [f"{f}={v}" for f, v in facts.items()])


def _parse(lines) -> Dict[Tuple[str, str], Dict[str, str]]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) > 2 and all("=" in p for p in parts[2:]):
            out[parts[0], parts[1]] = dict(p.split("=", 1) for p in parts[2:])
    return out


def first_difference(ours: List[str], theirs: List[str]) -> Optional[str]:
    """The first compile of ``ours`` whose digest differs from (or is
    missing in) ``theirs``, with the first differing field; None when
    every one matches."""
    saved = _parse(theirs)
    for key, facts in _parse(ours).items():
        other = saved.get(key)
        if other is None:
            return f"{' '.join(key)}: not in the saved run"
        for f in facts:
            if facts[f] != other.get(f) and (f in FIELDS or f in other):
                return f"{' '.join(key)}: {f} differs"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.digest",
        description="Digest every ledger program in every configuration.")
    parser.add_argument("--backend", choices=("numpy", "c", "all"),
                        default="all")
    parser.add_argument("--against", metavar="FILE",
                        help="a saved run to compare with")
    args = parser.parse_args(argv)
    lines = []
    for name in PROGRAMS:
        for label, options, threads in configurations(args.backend):
            try:
                lines.append(digest_line(name, label, options, threads))
            except ArenaFault as fault:
                print(f"ARENA {fault}", file=sys.stderr)
                return 1
            print(lines[-1], flush=True)
    if args.against is None:
        return 0
    diff = first_difference(lines, Path(args.against).read_text().splitlines())
    if diff is not None:
        print(f"DIFFERS {diff}", file=sys.stderr)
        return 1
    print(f"{len(lines)} compiles match {args.against}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
