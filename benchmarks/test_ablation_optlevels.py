"""Ablation: the full optimization ladder on the fusion microbenchmark.

Not a paper figure — this is the design-choice ablation DESIGN.md calls
for, decomposing where Fig. 13's win comes from in this substrate:

* O1 vectorize: loop nests → NumPy slice operations
* O2 +GEMM pattern matching (matmul instead of loop-level products)
* O3 +in-place activations (and the parallel annotation)
* O4 +tiling, cross-layer fusion, copy elimination, first-writer stores

O0 (the scalar oracle) is excluded: it is 1000x slower by design and only
exists for differential testing.
"""

import pytest

from harness import BENCH_GEOMETRY, Runners, median_time, report
from repro.models import vgg_micro_config

LEVELS = [1, 2, 3, 4]


def _config():
    scale, size, batch = BENCH_GEOMETRY["vgg_micro"]
    return (vgg_micro_config().scaled(channel_scale=scale,
                                      input_size=size), batch)


@pytest.fixture(scope="module")
def ladder():
    cfg, batch = _config()
    out = {}
    for lvl in LEVELS:
        r = Runners(cfg, batch, level=lvl)
        out[lvl] = median_time(r.latte_fwd_bwd, repeats=3)
    lines = [f"{'level':>6s} {'fwd+bwd':>10s} {'vs O1':>8s}   gains"]
    notes = {1: "vectorized loops", 2: "+GEMM pattern match",
             3: "+in-place activations", 4: "+tiling/fusion/copy-elim"}
    for lvl in LEVELS:
        lines.append(f"O{lvl:<5d} {out[lvl]*1e3:8.1f}ms "
                     f"{out[1]/out[lvl]:7.2f}x   {notes[lvl]}")
    report("ablation_optlevels", lines)
    return out


def test_ablation_measurements(benchmark, ladder):
    cfg, batch = _config()
    r = Runners(cfg, batch, level=4)
    benchmark.pedantic(r.latte_fwd_bwd, rounds=3, iterations=1,
                       warmup_rounds=1)


def test_ablation_gemm_matching_dominates(ladder):
    """O2's library-kernel pattern matching is the single biggest win in
    this substrate (the paper's §5.4.1 motivation)."""
    assert ladder[2] < ladder[1] * 0.7


def test_ablation_full_compiler_is_best(ladder):
    assert ladder[4] <= min(ladder[1], ladder[2]) * 1.05
    assert ladder[4] <= ladder[3] * 1.15
