"""Figure 14 — Latte's speedup over Caffe on the ImageNet models
(§7.1.2: 5-6x for AlexNet and VGG, 3.2x for OverFeat on the 36-core
testbed).

Shape asserted here: Latte beats the Caffe-like baseline on every model
(forward+backward of one training iteration), and the OverFeat speedup is
the smallest of the three — the paper's §7.1.2 observation that OverFeat
spends more time inside (shared) GEMM calls for its wide late layers.
"""

import pytest

from harness import (
    BENCH_GEOMETRY,
    Runners,
    measure_memory,
    median_time,
    record_memory,
    report,
)
from repro.models import alexnet_config, overfeat_config, vgg_config

FACTORIES = {
    "alexnet": alexnet_config,
    "overfeat": overfeat_config,
    "vgg": vgg_config,
}


def _config(name):
    scale, size, batch = BENCH_GEOMETRY[name]
    cfg = FACTORIES[name]().scaled(channel_scale=scale, input_size=size,
                                   classes=100)
    return cfg, batch


@pytest.fixture(scope="module")
def speedups(bench_threads, bench_inference):
    out = {}
    for name in FACTORIES:
        cfg, batch = _config(name)
        r = Runners(cfg, batch)
        tl = median_time(r.latte_fwd_bwd, repeats=3)
        tc = median_time(r.base_fwd_bwd, repeats=3)
        out[name] = (tl, tc, tc / tl)
    threaded = {}
    if bench_threads > 1:
        # the --threads axis: full-model iteration with batch sharding
        for name in FACTORIES:
            cfg, batch = _config(name)
            r = Runners(cfg, batch, num_threads=bench_threads)
            threaded[name] = median_time(r.latte_fwd_bwd, repeats=3)
    lines = [f"{'model':10s} {'latte':>10s} {'caffe':>10s} {'speedup':>8s} "
             f"{'paper':>8s}"]
    paper = {"alexnet": "5-6x", "overfeat": "3.2x", "vgg": "5-6x"}
    for name, (tl, tc, s) in out.items():
        lines.append(f"{name:10s} {tl*1e3:8.1f}ms {tc*1e3:8.1f}ms "
                     f"{s:7.2f}x {paper[name]:>8s}")
    for name, tt in threaded.items():
        tl = out[name][0]
        lines.append(f"{name:10s} t={bench_threads}: {tt*1e3:8.1f}ms "
                     f"({tl/tt:.2f}x over serial latte)")
    # peak-memory companion rows: tracemalloc + arena-planner accounting
    memory = {}
    for name in FACTORIES:
        cfg, batch = _config(name)
        memory[name] = measure_memory(cfg, batch)
        m = memory[name]
        saved = m["naive_bytes"] - m["planned_bytes"]
        lines.append(
            f"{name:10s} mem: {m['planned_bytes']/1e6:6.1f}MB planned vs "
            f"{m['naive_bytes']/1e6:6.1f}MB naive "
            f"({100*saved/max(1, m['naive_bytes']):.0f}% reuse, "
            f"tracemalloc peak {m['tracemalloc_peak']/1e6:.1f}MB)"
        )
    if bench_inference:
        # the --inference axis: forward-only latency plus the planner's
        # train-vs-inference footprint delta (gradient buffers pruned)
        from harness import latte_net, make_inputs
        from repro.optim import CompilerOptions

        for name in FACTORIES:
            cfg, batch = _config(name)
            cnet = latte_net(cfg, batch,
                             options=CompilerOptions.inference())
            x, y = make_inputs(cfg, batch)
            ti = median_time(lambda: cnet.forward(data=x, label=y),
                             repeats=3)
            mi = cnet.memory_stats()
            cnet.close()
            mt = memory[name]
            lines.append(
                f"{name:10s} inference: fwd {ti*1e3:8.1f}ms, "
                f"{mi['planned_bytes']/1e6:6.1f}MB planned vs "
                f"{mt['planned_bytes']/1e6:6.1f}MB train "
                f"(-{100 * (1 - mi['planned_bytes'] / max(1, mt['planned_bytes'])):.0f}%)"
            )
    record_memory("fig14_imagenet_models", memory)
    report("fig14_imagenet_models", lines)
    return out


@pytest.mark.parametrize("name", list(FACTORIES))
def test_fig14_latte_faster(benchmark, speedups, name):
    cfg, batch = _config(name)
    r = Runners(cfg, batch)
    benchmark.pedantic(r.latte_fwd_bwd, rounds=2, iterations=1,
                       warmup_rounds=1)
    tl, tc, s = speedups[name]
    assert s > 1.0, f"{name}: latte {tl:.3f}s vs caffe {tc:.3f}s"


#: train ``planned_bytes`` at this geometry with every over-budget
#: staging chain batch-tiled and contracted, each re-gathered conv
#: layer's input re-padded in backward, each pooled value backward
#: reads again recomputed there, only the program contract
#: inspectable (a loss feeder's gradient pools, and so does the data
#: gradient, live to the program's end), each pooled buffer at a byte
#: offset of its own in the best of three greedy orders, no dropout mask
#: buffer, the 11x11 conv1 chains tiled one image at a time and vgg's
#: conv1 value recomputed in backward from the data, tile by tile, with
#: the gradients that read it (5 909 728 / = / = with that value held
#: across the phases;
#: 6 360 288 / 1 510 272 / = placed greedy by size alone;
#: 7 081 184 / 1 536 128 / = with the pooled
#: values held across the phases; 7 474 432 / 1 967 104 / 1 749 504 with
#: the data gradient kept whole; 7 477 568 / 1 970 240 /
#: 1 752 640 with the loss an extern and its feeder's gradient kept
#: whole; 2 520 768 / 3 011 520 for alexnet / overfeat at four images
#: a tile; 7 543 104 / 2 586 304 / 3 040 192 with the masks; 9 525 568 / 3 189 952 / 3 154 880 packed into slabs; 14 072 128 /
#: 3 952 064 / 3 376 064 with every ensemble kept inspectable, in
#: slabs; 21 115 584 / 5 556 608 / 5 169 280 with
#: whole-batch staging re-gathered in backward; 16 986 816 / 4 249 792 /
#: 3 490 752 with the padded inputs kept out of the arena; 16 208 576 /
#: 4 156 864 / 3 425 216 with them pooled but held across the phases)
PLANNED_BYTES = {"vgg": 4_312_288, "alexnet": 1_481_152,
                 "overfeat": 1_613_920}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_fig14_memory_plan_reuse(name):
    """Peak non-parameter buffer bytes at the *default* keep-alive
    policy (only data, sinks and loss feeders kept), as an absolute
    count: contraction shrinks the naive footprint too (a contracted
    buffer is small pooled or not), so the reuse *fraction* can fall
    while the program needs less — 64 % of 58.8 MB was 21.1 MB on vgg,
    46 % of 26.0 MB was 14.1 MB keeping every ensemble inspectable."""
    cfg, batch = _config(name)
    m = measure_memory(cfg, batch)
    assert m["planned_bytes"] == PLANNED_BYTES[name], m
    assert m["planned_bytes"] <= m["naive_bytes"], m


def test_fig14_all_models_in_band(speedups):
    """All three models land in a plausible speedup band. (The paper's
    per-model *ordering* — OverFeat gaining least because its wide late
    GEMMs are shared BLAS time — needs full-width layers and does not
    survive the scaled-down geometry; see EXPERIMENTS.md.)"""
    for name, (_tl, _tc, s) in speedups.items():
        assert 1.0 < s < 20.0, (name, s)
