"""Figure 15 — per-group speedup breakdown over the first four
Conv[+Conv]+ReLU+Pool groups of VGG (§7.1.2).

The paper observes decreasing benefit in deeper groups: the spatial size
shrinks after each pooling layer (less tiling benefit) and group 4's two
back-to-back convolutions cannot be fused (overlapping windows). We
reproduce each group at proportionally scaled geometry and assert the
compiler-level part of the claim directly, at default options: groups
1-3 fuse pad, im2col copy, GEMM, bias, ReLU and pool into one
batch-tiled step, group 4's conv-conv pair does not fuse.
"""

import pytest

from harness import Runners, median_time, report
from repro.models import vgg_group_config

#: (channel_scale, input_size) per group — proportional to each group's
#: position in the network, with extents that divide into equal tiles
SCALE = {1: (0.25, 56), 2: (0.25, 32), 3: (0.125, 16), 4: (0.0625, 16)}


def _config(group):
    cs, size = SCALE[group]
    return vgg_group_config(group).scaled(channel_scale=cs,
                                          input_size=size), 4


@pytest.fixture(scope="module")
def group_results():
    out = {}
    for g in (1, 2, 3, 4):
        cfg, batch = _config(g)
        r = Runners(cfg, batch)
        tl = median_time(r.latte_fwd_bwd, repeats=3)
        tc = median_time(r.base_fwd_bwd, repeats=3)
        fused_labels = [
            s.label for s in r.cnet.compiled.forward if "+" in s.label
        ]
        out[g] = (tl, tc, tc / tl, fused_labels)
    lines = [f"{'group':>6s} {'latte':>10s} {'caffe':>10s} {'speedup':>8s}"]
    for g, (tl, tc, s, _) in out.items():
        lines.append(f"{g:6d} {tl*1e3:8.1f}ms {tc*1e3:8.1f}ms {s:7.2f}x")
    report("fig15_vgg_groups", lines)
    return out


@pytest.mark.parametrize("group", [1, 2, 3, 4])
def test_fig15_group_benchmark(benchmark, group_results, group):
    cfg, batch = _config(group)
    r = Runners(cfg, batch)
    benchmark.pedantic(r.latte_fwd_bwd, rounds=2, iterations=1,
                       warmup_rounds=1)
    assert group_results[group][2] > 0.8  # never dramatically slower


def test_fig15_groups_123_fuse_conv_relu_pool(group_results):
    for g in (1, 2, 3):
        fused = group_results[g][3]
        assert any("pool" in l and "conv" in l for l in fused), (
            g, fused,
        )


def test_fig15_group4_conv_conv_unfused(group_results):
    """§7.1.2's limit: the paper cannot fuse the pair for the overlap of
    their windows along its tiled ``y``. Under batch tiles each conv
    layer is a chain of its own (``tags.chain``); a training program
    keeps the value between the two (inspectable, and read by the
    backward pass), so the second chain never joins the first's group —
    only forward-only programs merge layers (``fusion.build_schedule``)."""
    fused = group_results[4][3]
    for label in fused:
        assert not ("conv4_1" in label and "conv4_2.co" in label), label
