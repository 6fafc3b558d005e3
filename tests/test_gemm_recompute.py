"""A first layer's GEMM value is recomputed in backward, tile by tile.

vgg's ``conv1_value`` (2 MB at the ledger geometry) is a function of the
fed data and conv1's parameters alone, which the step holds anyway.
Backward reads it for three things: the pool's recompute, the pool
backward's ``==`` routing and the ReLU backward's ``> 0`` mask. So its
whole forward chain — pad, im2col copy, GEMM, bias, in-place ReLU — is
cloned into backward, and tiling moves those two gradient units up
under the clone's tile loop, with conv2's data gradient that the pool
backward needs: ``conv1_value_re`` holds one image, so do the
gradients only that loop touches, and ``conv1_value`` contracts into
its forward group.

Pinned here: the recompute changes bytes, not bits (a compile that
keeps ``conv1`` inspectable, and so never recomputes it, trains to the
same loss and gradients on both backends); the compile report's lines
for vgg's retained values; and the in-place ReLU backward's masked
store, emitted as ``_np.copyto`` and bitwise the ``where`` it replaces.
"""

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core.ensemble import DataEnsemble
from repro.optim import CompilerOptions
from repro.testing.digest import ledger_net

BACKENDS = ["numpy", pytest.param("c", marks=pytest.mark.skipif(
    not have_c_toolchain(), reason="no C toolchain"))]


def _two_steps(cnet):
    """Loss, data gradient and parameter gradients of two SGD steps
    from the net's initial parameters, on seeded inputs."""
    rng = np.random.default_rng(0)
    feeds = {}
    for ens in cnet.net.ensembles.values():
        if isinstance(ens, DataEnsemble):
            shape = cnet.buffers[f"{ens.name}_value"].shape
            feeds[ens.name] = (rng.integers(0, 2, shape)
                               if "label" in ens.name
                               else rng.standard_normal(shape)
                               ).astype(np.float32)
    out = []
    for _ in range(2):
        out.append(np.float32(cnet.forward(**feeds)))
        cnet.clear_param_grads()
        cnet.backward()
        out.append(cnet.grad("data").copy())
        for p in cnet.parameters():
            out.append(p.grad.copy())
            p.value -= np.float32(0.1) * p.grad
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_the_recompute_changes_bytes_not_bits(backend):
    options = CompilerOptions(backend=backend)
    recomputed = ledger_net("vgg").init(options)
    held = ledger_net("vgg").init(options, keep_alive=("conv1",))
    try:
        remat = recomputed.plan.memory.rematerialized
        assert remat["conv1_value"].buffer == "conv1_value_re"
        assert "conv1_value" not in held.plan.memory.rematerialized
        # one image of 8: the clone runs tile by tile with its readers
        spec = recomputed.plan.buffers["conv1_value_re"]
        assert spec.tile == 1
        assert recomputed.buffers["conv1_value_re"].nbytes == 262_144
        assert (recomputed.plan.memory.planned_bytes
                < held.plan.memory.planned_bytes)
        for a, b in zip(_two_steps(recomputed), _two_steps(held),
                        strict=True):
            assert a.tobytes() == b.tobytes()
    finally:
        recomputed.close()
        held.close()


def test_vgg_holds_no_conv1_value_across_the_phases():
    """``conv1_value`` lives in forward only. Its clone, with its own
    staging, lives inside one backward group together with the pool's
    recompute, the pool backward and the ReLU backward — and with
    conv2's data gradient, scatter and unpad, which the pool backward
    needs first, and conv2's re-gathered weight gradient, which reads
    the recomputed pool. The gradients only that group touches are
    zeroed tile by tile there and hold one image too. The step's live
    bytes fall from 5 447 680 (held) to 3 915 776: what stays whole at
    that group is ``conv1_grad`` (2 MB), which conv1's backward reads
    next, and ``conv2_grad`` (1 MB)."""
    cnet = ledger_net("vgg").init(CompilerOptions())
    mem = cnet.plan.memory
    assert mem.intervals["conv1_value"].phases == {"forward"}
    group = cnet.plan.contracted["conv1_value_re"].split("+")
    assert group[:5] == ["conv2.compute", "conv2.fill", "conv2.scatter",
                         "conv2.fill", "conv2.unpad"]
    for label in ("conv1.recompute", "relu_conv1.recompute",
                  "pool_conv1.recompute", "pool_conv1.compute",
                  "relu_conv1.compute", "conv2.regather"):
        assert label in group
    assert {"conv1_value", "conv1_value_re", "pool_conv1_value_re",
            "conv1_inputs0_rc", "conv1_padsrc0_rc", "conv2_padsrc0_grad",
            "pool_conv1_grad"} <= set(cnet.plan.contracted)
    assert "conv1_grad" not in cnet.plan.contracted
    assert "conv2_padsrc0_grad" not in mem.zero_defs
    assert mem.live_bytes == 3_915_776
    rows = cnet.memory_report().table().splitlines()
    assert ("recomputed conv1_value: 2048.0 KB from data_value (re-padded "
            "into conv1_padsrc0_rc) by conv1.recompute+relu_conv1.recompute"
            ) in rows
    # every value backward reads again and holds, with its reason
    retained = [r for r in rows if r.startswith("retained ")]
    assert retained == [
        "retained drop7_value: aliased",
        "retained fc7_value: source-not-held (drop6_value)",
        "retained drop6_value: aliased",
        "retained fc6_value: source-not-held (pool_conv5_value)",
        "retained pool_conv5_value: aliased",
        "retained conv5_2_value: source-not-held (conv5_1_value)",
        "retained conv5_1_value: source-not-held (pool_conv4_value)",
        "retained conv4_2_value: source-not-held (conv4_1_value)",
        "retained conv4_1_value: source-not-held (pool_conv3_value)",
        "retained conv3_2_value: source-not-held (conv3_1_value)",
        "retained conv3_1_value: source-not-held (pool_conv2_value)",
        "retained conv2_value: source-not-held (pool_conv1_value)",
    ]


def test_a_first_conv_whose_staging_outweighs_its_value_is_held():
    """lenet's and overfeat's conv1 values are smaller than the im2col
    staging their clone would hold (lenet's whole batch, overfeat's
    one-image tile of an 11x11 window): held, with the reason."""
    for name in ("lenet", "overfeat"):
        mem = ledger_net(name).init(CompilerOptions()).plan.memory
        assert mem.declined["conv1_value"] == "no-saving", name
        assert "conv1_value" not in mem.rematerialized


def test_a_relu_backward_zeroes_its_masked_off_gradient_in_place():
    """The in-place ReLU backward ``g = where(v > 0, g, 0)`` is emitted
    as ``_np.copyto(g, 0.0, where=~(v > 0))``: no whole-batch result or
    mask temporary, and bitwise the select it replaces — a zero, a
    negative zero and a NaN in ``v`` included."""
    cnet = ledger_net("vgg").init(CompilerOptions())
    source = cnet.source
    assert ("_np.copyto(relu_conv2_grad[0:8, 0:32, 0:32, 0:32], 0.0, "
            "where=~((relu_conv2_value[0:8, 0:32, 0:32, 0:32] > 0.0)))"
            ) in source
    assert "_grad[0:8, 0:1024] = _np.where(" not in source
    assert "_np.copyto(relu7_grad[0:8, 0:1024]" in source

    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 64)).astype(np.float32)
    v[0, :4] = [0.0, -0.0, np.nan, -np.inf]
    g = rng.standard_normal((4, 64)).astype(np.float32)
    g[1, :2] = [-0.0, np.nan]
    selected = np.where(v > 0.0, g, 0.0).astype(np.float32)
    np.copyto(g, 0.0, where=~(v > 0.0))
    assert g.tobytes() == selected.tobytes()


#: vgg's first two layers at fuzz geometry: batch-tiled under
#: ``batch_tiles()``, conv1's value recomputed from the data, tile by
#: tile with the pool and ReLU backward and conv2's data gradient
VGG_LIKE = {"seed": 7, "batch": 4, "input_shape": [3, 8, 8], "classes": 3,
            "time_steps": 1, "layers": [
                {"kind": "conv", "filters": 16, "kernel": 3, "stride": 1,
                 "pad": 1},
                {"kind": "relu"},
                {"kind": "pool", "mode": "max", "kernel": 2, "stride": 2,
                 "pad": 0},
                {"kind": "conv", "filters": 8, "kernel": 3, "stride": 1,
                 "pad": 1},
                {"kind": "relu"}]}


def test_the_oracle_pins_the_tiled_recompute():
    """Every tier of the differential oracle — the O0 interpreter, the
    batch-tiled program on NumPy and C, 2 threads — passes on a spec
    whose tiled backward group recomputes conv1 and zeroes conv2's
    padded gradient and the pool's gradient tile by tile; with the
    recompute's clones dropped, the tiled tiers fail."""
    import json

    from repro.testing import check_spec
    from repro.testing.generator import NetSpec, build_net
    from repro.testing.oracle import batch_tiles, inject_bug
    from repro.utils.rng import seed_all

    spec = NetSpec.from_json(json.dumps(VGG_LIKE))
    seed_all(spec.seed)
    with batch_tiles():
        cnet = build_net(spec).init(CompilerOptions())
    assert cnet.plan.memory.rematerialized["L0_conv_value"].recomputed
    grads = {b for b in cnet.plan.contracted
             if cnet.plan.buffers[b].role in ("grad", "padded_grad")}
    assert grads == {"L3_conv_padsrc0_grad", "L2_pool_grad"}
    assert cnet.plan.buffers["L0_conv_value_re"].tile == 1
    report = check_spec(spec, threads=(2,))
    assert report.ok, report.summary()
    assert {"batchtile", "cbackend-batchtile", "batchtile-threads:2"} <= (
        set(report.checks) if have_c_toolchain()
        else set(report.checks) | {"cbackend-batchtile"})
    with inject_bug("recompute-skipped"):
        broken = check_spec(spec, levels=(4,), threads=(),
                            gradcheck_indices=0, baselines=False,
                            cbackend=False, quant=False)
    assert "batchtile" in {m.check for m in broken.mismatches}
