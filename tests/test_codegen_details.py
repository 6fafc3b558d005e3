"""Tests for code-generation details: GEMM lowering, the emitted module
surface, and the C backend's paper fidelity."""

import numpy as np
import pytest

from repro.codegen.python_backend import _gemm_rhs
from repro.core import Net
from repro.layers import (
    ConvolutionLayer,
    FullyConnectedLayer,
    MaxPoolingLayer,
    MemoryDataLayer,
    ReLULayer,
)
from repro.optim import CompilerOptions
from repro.testing.oracle import batch_tiles


class TestGemmLowering:
    def test_pure_contraction_uses_tensordot(self):
        rhs = _gemm_rhs("ac,cb->ab", "X", "W")
        assert rhs.startswith("_np.tensordot(X, W, axes=((1,), (0,)))")

    def test_output_permutation_is_view_transpose(self):
        # conv-style: contraction e; result (b, a, c, d) → out 'abcd'
        rhs = _gemm_rhs("eb,aecd->abcd", "W", "COL")
        assert ".transpose((1, 0, 2, 3))" in rhs

    def test_multi_axis_contraction(self):
        rhs = _gemm_rhs("aecd,abcd->eb", "COL", "G")
        assert "axes=((0, 2, 3), (0, 2, 3))" in rhs

    def test_identity_permutation_has_no_transpose(self):
        rhs = _gemm_rhs("ac,cb->ab", "X", "W")
        assert ".transpose" not in rhs

    def test_shared_label_falls_back_to_einsum(self):
        # 'a' appears in both operands AND the output: batched elementwise
        rhs = _gemm_rhs("ab,ab->ab", "X", "Y")
        assert rhs.startswith("_np.einsum(")

    def test_lowerings_compute_correctly(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 5)).astype(np.float32)
        W = rng.standard_normal((5, 4)).astype(np.float32)
        env = {"_np": np, "X": X, "W": W}
        out = eval(_gemm_rhs("ac,cb->ab", "X", "W"), env)
        np.testing.assert_allclose(out, X @ W, rtol=1e-5)

    def test_conv_style_lowering_correct(self):
        rng = np.random.default_rng(1)
        W = rng.standard_normal((6, 4)).astype(np.float32)  # (e, b)
        COL = rng.standard_normal((2, 6, 3, 3)).astype(np.float32)
        env = {"_np": np, "W": W, "COL": COL}
        out = eval(_gemm_rhs("eb,aecd->abcd", "W", "COL"), env)
        ref = np.einsum("eb,aecd->abcd", W, COL)
        np.testing.assert_allclose(out, ref, rtol=1e-5)


def _cnn(opts=None):
    net = Net(2)
    d = MemoryDataLayer(net, "data", (3, 8, 8))
    conv = ConvolutionLayer("conv1", net, d, 4, 3, pad=1)
    relu = ReLULayer("relu1", net, conv)
    pool = MaxPoolingLayer("pool1", net, relu, 2, 2)
    FullyConnectedLayer("fc1", net, pool, 5)
    with batch_tiles():  # tiny geometry: tile conv1's chain anyway
        return net.init(opts or CompilerOptions())


class TestEmittedModule:
    def test_tensordot_in_source(self):
        cn = _cnn()
        assert "_np.tensordot" in cn.source

    def test_step_functions_named_and_bound(self):
        cn = _cnn()
        for step in cn.compiled.forward:
            if step.kind == "task":
                assert callable(step.fn)
                # shardable steps carry extra (_b0, _b1) batch-bound
                # defaults under REPRO_NUM_THREADS > 1
                assert f"def {step.name}(B, rt" in cn.source

    def test_buffer_prelude_binds_locals(self):
        cn = _cnn()
        assert "= B['conv1_weights']" in cn.source

    def test_scalar_backend_emits_element_loops(self):
        cn = _cnn(CompilerOptions.level(0))
        assert "for _n in range(0, 2):" in cn.source
        assert "_np.tensordot" not in cn.source


class TestCBackendGolden:
    """The C rendering reproduces the structural landmarks of the
    paper's Figures 9-12."""

    def test_fig12_landmarks(self):
        cn = _cnn()
        c = cn.c_source
        # Fig. 12 line 1: the parallel pragma with compact static schedule
        assert "#pragma omp for collapse(2) schedule(static, 1)" in c
        # Fig. 10/12: the simplified gemm interface
        assert "gemm('T', 'N'," in c
        # Fig. 12 line 14: pooling reads the producer directly (fused);
        # no poolinput buffer appears anywhere
        assert "pool1_inputs0" not in c
        assert "fmaxf" in c
        # §5.3/§6: async reduction calls after backward sections
        assert c.count("latte_iallreduce") == 2  # conv1 + fc1

    def test_collapse_only_over_a_perfect_nest(self):
        """A fused tile loop holds several nests; ``collapse(2)`` over
        it is not OpenMP (parent: printed anyway). A solo nest keeps
        it."""
        c = _cnn().c_source
        fused = c[c.index("// conv1.pad_fill+conv1.pad+conv1.copy"):]
        pragma, loop = fused.splitlines()[1:3]
        assert pragma == "#pragma omp for schedule(static, 1)"
        assert loop == "for (int _n_t = 0; _n_t < 2; _n_t++) {"
        solo = c[c.index("// relu1.compute"):].splitlines()[1:3]
        assert solo[0] == "#pragma omp for collapse(2) schedule(static, 1)"
        assert solo[1].startswith("for (int _n = 0;")

    def test_unfused_c_shows_fig9_shape(self):
        cn = _cnn(CompilerOptions.level(2))
        c = cn.c_source
        # Fig. 9: the pooling data-copy into the materialized buffer
        assert "pool1_inputs0" in c
