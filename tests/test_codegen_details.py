"""Tests for code-generation details: GEMM lowering, the emitted module
surface, and the native program's paper fidelity."""

import re

import numpy as np
import pytest

from repro.codegen import c_backend
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


def _kernels(src):
    """The kernel half of a native program, after its runtime section."""
    return src[src.index(c_backend._KERNEL_MARK):]


class TestCBackendGolden:
    """The native program reproduces the structural landmarks of the
    paper's Figures 9-12."""

    def test_fig12_landmarks(self):
        cn = _cnn()
        kernels = _kernels(cn.c_source)
        # Fig. 12: conv, ReLU and pooling of one batch tile are one kernel
        assert re.search(
            r"/\* conv1\.pad_fill\+conv1\.pad\+conv1\.copy\+conv1\.compute"
            r"\+conv1\.compute\+relu1\.compute\+pool1\.compute\+"
            r"pool1\.compute \*/\nvoid _step_f\d+\(", kernels)
        # Fig. 10/12: the pattern-matched GEMMs call sgemm in place
        assert kernels.count("_latte_gemm_rm(") >= 2
        # Fig. 12 line 14: pooling reads the producer directly (fused);
        # no poolinput buffer appears anywhere
        assert "pool1_inputs0" not in cn.c_source
        # §5.3/§6: async reductions follow the backward sections
        comms = [s.comm.ensemble for s in cn.compiled.backward
                 if s.kind == "comm"]
        assert comms == ["fc1", "conv1"]

    def test_unfused_c_shows_fig9_shape(self):
        cn = _cnn(CompilerOptions.level(2))
        c = cn.c_source
        # Fig. 9: the pooling data-copy into the materialized buffer
        assert "pool1_inputs0" in c
        # Fig. 10: O2 pattern-matches GEMMs; O1 does not
        assert "_latte_gemm_rm(" in _kernels(c)
        o1 = _kernels(_cnn(CompilerOptions.level(1)).c_source)
        assert "_latte_gemm_rm(" not in o1
