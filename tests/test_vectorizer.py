"""Tests for the vectorizer: scalar loop nests → NumPy slice operations.

Includes a property-based differential test executing random affine copy
nests through both the scalar oracle and the vectorized lowering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.exprs import NonAffine, extract_affine
from repro.codegen.python_backend import _HELPERS
from repro.codegen.vectorize import lower_unit_scalar, lower_unit_vector
from repro.ir import Assign, BinOp, Call, Const, Index, Var, add, mul
from repro.synthesis.units import LoopSpec, LoopUnit, UnitTags


def _unit(loops, stmt):
    return LoopUnit([LoopSpec.simple(v, n) for v, n in loops], stmt,
                    UnitTags())


def _exec(lowered, bufs):
    """Execute a lowered unit against a buffer dict."""
    lines = []
    pad = ""
    for sp in lowered.scalar_loops:
        from repro.codegen.exprs import render, render_plain_index

        start = render(sp.start, render_plain_index, vector=True)
        stop = render(sp.stop, render_plain_index, vector=True)
        lines.append(f"{pad}for {sp.var} in range({start}, {stop}):")
        pad += "    "
    lines.append(pad + lowered.line)
    src = "\n".join(lines)
    # the generated program's prelude helpers (``_np``, ``_window``, ...)
    env = dict(vars(_HELPERS))
    env.update(bufs)
    exec(compile(src, "<test>", "exec"), env)


class TestAffineExtraction:
    def test_plain_var(self):
        assert extract_affine(Var("i"), "i") == (1, Const(0))

    def test_scaled_plus_offset(self):
        e = add(mul(2, Var("i")), Const(3))
        c, r = extract_affine(e, "i")
        assert c == 2 and r == Const(3)

    def test_other_vars_in_rest(self):
        e = add(Var("i"), Var("j"))
        c, r = extract_affine(e, "i")
        assert c == 1 and r == Var("j")

    def test_absent_var(self):
        assert extract_affine(Const(7), "i") == (0, Const(7))

    def test_quadratic_rejected(self):
        with pytest.raises(NonAffine):
            extract_affine(BinOp("*", Var("i"), Var("i")), "i")

    def test_nonconst_scale_rejected(self):
        with pytest.raises(NonAffine):
            extract_affine(BinOp("*", Var("i"), Var("j")), "i")


class TestLoweringShapes:
    def test_elementwise_fully_vectorized(self):
        stmt = Assign(Index("y", (Var("n"), Var("i"))),
                      Index("x", (Var("n"), Var("i"))))
        low = lower_unit_vector(_unit([("n", 4), ("i", 8)], stmt))
        assert low.scalar_loops == []
        assert "0:4" in low.line and "0:8" in low.line

    def test_reduction_becomes_sum(self):
        stmt = Assign(Index("y", (Var("n"),)),
                      Index("x", (Var("n"), Var("i"))), reduce="add")
        low = lower_unit_vector(_unit([("n", 4), ("i", 8)], stmt))
        assert ".sum(axis=" in low.line
        assert low.scalar_loops == []

    def test_nonreduce_var_not_in_target_stays_scalar(self):
        # y[n] = x[n, i] without a reduction: last-write-wins — i must
        # stay a Python loop
        stmt = Assign(Index("y", (Var("n"),)),
                      Index("x", (Var("n"), Var("i"))))
        low = lower_unit_vector(_unit([("n", 4), ("i", 8)], stmt))
        assert [sp.var for sp in low.scalar_loops] == ["i"]

    def test_transposed_operand_gets_view(self):
        # weights stored (i, n) but loops ordered (n, i)
        stmt = Assign(Index("y", (Var("n"),)),
                      Index("w", (Var("i"), Var("n"))), reduce="add")
        low = lower_unit_vector(_unit([("n", 4), ("i", 8)], stmt))
        assert ".transpose(" in low.line

    def test_unit_extent_loop_substituted(self):
        stmt = Assign(Index("y", (Var("n"), Var("k"))), Const(1.0))
        low = lower_unit_vector(_unit([("n", 4), ("k", 1)], stmt))
        assert low.scalar_loops == []
        assert "0:1" not in low.line  # k collapsed to the constant 0

    def test_strided_slice_from_affine_index(self):
        stmt = Assign(Index("y", (Var("i"),)),
                      Index("x", (add(mul(2, Var("i")), 1),)))
        low = lower_unit_vector(_unit([("i", 5)], stmt))
        assert ":2" in low.line  # stride-2 slice

    def test_max_reduce_uses_maximum(self):
        stmt = Assign(Index("y", (Var("n"),)),
                      Index("x", (Var("n"), Var("i"))), reduce="max")
        low = lower_unit_vector(_unit([("n", 4), ("i", 8)], stmt))
        assert "_np.maximum" in low.line and ".max(axis=" in low.line

    def test_scalar_oracle_keeps_all_loops(self):
        stmt = Assign(Index("y", (Var("n"), Var("i"))),
                      Index("x", (Var("n"), Var("i"))))
        low = lower_unit_scalar(_unit([("n", 4), ("i", 8)], stmt))
        assert [sp.var for sp in low.scalar_loops] == ["n", "i"]
        assert low.line == "y[n, i] = x[n, i]"


class TestLoweredSemantics:
    def test_broadcast_bias_add(self):
        stmt = Assign(Index("y", (Var("n"), Var("o"))),
                      Index("b", (Const(0), Var("o"))), reduce="add")
        y = np.zeros((3, 4), np.float32)
        b = np.arange(4, dtype=np.float32).reshape(1, 4)
        _exec(lower_unit_vector(_unit([("n", 3), ("o", 4)], stmt)),
              {"y": y, "b": b})
        np.testing.assert_array_equal(y, np.tile(b, (3, 1)))

    def test_where_intrinsic(self):
        stmt = Assign(
            Index("y", (Var("i"),)),
            Call("where", (
                BinOp("-", Index("x", (Var("i"),)), Const(0.5)),
                Const(1.0), Const(0.0),
            )),
        )
        # where(nonzero) — use comparison-free form to test Call lowering
        x = np.array([0.5, 1.0, 0.0], np.float32)
        y = np.zeros(3, np.float32)
        _exec(lower_unit_vector(_unit([("i", 3)], stmt)), {"x": x, "y": y})
        np.testing.assert_array_equal(y, [0.0, 1.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(2, 6),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    reduce_op=st.sampled_from([None, "add", "max"]),
    seed=st.integers(0, 10_000),
)
def test_scalar_vector_equivalence(n, m, k, stride, reduce_op, seed):
    """Property: the vectorized lowering computes exactly what the scalar
    oracle computes, for strided-gather statements like those synthesis
    emits."""
    rng = np.random.default_rng(seed)
    src_m = (m - 1) * stride + k
    x = rng.standard_normal((n, src_m)).astype(np.float32)
    target = Index("y", (Var("a"), Var("b"))) if reduce_op is None else \
        Index("y", (Var("a"), Var("b")))
    stmt = Assign(
        target,
        Index("x", (Var("a"), add(mul(stride, Var("b")), Var("w")))),
        reduce=reduce_op,
    )
    loops = [("a", n), ("b", m), ("w", k)]
    init = -np.inf if reduce_op == "max" else 0.0
    out_scalar = np.full((n, m), init, np.float32)
    out_vector = np.full((n, m), init, np.float32)
    unit1 = _unit(loops, stmt)
    unit2 = _unit(loops, stmt)
    _exec(lower_unit_scalar(unit1), {"x": x, "y": out_scalar})
    _exec(lower_unit_vector(unit2), {"x": x, "y": out_vector})
    np.testing.assert_allclose(out_vector, out_scalar, rtol=1e-6)
