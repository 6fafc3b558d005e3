"""Unit tests for the IR node library."""

import pytest

from repro.ir import (
    Assign,
    BinOp,
    Block,
    Call,
    CommCall,
    Const,
    ExternOp,
    For,
    FusionBarrier,
    Index,
    Var,
    add,
    buffers_read,
    buffers_written,
    clone,
    const,
    expr_str,
    free_vars,
    map_expr,
    mul,
    sub,
    substitute,
    substitute_stmt,
    to_c,
    to_pseudo,
    walk_exprs,
    write_target_vars,
)


class TestConstantFolding:
    def test_add_consts(self):
        assert add(Const(2), Const(3)) == Const(5)

    def test_add_zero_identity(self):
        assert add(Var("x"), 0) == Var("x")
        assert add(0, Var("x")) == Var("x")

    def test_mul_consts(self):
        assert mul(Const(4), Const(5)) == Const(20)

    def test_mul_one_identity(self):
        assert mul(Var("x"), 1) == Var("x")
        assert mul(1, Var("x")) == Var("x")

    def test_mul_zero_annihilates(self):
        assert mul(Var("x"), 0) == Const(0)

    def test_sub(self):
        assert sub(Const(7), Const(3)) == Const(4)
        assert sub(Var("y"), 0) == Var("y")

    def test_const_wraps_and_passes_through(self):
        assert const(3) == Const(3)
        assert const(Var("v")) == Var("v")

    def test_mixed_stays_symbolic(self):
        e = add(Var("x"), Const(2))
        assert isinstance(e, BinOp)
        assert e.op == "+"


class TestTraversal:
    def setup_method(self):
        self.assign = Assign(
            Index("out", (Var("i"), Const(0))),
            BinOp("*", Index("a", (Var("i"),)), Index("b", (Var("j"),))),
            reduce="add",
        )

    def test_free_vars(self):
        assert free_vars(self.assign) == {"i", "j"}

    def test_walk_exprs_finds_all_indices(self):
        bufs = {e.buffer for e in walk_exprs(self.assign) if isinstance(e, Index)}
        assert bufs == {"out", "a", "b"}

    def test_substitute(self):
        e = substitute(BinOp("+", Var("i"), Var("j")), {"i": Const(5)})
        assert e == BinOp("+", Const(5), Var("j"))

    def test_substitute_folds(self):
        # substitution uses const(), so pure-constant results stay exprs
        e = substitute(Var("i"), {"i": 9})
        assert e == Const(9)

    def test_substitute_stmt_rewrites_loop_bounds(self):
        loop = For("k", Var("lo"), Var("hi"), [clone(self.assign)])
        out = substitute_stmt(loop, {"lo": Const(0), "hi": Const(4)})
        assert out.start == Const(0)
        assert out.stop == Const(4)

    def test_map_expr_bottom_up(self):
        # rename every Var via map_expr
        renamed = map_expr(
            lambda e: Var(e.name + "_r") if isinstance(e, Var) else None,
            self.assign.value,
        )
        assert free_vars(renamed) == {"i_r", "j_r"}

    def test_clone_is_deep_for_statements(self):
        loop = For("k", Const(0), Const(4), [self.assign])
        c = clone(loop)
        assert c is not loop
        assert c.body[0] is not self.assign
        assert to_pseudo(c) == to_pseudo(loop)


class TestReadWriteSets:
    def test_reads_of_reduce_include_target(self):
        a = Assign(Index("c", (Var("i"),)), Index("a", (Var("i"),)),
                   reduce="add")
        assert "c" in buffers_read(a)
        assert buffers_written(a) == {"c"}

    def test_plain_assign_target_not_read(self):
        a = Assign(Index("c", (Var("i"),)), Index("a", (Var("i"),)))
        assert "c" not in buffers_read(a)

    def test_extern_op_reads_and_writes_what_it_declares(self):
        op = ExternOp("f", reads=("x", "acc"), writes=("y", "acc"))
        assert buffers_read(op) == {"x", "acc"}
        assert buffers_written(op) == {"y", "acc"}
        assert buffers_read(ExternOp("g")) == buffers_written(
            ExternOp("g")) == set()

    def test_write_target_vars(self):
        direct = Assign(Index("c", (Var("n"), BinOp("+", Var("i"), Const(1)))),
                        Index("a", (Var("i"),)), reduce="add")
        assert write_target_vars(direct) == {"n", "i"}
        # a target indexed through another buffer may collide across
        # iterations: no loop is provably disjoint
        indirect = Assign(Index("c", (Index("idx", (Var("i"),)),)),
                          Index("a", (Var("i"),)))
        assert write_target_vars(indirect) is None
        assert write_target_vars(Assign(Var("s"), Const(0))) is None

    def test_nested_loops(self):
        inner = Assign(Index("c", (Var("i"),)), Index("a", (Var("i"),)))
        loop = For("i", Const(0), Const(4), [inner])
        assert buffers_read(loop) == {"a"}
        assert buffers_written(loop) == {"c"}


class TestPrinters:
    def test_pseudo_assign(self):
        a = Assign(Index("v", (Var("n"),)), Const(0.0))
        assert to_pseudo(a) == "v[n] = 0.0"

    def test_pseudo_reduce(self):
        a = Assign(Index("v", (Var("n"),)), Const(1.0), reduce="max")
        assert "max=" in to_pseudo(a)

    def test_c_for_loop(self):
        loop = For("i", Const(0), Const(8),
                   [Assign(Index("v", (Var("i"),)), Const(0.0))])
        c = to_c(loop)
        assert "for (int i = 0; i < 8; i++) {" in c
        assert "v[i] = 0.0;" in c

    def test_c_parallel_pragma(self):
        loop = For("i", Const(0), Const(8), [], parallel=True, collapse=2,
                   schedule="static, 1")
        c = to_c(loop)
        assert "#pragma omp for collapse(2) schedule(static, 1)" in c

    def test_c_max_reduce_uses_fmaxf(self):
        a = Assign(Index("v", (Var("i"),)), Index("x", (Var("i"),)),
                   reduce="max")
        assert "fmaxf" in to_c(a)

    def test_comm_call_renders_iallreduce(self):
        c = to_c(CommCall("conv1", ("conv1_grad_weights",)))
        assert "MPI_Iallreduce" in c
        assert "conv1" in c

    def test_fusion_barrier(self):
        assert "barrier" in to_c(FusionBarrier())

    def test_expr_str_call(self):
        e = Call("max", (Var("a"), Const(0.0)))
        assert expr_str(e) == "max(a, 0.0)"

    def test_block_label(self):
        b = Block([Assign(Index("v", ()), Const(1.0))], label="sec")
        assert "sec" in to_pseudo(b)
