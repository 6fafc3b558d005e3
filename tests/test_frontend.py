"""Tests for the neuron-function frontend (DSL parsing, Fig. 8 stage 1)."""

import pytest

from repro.analysis import DslError, parse_neuron_function
from repro.core import Field, Neuron
from repro.ir import Assign, Block, Call, Const, For, Index, Var, to_pseudo
from repro.layers.neurons import (
    AddNeuron,
    AvgNeuron,
    DropoutNeuron,
    MaxNeuron,
    ReLUNeuron,
    ScaleNeuron,
    SigmoidNeuron,
    WeightedNeuron,
)


class TestWeightedNeuron:
    def test_forward_structure(self):
        ir = parse_neuron_function(WeightedNeuron, "forward")
        assert len(ir.body) == 2
        loop, bias = ir.body
        assert isinstance(loop, For)
        assert loop.stop == Var("$len:0")
        (acc,) = loop.body
        assert isinstance(acc, Assign)
        assert acc.reduce == "add"
        assert acc.target == Index("$value", ())
        assert isinstance(bias, Assign)
        assert bias.value == Index("$field:bias", (Const(0),))

    def test_backward_refs(self):
        ir = parse_neuron_function(WeightedNeuron, "backward")
        assert ir.field_refs == {"weights", "grad_weights", "grad_bias"}
        assert ir.input_refs == {0}

    def test_cached(self):
        a = parse_neuron_function(WeightedNeuron, "forward")
        b = parse_neuron_function(WeightedNeuron, "forward")
        assert a is b


class TestReductionNormalization:
    def test_max_neuron_normalized(self):
        ir = parse_neuron_function(MaxNeuron, "forward")
        init, loop = ir.body
        assert init.value == Const(-float("inf"))
        (stmt,) = loop.body
        assert stmt.reduce == "max"
        assert stmt.value == Index("$inputs:0", (Var("i"),))

    def test_avg_division_by_len(self):
        ir = parse_neuron_function(AvgNeuron, "forward")
        final = ir.body[-1]
        assert final.reduce is None
        pseudo = to_pseudo(Block([final]))
        assert "$len:0" in pseudo


class TestIntrinsics:
    def test_where_call(self):
        ir = parse_neuron_function(MaxNeuron, "backward")
        (loop,) = ir.body
        (stmt,) = loop.body
        assert isinstance(stmt.value, Call)
        assert stmt.value.func == "where"

    def test_sigmoid_call(self):
        ir = parse_neuron_function(SigmoidNeuron, "forward")
        assert ir.body[0].value == Call(
            "sigmoid", (Index("$inputs:0", (Const(0),)),)
        )

    def test_scalar_field_access(self):
        ir = parse_neuron_function(ScaleNeuron, "forward")
        assert Index("$field:scale", ()) in [
            ir.body[0].value.left,
            ir.body[0].value.right,
        ]

    def test_dropout_intrinsic_wraps_the_masked_value(self):
        ir = parse_neuron_function(DropoutNeuron, "forward")
        assert ir.body[0].value == Call(
            "dropout", (Index("$inputs:0", (Const(0),)),))
        assert not ir.field_refs


class TestMultipleConnections:
    def test_add_neuron_two_inputs(self):
        ir = parse_neuron_function(AddNeuron, "forward")
        assert ir.input_refs == {0, 1}


class _BadBase(Neuron):
    pass


class TestRejections:
    def _parse_forward(self, cls):
        return parse_neuron_function(cls, "forward")

    def test_unknown_name(self):
        class N(_BadBase):
            def forward(self):
                self.value = undefined_thing  # noqa: F821

        with pytest.raises(DslError, match="unknown name"):
            self._parse_forward(N)

    def test_unknown_field(self):
        class N(_BadBase):
            def forward(self):
                self.value = self.nonexistent_field

        with pytest.raises(DslError, match="unknown neuron field"):
            self._parse_forward(N)

    def test_while_loop_rejected(self):
        class N(_BadBase):
            def forward(self):
                while True:
                    self.value = 0.0

        with pytest.raises(DslError, match="unsupported statement"):
            self._parse_forward(N)

    def test_non_range_iteration(self):
        class N(_BadBase):
            def forward(self):
                for i in [1, 2, 3]:
                    self.value = 0.0

        with pytest.raises(DslError, match="range"):
            self._parse_forward(N)

    def test_single_subscript_on_inputs(self):
        class N(_BadBase):
            def forward(self):
                self.value = self.inputs[0]

        with pytest.raises(DslError):
            self._parse_forward(N)

    def test_arbitrary_call_rejected(self):
        class N(_BadBase):
            def forward(self):
                self.value = print(self.grad)

        with pytest.raises(DslError, match="intrinsic"):
            self._parse_forward(N)

    def test_local_variable_rejected(self):
        class N(_BadBase):
            def forward(self):
                tmp = self.inputs[0][0]
                self.value = tmp

        with pytest.raises(DslError):
            self._parse_forward(N)

    def test_chained_comparison_rejected(self):
        class N(_BadBase):
            def forward(self):
                self.value = where(  # noqa: F821
                    0.0 < self.value < 1.0, 1.0, 0.0
                )

        with pytest.raises(DslError, match="chained"):
            self._parse_forward(N)

    def test_relu_parses_cleanly(self):
        ir = parse_neuron_function(ReLUNeuron, "backward")
        assert ir.loop_vars == frozenset()
