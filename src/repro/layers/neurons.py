"""Standard-library neuron types (§4).

These are written in the Latte DSL subset exactly as a user would write
them; the compiler parses their source. ``WeightedNeuron`` is the
verbatim Python rendering of the paper's Fig. 3.
"""

from __future__ import annotations

from repro.core import Field, Neuron


class WeightedNeuron(Neuron):
    """Dot product of inputs with a learnable weight vector plus a bias
    (Fig. 3). Used by fully-connected and convolution layers."""

    weights = Field()
    grad_weights = Field()
    bias = Field()
    grad_bias = Field()

    def forward(self):
        # perform dot product of weights and inputs
        for i in range(len(self.inputs[0])):
            self.value += self.weights[i] * self.inputs[0][i]
        # add the bias
        self.value += self.bias[0]

    def backward(self):
        # Compute back propagated gradient
        for i in range(len(self.inputs[0])):
            self.grad_inputs[0][i] += self.weights[i] * self.grad
        # Compute weight gradient
        for i in range(len(self.inputs[0])):
            self.grad_weights[i] += self.inputs[0][i] * self.grad
        # Compute bias gradient
        self.grad_bias[0] += self.grad


class MaxNeuron(Neuron):
    """Activation is the maximum of the inputs (§2.3); gradient is routed
    to the inputs that attained the maximum."""

    def forward(self):
        self.value = -inf  # noqa: F821 - DSL named constant
        for i in range(len(self.inputs[0])):
            self.value = max(self.value, self.inputs[0][i])

    def backward(self):
        for i in range(len(self.inputs[0])):
            self.grad_inputs[0][i] += where(  # noqa: F821 - DSL intrinsic
                self.inputs[0][i] == self.value, self.grad, 0.0
            )


class AvgNeuron(Neuron):
    """Activation is the mean of the inputs (mean pooling)."""

    def forward(self):
        self.value = 0.0
        for i in range(len(self.inputs[0])):
            self.value += self.inputs[0][i]
        self.value = self.value / len(self.inputs[0])

    def backward(self):
        for i in range(len(self.inputs[0])):
            self.grad_inputs[0][i] += self.grad / len(self.inputs[0])


class ReLUNeuron(Neuron):
    """Rectified linear unit. The backward pass is phrased against
    ``self.value`` so it stays correct when executed in place."""

    def forward(self):
        self.value = max(self.inputs[0][0], 0.0)

    def backward(self):
        self.grad_inputs[0][0] += where(  # noqa: F821
            self.value > 0.0, self.grad, 0.0
        )


class SigmoidNeuron(Neuron):
    """Logistic activation σ(x) = 1 / (1 + exp(-x))."""

    def forward(self):
        self.value = sigmoid(self.inputs[0][0])  # noqa: F821

    def backward(self):
        self.grad_inputs[0][0] += self.grad * self.value * (1.0 - self.value)


class TanhNeuron(Neuron):
    """Hyperbolic-tangent activation."""

    def forward(self):
        self.value = tanh(self.inputs[0][0])  # noqa: F821

    def backward(self):
        self.grad_inputs[0][0] += self.grad * (1.0 - self.value * self.value)


class AddNeuron(Neuron):
    """Elementwise sum of two inputs (the ``+`` ensemble of Fig. 6)."""

    def forward(self):
        self.value = self.inputs[0][0] + self.inputs[1][0]

    def backward(self):
        self.grad_inputs[0][0] += self.grad
        self.grad_inputs[1][0] += self.grad


class Add3Neuron(Neuron):
    """Elementwise sum of three inputs (the output gate of Fig. 6 sums
    ``oC + oh + ox``)."""

    def forward(self):
        self.value = self.inputs[0][0] + self.inputs[1][0] + self.inputs[2][0]

    def backward(self):
        self.grad_inputs[0][0] += self.grad
        self.grad_inputs[1][0] += self.grad
        self.grad_inputs[2][0] += self.grad


class MulNeuron(Neuron):
    """Elementwise product of two inputs (the ``*`` ensemble of Fig. 6)."""

    def forward(self):
        self.value = self.inputs[0][0] * self.inputs[1][0]

    def backward(self):
        self.grad_inputs[0][0] += self.grad * self.inputs[1][0]
        self.grad_inputs[1][0] += self.grad * self.inputs[0][0]


class OneMinusNeuron(Neuron):
    """Computes ``1 - x`` (used by the GRU update gate blend)."""

    def forward(self):
        self.value = 1.0 - self.inputs[0][0]

    def backward(self):
        self.grad_inputs[0][0] += -self.grad


class DropoutNeuron(Neuron):
    """Inverted dropout: ``dropout(x)`` is ``x / keep`` where the
    ensemble's mask keeps this neuron, else 0. The mask is a hash of
    the neuron's index and the forward's key (see
    :func:`~repro.layers.DropoutLayer`), so backward re-evaluates the
    same mask instead of storing it."""

    def forward(self):
        self.value = dropout(self.inputs[0][0])  # noqa: F821

    def backward(self):
        self.grad_inputs[0][0] += dropout(self.grad)  # noqa: F821


class ScaleNeuron(Neuron):
    """Multiplies the input by a fixed per-neuron scale (identity copies,
    interpolation blends)."""

    scale = Field()

    def forward(self):
        self.value = self.inputs[0][0] * self.scale

    def backward(self):
        self.grad_inputs[0][0] += self.grad * self.scale


class SoftmaxLossNeuron(Neuron):
    """Softmax cross-entropy of the scores ``inputs[0]`` against the
    class index ``inputs[1][0]``, times ``scale`` (1/batch, so an
    ensemble's values sum to the batch mean). ``lse`` holds each item's
    log-sum-exp for the backward, which reads no ``self.grad``: a loss
    seeds back-propagation."""

    lse = Field(batch=True)
    scale = Field()

    def forward(self):
        # the log-sum-exp, shifted by the largest score
        self.lse = self.inputs[0][0]
        for i in range(len(self.inputs[0])):
            self.lse = max(self.lse, self.inputs[0][i])
        self.value = 0.0
        for i in range(len(self.inputs[0])):
            self.value += exp(self.inputs[0][i] - self.lse)  # noqa: F821
        self.lse += log(self.value)  # noqa: F821
        # minus the labelled score
        self.value = 0.0
        for i in range(len(self.inputs[0])):
            self.value += where(  # noqa: F821
                i == self.inputs[1][0],
                self.scale * (self.lse - self.inputs[0][i]), 0.0)

    def backward(self):
        # softmax minus the one-hot label
        for i in range(len(self.inputs[0])):
            self.grad_inputs[0][i] += self.scale * (
                exp(self.inputs[0][i] - self.lse)  # noqa: F821
                - where(i == self.inputs[1][0], 1.0, 0.0))  # noqa: F821
