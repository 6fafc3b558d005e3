"""The Latte standard library: neuron types and layer constructors (§4)."""

from repro.layers.activation import (
    DropoutLayer,
    ReLULayer,
    SigmoidLayer,
    TanhLayer,
)
from repro.layers.concat import ConcatLayer
from repro.layers.convolution import ConvolutionLayer
from repro.layers.data import DataAndLabelLayer, MemoryDataLayer
from repro.layers.gru import GRUBlock, GRULayer
from repro.layers.lstm import LSTMBlock, LSTMLayer
from repro.layers.fully_connected import (
    FullyConnectedEnsemble,
    FullyConnectedLayer,
    InnerProductLayer,
)
from repro.layers.mathops import (
    Add3Layer,
    AddLayer,
    MulEnsemble,
    MulLayer,
    OneMinusLayer,
    SigmoidEnsemble,
    TanhEnsemble,
)
from repro.layers.metrics import top1_accuracy, topk_accuracy
from repro.layers.neurons import (
    Add3Neuron,
    AddNeuron,
    AvgNeuron,
    DropoutNeuron,
    MaxNeuron,
    MulNeuron,
    OneMinusNeuron,
    ReLUNeuron,
    ScaleNeuron,
    SigmoidNeuron,
    SoftmaxLossNeuron,
    TanhNeuron,
    WeightedNeuron,
)
from repro.layers.norm import BatchNormLayer, LRNLayer
from repro.layers.pooling import MaxPoolingLayer, MeanPoolingLayer
from repro.layers.softmax import SoftmaxLayer, SoftmaxLossLayer, softmax

__all__ = [
    "Add3Layer",
    "Add3Neuron",
    "AddLayer",
    "AddNeuron",
    "AvgNeuron",
    "BatchNormLayer",
    "ConcatLayer",
    "ConvolutionLayer",
    "DataAndLabelLayer",
    "DropoutLayer",
    "DropoutNeuron",
    "FullyConnectedEnsemble",
    "FullyConnectedLayer",
    "GRUBlock",
    "GRULayer",
    "InnerProductLayer",
    "LRNLayer",
    "LSTMBlock",
    "LSTMLayer",
    "MaxNeuron",
    "MaxPoolingLayer",
    "MeanPoolingLayer",
    "MemoryDataLayer",
    "MulEnsemble",
    "MulLayer",
    "MulNeuron",
    "OneMinusLayer",
    "OneMinusNeuron",
    "ReLULayer",
    "ReLUNeuron",
    "ScaleNeuron",
    "SigmoidEnsemble",
    "SigmoidLayer",
    "SigmoidNeuron",
    "SoftmaxLayer",
    "SoftmaxLossLayer",
    "SoftmaxLossNeuron",
    "TanhEnsemble",
    "TanhLayer",
    "TanhNeuron",
    "WeightedNeuron",
    "softmax",
    "top1_accuracy",
    "topk_accuracy",
]
