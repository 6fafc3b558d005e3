"""Latte (PLDI 2016) reproduced in Python.

A domain-specific language, compiler, and runtime for deep neural
networks. Networks are expressed as ensembles of neurons with connections
described by mapping functions (§3); the compiler synthesizes loop nests,
applies shared-variable analysis, GEMM pattern matching, tiling,
cross-layer fusion and vectorization (§5); the runtime executes the
generated program and supports heterogeneous scheduling and (simulated)
distributed data-parallel training (§6).

Quick start::

    from repro import (Net, MemoryDataLayer, FullyConnectedLayer,
                       SoftmaxLossLayer, SGD, SolverParameters, LRPolicy,
                       MomPolicy, solve, Dataset)

    net = Net(8)
    data = MemoryDataLayer(net, "data", (784,))
    label = MemoryDataLayer(net, "label", (1,))
    ip1 = FullyConnectedLayer("ip1", net, data, 20)
    ip2 = FullyConnectedLayer("ip2", net, ip1, 10)
    loss = SoftmaxLossLayer("loss", net, ip2, label)
    cnet = net.init()

    params = SolverParameters(
        lr_policy=LRPolicy.Inv(0.01, 0.0001, 0.75),
        mom_policy=MomPolicy.Fixed(0.9),
        max_epoch=50,
        regu_coef=0.0005,
    )
    solve(SGD(params), cnet, train_dataset, output_ens="ip2")
"""

from repro.core import (
    ActivationEnsemble,
    Connection,
    DataEnsemble,
    Ensemble,
    Field,
    LossEnsemble,
    Net,
    Neuron,
    NormalizationEnsemble,
    Param,
    add_connections,
    all_to_all,
    init,
    one_to_one,
    spatial_window_2d,
    window_2d,
)
from repro.layers import (
    AddLayer,
    BatchNormLayer,
    ConvolutionLayer,
    DataAndLabelLayer,
    DropoutLayer,
    FullyConnectedEnsemble,
    FullyConnectedLayer,
    InnerProductLayer,
    LRNLayer,
    MaxPoolingLayer,
    MeanPoolingLayer,
    MemoryDataLayer,
    MulLayer,
    ReLULayer,
    SigmoidLayer,
    SoftmaxLayer,
    SoftmaxLossLayer,
    TanhLayer,
    top1_accuracy,
)
from repro.optim import CompilerOptions, compile_net
from repro.runtime import CompiledNet
from repro.solvers import (
    SGD,
    AdaDelta,
    AdaGrad,
    Adam,
    Dataset,
    LRPolicy,
    MomPolicy,
    Nesterov,
    RMSProp,
    SolverParameters,
    evaluate,
    solve,
)
from repro.trace import (
    CompileReport,
    NullTracer,
    ProfileReport,
    RecordingTracer,
    Tracer,
)

__version__ = "1.0.0"

# after __version__: cache keys embed it (repro.cache.key imports repro)
from repro.cache import CompileCache, compile_cached  # noqa: E402

__all__ = [
    "SGD",
    "ActivationEnsemble",
    "AdaDelta",
    "AdaGrad",
    "Adam",
    "AddLayer",
    "BatchNormLayer",
    "CompileCache",
    "CompileReport",
    "CompiledNet",
    "CompilerOptions",
    "Connection",
    "ConvolutionLayer",
    "DataAndLabelLayer",
    "DataEnsemble",
    "Dataset",
    "DropoutLayer",
    "Ensemble",
    "Field",
    "FullyConnectedEnsemble",
    "FullyConnectedLayer",
    "InnerProductLayer",
    "LRNLayer",
    "LRPolicy",
    "LossEnsemble",
    "MaxPoolingLayer",
    "MeanPoolingLayer",
    "MemoryDataLayer",
    "MomPolicy",
    "MulLayer",
    "Net",
    "Nesterov",
    "Neuron",
    "NormalizationEnsemble",
    "NullTracer",
    "Param",
    "ProfileReport",
    "RMSProp",
    "RecordingTracer",
    "ReLULayer",
    "SigmoidLayer",
    "SoftmaxLayer",
    "SoftmaxLossLayer",
    "SolverParameters",
    "TanhLayer",
    "Tracer",
    "add_connections",
    "all_to_all",
    "compile_cached",
    "compile_net",
    "evaluate",
    "init",
    "one_to_one",
    "solve",
    "spatial_window_2d",
    "top1_accuracy",
    "window_2d",
]
