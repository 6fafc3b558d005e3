#!/usr/bin/env python
"""Quickstart: the paper's Fig. 7 multi-layer perceptron, end to end.

Builds a two-layer MLP in the Latte DSL, compiles it, and trains it with
SGD on a synthetic MNIST-like dataset (the paper reads the same shapes
from HDF5 files)::

    python examples/quickstart.py
"""

from repro import (
    SGD,
    FullyConnectedLayer,
    LRPolicy,
    MemoryDataLayer,
    MomPolicy,
    Net,
    RecordingTracer,
    SoftmaxLossLayer,
    SolverParameters,
    solve,
)
from repro.data import synthetic_mnist
from repro.utils.rng import seed_all


def main():
    seed_all(0)

    # -- network definition (paper Fig. 7) --------------------------------
    net = Net(8)
    data = MemoryDataLayer(net, "data", (784,))
    label = MemoryDataLayer(net, "label", (1,))
    ip1 = FullyConnectedLayer("ip1", net, data, 20)
    ip2 = FullyConnectedLayer("ip2", net, ip1, 10)
    SoftmaxLossLayer("loss", net, ip2, label)

    # -- compile: synthesis + optimization + code generation --------------
    # the tracer records compiler passes, runtime steps, and training
    # metrics on one timeline (repro.trace; omit it for zero overhead)
    tracer = RecordingTracer()
    cnet = net.init(tracer=tracer)
    print(cnet.summary())
    print("\ncompiled steps (forward):")
    for step in cnet.compiled.forward:
        print(f"  {step.name:10s} {step.label}")
    print("\nwhat each compiler pass did:")
    print(cnet.compile_report)

    # -- train with the paper's solver configuration ----------------------
    params = SolverParameters(
        lr_policy=LRPolicy.Inv(0.01, 0.0001, 0.75),
        mom_policy=MomPolicy.Fixed(0.9),
        max_epoch=10,
        regu_coef=0.0005,
    )
    sgd = SGD(params)
    train, test = synthetic_mnist(1000, 200, flat=True)
    history = solve(sgd, cnet, train, test, output_ens="ip2")

    for epoch, (loss, acc) in enumerate(
        zip(history.losses, history.test_accuracy), start=1
    ):
        print(f"epoch {epoch:2d}: loss {loss:.4f}  test accuracy {acc:.2%}")

    # -- where did the time go? -------------------------------------------
    print("\nruntime profile (top steps):")
    print(cnet.profile().table(max_rows=6))
    path = tracer.export_chrome_trace("quickstart_trace.json")
    print(f"\nfull timeline written to {path} (open in chrome://tracing)")


if __name__ == "__main__":
    main()
