#!/usr/bin/env python
"""Serving quickstart: train, checkpoint, and serve the Fig. 7 MLP.

Trains the quickstart MLP for a few epochs, snapshots it with
``repro.serve.save_checkpoint``, cold-starts a dynamic-batching
:class:`~repro.serve.ModelServer` from the artifact (the way a fresh
process would), fires concurrent clients at it, and verifies the
batched outputs are bitwise-identical to a plain eval-mode forward::

    python examples/serve_quickstart.py

See docs/SERVING.md for the pieces used here, and ``python -m
repro.serve --checkpoint serve_quickstart.npz`` to put the same
artifact behind HTTP.
"""

import threading

import numpy as np

from repro import (
    SGD,
    LRPolicy,
    MomPolicy,
    SolverParameters,
    solve,
)
from repro.data import synthetic_mnist
from repro.models import build_latte, mlp_config
from repro.optim import CompilerOptions
from repro.serve import ModelServer, load_checkpoint, save_checkpoint
from repro.utils.rng import seed_all


def main():
    seed_all(0)
    config = mlp_config()

    # -- train (examples/quickstart.py, abbreviated) -----------------------
    built = build_latte(config, batch_size=8)
    cnet = built.init()
    params = SolverParameters(
        lr_policy=LRPolicy.Inv(0.01, 0.0001, 0.75),
        mom_policy=MomPolicy.Fixed(0.9),
        max_epoch=3,
        regu_coef=0.0005,
    )
    train, test = synthetic_mnist(1000, 200, flat=True)
    history = solve(SGD(params), cnet, train, test, output_ens="ip2")
    print(f"trained {len(history.losses)} epochs, "
          f"final loss {history.losses[-1]:.4f}, "
          f"test accuracy {history.test_accuracy[-1]:.2%}")

    # -- checkpoint --------------------------------------------------------
    path = save_checkpoint("serve_quickstart.npz", cnet, config=config,
                           output="ip2", epoch=len(history.losses))
    ck = load_checkpoint(path)
    print(f"checkpoint: {path} (version {ck.version}, "
          f"{len(ck.params)} parameter arrays)")

    # the serving reference: the training net itself, in eval mode
    cnet.training = False
    items = test.data[:32]
    reference = []
    for start in range(0, len(items), cnet.batch_size):
        chunk = items[start:start + cnet.batch_size]
        cnet.forward(data=chunk,
                     label=np.zeros((len(chunk), 1), np.float32))
        reference.append(cnet.value("ip2").copy())
    reference = np.concatenate(reference)

    # -- serve: cold-start from the artifact, as a fresh process would ----
    with ModelServer.from_checkpoint(path, batch_size=8, replicas=2,
                                     max_latency=0.002) as server:
        infer_stats = server.replicas[0].memory_stats()
        train_stats = cnet.memory_stats()
        print(f"forward-only arena: {infer_stats['planned_bytes']} bytes "
              f"vs {train_stats['planned_bytes']} for the train graph")

        results = [None] * len(items)

        def client(i):
            results[i] = server.predict(items[i])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(items))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        got = np.stack(results)
        assert np.array_equal(got, reference), \
            "batched serving must be bitwise-identical to a plain forward"
        print(f"{len(items)} concurrent requests: outputs bitwise-equal "
              f"to the eval-mode train graph")

        stats = server.stats()
        assert stats["errors"] == 0 and stats["alive"] == stats["replicas"]
        print(f"{stats['alive']} replicas, batches {stats['batches']}, "
              f"mean fill {stats['mean_batch_fill']:.0%}, "
              f"latency p50 {stats['latency_ms']['p50']}ms "
              f"p99 {stats['latency_ms']['p99']}ms")
    cnet.close()


if __name__ == "__main__":
    main()
