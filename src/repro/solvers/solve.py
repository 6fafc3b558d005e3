"""The training loop — the paper's ``solve(solver, net)`` (Fig. 7)."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.layers.metrics import top1_accuracy
from repro.trace import NULL_TRACER
from repro.utils.rng import get_rng


@dataclass
class Dataset:
    """A labeled in-memory dataset (replaces the paper's HDF5 files)."""

    data: np.ndarray  # (N, *item_shape)
    labels: np.ndarray  # (N,) or (N, 1)

    def __post_init__(self):
        self.labels = np.asarray(self.labels).reshape(len(self.data), 1)

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class TrainHistory:
    """Per-epoch training record returned by :func:`solve`."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)


def _batches(n: int, batch_size: int, rng, shuffle: bool):
    idx = np.arange(n)
    if shuffle:
        rng.shuffle(idx)
    for start in range(0, n - batch_size + 1, batch_size):
        yield idx[start : start + batch_size]


def evaluate(cnet, dataset: Dataset, output_ens: str,
             data_name: str = "data", label_name: str = "label") -> float:
    """Top-1 accuracy of ``cnet`` on ``dataset`` (inference mode)."""
    was_training = cnet.training
    cnet.training = False
    correct, total = 0.0, 0
    try:
        for sel in _batches(len(dataset), cnet.batch_size, get_rng(), False):
            cnet.forward(**{data_name: dataset.data[sel],
                            label_name: dataset.labels[sel]})
            scores = cnet.value(output_ens)
            correct += top1_accuracy(scores, dataset.labels[sel]) * len(sel)
            total += len(sel)
    finally:
        cnet.training = was_training
    return correct / max(total, 1)


def solve(
    solver,
    cnet,
    train: Dataset,
    test: Optional[Dataset] = None,
    output_ens: Optional[str] = None,
    data_name: str = "data",
    label_name: str = "label",
    epochs: Optional[int] = None,
    shuffle: bool = True,
    workers: Optional[int] = None,
    reduce_policy=None,
    rng=None,
    tracer=None,
    monitor=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    checkpoint_config=None,
) -> TrainHistory:
    """Train ``cnet`` on ``train`` with ``solver``.

    Runs ``epochs`` (default ``solver.params.max_epoch``) passes of
    forward → backward → update over shuffled mini-batches, optionally
    evaluating top-1 accuracy on ``test`` after each epoch when
    ``output_ens`` names the score-producing ensemble.

    ``tracer`` records one ``train``-category ``epoch`` span per epoch,
    with the mean ``iteration_time`` among its args (loss and accuracies
    are in the returned history); it defaults to the network's attached
    tracer so step spans and epoch spans land on the same timeline.

    ``monitor`` optionally attaches a
    :class:`repro.telemetry.TrainingMonitor`: after every epoch it
    records loss / gradient-norm / throughput series (mirrored into a
    metrics registry when the monitor has one) and raises
    :class:`repro.telemetry.DivergenceError` when the loss goes
    non-finite or rises monotonically over its window — the training
    health watchdog (see docs/OBSERVABILITY.md).

    ``checkpoint_every=N`` writes a :mod:`repro.serve.checkpoint`
    artifact to ``checkpoint_path`` after every N completed epochs
    (atomically — an interrupt mid-write never corrupts the last good
    snapshot), capturing parameters, solver state, the RNG stream, and
    the history so far; ``checkpoint_config`` optionally embeds the
    :class:`~repro.models.ModelConfig` so the artifact can also
    cold-start a server. ``resume_from=`` restores all of that and
    continues from the recorded epoch: the loss trajectory of an
    interrupted-and-resumed run is bitwise-identical to an
    uninterrupted one (pinned in tests/test_checkpoint.py), because the
    shuffle/dropout RNG state is restored *in place* on the shared
    library generator.

    ``workers=N`` trains data-parallel across N forked worker
    processes sharing parameter memory
    (:class:`repro.runtime.DataParallelTrainer`): each epoch's micro-batches
    are formed exactly as the serial loop forms them, then dealt to the
    workers under ``reduce_policy`` —
    :class:`~repro.runtime.SyncReduce` (default; deterministic tree
    reduction, one update per round of N batches, and at ``workers=1``
    bitwise-identical to the serial loop) or
    :class:`~repro.runtime.AsyncLossy` (the paper's §7 lossy updates).
    Evaluation, monitors, and checkpoints all run on the parent's
    replica, which shares the live parameter block; when training
    finishes the net holds owned copies of the trained values, not the
    arrays it was built with (a ``Checkpoint`` it was built from keeps
    the old values). See docs/DISTRIBUTED.md.
    """
    rng = rng or get_rng()
    epochs = epochs if epochs is not None else solver.params.max_epoch
    if tracer is None:
        tracer = getattr(cnet, "tracer", None) or NULL_TRACER
    if checkpoint_every is not None and checkpoint_path is None:
        raise ValueError("checkpoint_every= needs checkpoint_path=")
    if reduce_policy is not None and workers is None:
        raise ValueError("reduce_policy= needs workers=")
    hist = TrainHistory()
    start_epoch = 0
    if resume_from is not None:
        from repro.serve.checkpoint import load_checkpoint

        ck = load_checkpoint(resume_from)
        ck.restore_params(cnet)
        if ck.meta.get("solver") is not None:
            ck.restore_solver(solver)
        if ck.meta.get("rng_state") is not None:
            ck.restore_rng(rng)
        saved = ck.history
        if saved is not None:
            hist.losses.extend(saved["losses"])
            hist.train_accuracy.extend(saved["train_accuracy"])
            hist.test_accuracy.extend(saved["test_accuracy"])
        start_epoch = ck.epoch
    cnet.training = True
    trainer = None
    if workers is not None:
        # created after any resume_from restore so the shared block is
        # loaded from the restored parameters
        from repro.runtime.procpool import DataParallelTrainer

        trainer = DataParallelTrainer(cnet, workers, reduce_policy)
    try:
        for _epoch in range(start_epoch, epochs):
            span_t0 = tracer.now()
            epoch_t0 = time.perf_counter() if monitor is not None else 0.0
            if trainer is not None:
                mean_loss = trainer.train_epoch(
                    solver, train.data, train.labels, data_name,
                    label_name, rng=rng, shuffle=shuffle,
                )
                n_batches = trainer.last_batches
            else:
                epoch_loss, n_batches = 0.0, 0
                for sel in _batches(len(train), cnet.batch_size, rng,
                                    shuffle):
                    loss = cnet.forward(**{data_name: train.data[sel],
                                           label_name: train.labels[sel]})
                    cnet.clear_param_grads()
                    cnet.backward()
                    solver.update(cnet)
                    epoch_loss += loss
                    n_batches += 1
                mean_loss = epoch_loss / max(n_batches, 1)
            iteration_time = (tracer.now() - span_t0) / max(n_batches, 1)
            hist.losses.append(mean_loss)
            if monitor is not None:
                monitor.on_epoch(
                    _epoch, mean_loss, rows=n_batches * cnet.batch_size,
                    seconds=time.perf_counter() - epoch_t0, cnet=cnet,
                )
            if output_ens is not None:
                hist.train_accuracy.append(
                    evaluate(cnet, train, output_ens, data_name,
                             label_name)
                )
                if test is not None:
                    hist.test_accuracy.append(
                        evaluate(cnet, test, output_ens, data_name,
                                 label_name)
                    )
            tracer.add_span("epoch", "train", span_t0,
                            tracer.now() - span_t0, epoch=_epoch,
                            iteration_time=iteration_time)
            if (checkpoint_every is not None
                    and (_epoch + 1) % checkpoint_every == 0):
                from repro.serve.checkpoint import save_checkpoint

                save_checkpoint(
                    checkpoint_path, cnet, config=checkpoint_config,
                    output=output_ens, solver=solver, epoch=_epoch + 1,
                    history=hist, rng=rng,
                )
    finally:
        if trainer is not None:
            trainer.close()
    return hist
