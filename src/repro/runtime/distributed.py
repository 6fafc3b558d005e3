"""Distributed data parallelism on a virtual clock (§5.3, §6, §7.2).

Two components: :class:`ComputeProfile` measures one node's compute on
the real compiled network, and :class:`ClusterSimulator` is a
discrete-event model of cluster-level data parallelism. Each ensemble's
asynchronous gradient reduction is issued as soon as its parameter
gradients are final (§5.3): right after the last backward step that
writes them, a point :func:`reduction_points` reads off the compiled
backward schedule. The simulator replays exactly that schedule: compute
advances along the profiled backward timeline, each comm point enqueues
an allreduce on the NIC (serialized per node, overlapping subsequent
compute), and the iteration ends when both compute and the last reduction
finish. This is the substitution for the paper's MPI runs on Cori and the
commodity cluster (Figs. 18-19).

Data-parallel training on real workers is
:class:`repro.runtime.procpool.DataParallelTrainer`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.runtime.netsim import NetworkModel
from repro.runtime.procpool import (
    DataParallelTrainer,
    LossyAccumulate,
    SyncReduce,
)
from repro.trace import NULL_TRACER, RecordingTracer


# ---------------------------------------------------------------------------
# Compute profiling
# ---------------------------------------------------------------------------


@dataclass
class CommPoint:
    """One async-reduction issue point on the backward timeline."""

    #: fraction of total backward compute completed when this reduction
    #: is issued (0..1, §5.3: issued as soon as the gradient is ready)
    issue_fraction: float
    grad_bytes: int
    ensemble: str = ""


@dataclass
class ComputeProfile:
    """Linear-in-batch model of one node's compute, plus comm points.

    ``time(b) = base + per_image * b`` for each phase. The base term
    captures fixed per-iteration overhead, which is what makes small
    per-node batches less efficient (the Fig. 18 strong-scaling
    efficiency drop: "Latte is less efficient on smaller batch sizes due
    to the reduction in the amount of available parallelism").
    """

    forward_base: float
    forward_per_image: float
    backward_base: float
    backward_per_image: float
    comm_points: Tuple[CommPoint, ...]

    def forward_time(self, batch: int) -> float:
        return self.forward_base + self.forward_per_image * batch

    def backward_time(self, batch: int) -> float:
        return self.backward_base + self.backward_per_image * batch

    @classmethod
    def measure(cls, cnet, inputs: Dict[str, np.ndarray],
                cnet_small=None, inputs_small=None,
                repeats: int = 3) -> "ComputeProfile":
        """Profile a compiled net (optionally two batch sizes for the
        linear fit; with one size the base term is zero)."""
        fwd_t, bwd_t, points = _profile_once(cnet, inputs, repeats)
        b = cnet.batch_size
        if cnet_small is not None:
            fwd_s, bwd_s, _ = _profile_once(cnet_small, inputs_small, repeats)
            bs = cnet_small.batch_size
            f_per = max((fwd_t - fwd_s) / (b - bs), 1e-12)
            b_per = max((bwd_t - bwd_s) / (b - bs), 1e-12)
            f_base = max(fwd_t - f_per * b, 0.0)
            b_base = max(bwd_t - b_per * b, 0.0)
        else:
            f_per, b_per = fwd_t / b, bwd_t / b
            f_base = b_base = 0.0
        return cls(f_base, f_per, b_base, b_per, tuple(points))


def reduction_points(cnet) -> List[Tuple[int, str, Tuple[str, ...]]]:
    """Where §5.3's asynchronous gradient reductions are issued, in
    issue order: one ``(backward step index, ensemble, gradient
    buffers)`` per parameterised ensemble, right after the last
    backward step that writes one of its parameter gradients. A
    time-unrolled net runs its backward steps once per time step; the
    point is in the final (``t == 0``) iteration."""
    plan = cnet.plan
    grads: Dict[str, List[str]] = {}
    for p in plan.params:
        grads.setdefault(p.ensemble, []).append(p.grad_buf)
    last: Dict[str, int] = {}
    for idx, step in enumerate(cnet.compiled.backward):
        for ens, bufs in grads.items():
            if any(plan.resolve_alias(b) in step.writes for b in bufs):
                last[ens] = idx
    return sorted(((idx, ens, tuple(grads[ens]))
                   for ens, idx in last.items()), key=lambda p: p[0])


def _profile_once(cnet, inputs, repeats):
    for name, arr in inputs.items():
        cnet.set_input(name, arr)
    # warm up
    cnet.forward()
    cnet.backward()

    fwd = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        cnet.forward()
        fwd += time.perf_counter() - t0
    fwd /= repeats

    # one traced backward: the step spans time the compute in timeline
    # order; ends[i] is the compute done when step i of the final
    # (t == 0) iteration finishes
    tracer, rec = cnet.tracer, RecordingTracer()
    cnet.tracer = rec
    try:
        cnet.backward()
    finally:
        cnet.tracer = tracer
    done, ends = 0.0, []
    for span in rec.spans:
        if not span.args.get("shard"):  # shard 0 times a sharded step
            done += span.dur
            if span.t == 0:
                ends.append(done)
    total = done or 1e-9
    points = [CommPoint(ends[idx] / total,
                        sum(cnet.buffers[g].nbytes for g in grads), ens)
              for idx, ens, grads in reduction_points(cnet)]
    return fwd, total, points


# ---------------------------------------------------------------------------
# Cluster simulation
# ---------------------------------------------------------------------------


class ClusterSimulator:
    """Discrete-event model of overlapped async gradient summation.

    With a :class:`repro.trace.RecordingTracer` attached, each
    :meth:`iteration_time` call emits its compute segments
    (``sim.compute``) and every allreduce (``sim.comm``) as spans on the
    simulator's *virtual* timeline, making the Fig. 17-19 comm/compute
    overlap story directly inspectable in the Chrome trace viewer.
    """

    def __init__(self, profile: ComputeProfile, network: NetworkModel,
                 n_nodes: int, tracer=None):
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.profile = profile
        self.network = network
        self.n_nodes = n_nodes
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def iteration_time(self, batch_per_node: int) -> float:
        """Virtual seconds for one data-parallel training iteration."""
        p = self.profile
        tracer = self.tracer
        t = p.forward_time(batch_per_node)
        bwd = p.backward_time(batch_per_node)
        if tracer.enabled:
            tracer.add_span("forward", "sim.compute", 0.0, t,
                            nodes=self.n_nodes, batch=batch_per_node)
            tracer.add_span("backward", "sim.compute", t, bwd,
                            nodes=self.n_nodes, batch=batch_per_node)
        nic_free = t
        last_comm = t
        for point in p.comm_points:
            issue = t + point.issue_fraction * bwd
            start = max(issue, nic_free)
            finish = start + self.network.allreduce_time(
                point.grad_bytes, self.n_nodes
            )
            if tracer.enabled:
                tracer.add_span(
                    f"allreduce({point.ensemble})", "sim.comm",
                    start, finish - start,
                    bytes=point.grad_bytes, issued_at=issue,
                    nodes=self.n_nodes,
                )
            nic_free = finish
            last_comm = finish
        compute_done = t + bwd
        return max(compute_done, last_comm)

    def throughput(self, batch_per_node: int) -> float:
        """Sustained images/second across the cluster."""
        return (
            self.n_nodes * batch_per_node / self.iteration_time(batch_per_node)
        )


def strong_scaling(profile: ComputeProfile, network: NetworkModel,
                   total_batch: int, nodes: Sequence[int]) -> Dict[int, float]:
    """Fig. 18: fixed global batch evenly partitioned across nodes.

    Returns node count → throughput (images/s)."""
    out = {}
    for n in nodes:
        if total_batch % n:
            raise ValueError(f"{total_batch} does not divide across {n} nodes")
        sim = ClusterSimulator(profile, network, n)
        out[n] = sim.throughput(total_batch // n)
    return out


def weak_scaling(profile: ComputeProfile, network: NetworkModel,
                 batch_per_node: int, nodes: Sequence[int]) -> Dict[int, float]:
    """Fig. 19: fixed per-node batch; ideal is linear in node count."""
    return {
        n: ClusterSimulator(profile, network, n).throughput(batch_per_node)
        for n in nodes
    }


def scaling_efficiency(throughputs: Dict[int, float],
                       weak: bool = False) -> Dict[int, float]:
    """Efficiency relative to linear scaling from the smallest point."""
    n0 = min(throughputs)
    base = throughputs[n0] / n0
    return {n: tp / (n * base) for n, tp in throughputs.items()}


def MultiThreadTrainer(build_fn: Callable[[], object], n_workers: int,
                       lossy: bool) -> DataParallelTrainer:
    """:class:`~repro.runtime.procpool.DataParallelTrainer` over threads,
    under the name ``benchmarks/ledger/extras.py`` and Fig. 20 import —
    delete with the Ledger v2 PR. ``build_fn()`` must compile an
    identical net each call; ``.master`` is the parent replica."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    replicas = [build_fn() for _ in range(n_workers)]
    trainer = DataParallelTrainer(
        replicas[0], policy=LossyAccumulate() if lossy else SyncReduce(),
        replicas=replicas)
    trainer.master, trainer.replicas = replicas[0], replicas
    return trainer
