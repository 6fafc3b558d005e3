"""Latte runtime: buffer allocation, execution, heterogeneous scheduling,
and distributed data parallelism (§6)."""

from repro.runtime.accelerator import (
    ChunkAssignment,
    DeviceSpec,
    HeterogeneousScheduler,
    calibrate_host_rate,
    xeon_phi,
)
from repro.runtime.buffers import allocate
from repro.runtime.distributed import (
    ClusterSimulator,
    CommPoint,
    ComputeProfile,
    MultiThreadTrainer,
    scaling_efficiency,
    strong_scaling,
    weak_scaling,
)
from repro.runtime.executor import CompiledNet, ParamView
from repro.runtime.procpool import (
    AsyncLossy,
    DataParallelTrainer,
    LossyAccumulate,
    SharedParamBlock,
    SyncReduce,
)
from repro.runtime.worker import (
    ProcessPoolUnavailable,
    WorkerDiedError,
    WorkerError,
)
from repro.runtime.netsim import (
    NetworkModel,
    cori_aries,
    gigabit_ethernet,
    infiniband_fdr,
)

__all__ = [
    "AsyncLossy",
    "ChunkAssignment",
    "ClusterSimulator",
    "CommPoint",
    "CompiledNet",
    "ComputeProfile",
    "DataParallelTrainer",
    "DeviceSpec",
    "HeterogeneousScheduler",
    "LossyAccumulate",
    "MultiThreadTrainer",
    "NetworkModel",
    "ParamView",
    "ProcessPoolUnavailable",
    "SharedParamBlock",
    "SyncReduce",
    "WorkerDiedError",
    "WorkerError",
    "allocate",
    "calibrate_host_rate",
    "cori_aries",
    "gigabit_ethernet",
    "infiniband_fdr",
    "scaling_efficiency",
    "strong_scaling",
    "weak_scaling",
    "xeon_phi",
]
