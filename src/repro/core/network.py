"""The ``Net`` type (§3.4): a container of ensembles and connections.

Users add ensembles to a :class:`Net`, connect them with
:func:`add_connections`, and call :meth:`Net.init` (the paper's ``init``
routine) to compile the network to an executable
:class:`~repro.runtime.executor.CompiledNet` and allocate all buffers.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.connection import Connection
from repro.core.ensemble import AbstractEnsemble


class Net:
    """A neural network: ensembles plus connections (§3.4).

    Parameters
    ----------
    batch_size:
        Number of items processed per iteration. Networks are trained on
        batches to improve vectorization and parallelization (§2.5).
    time_steps:
        Unrolled sequence length for recurrent networks; 1 for
        feed-forward networks. Recurrent connections read values from the
        previous time step.
    """

    def __init__(self, batch_size: int = 1, time_steps: int = 1):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if time_steps < 1:
            raise ValueError("time_steps must be >= 1")
        self.batch_size = batch_size
        self.time_steps = time_steps
        self.ensembles: dict = {}  # name -> AbstractEnsemble, insertion order
        self.connections: list = []

    # -- construction ------------------------------------------------------

    def add_ensemble(self, ens: AbstractEnsemble) -> None:
        """Register an ensemble (called from ensemble constructors)."""
        if ens.name in self.ensembles:
            raise ValueError(f"duplicate ensemble name {ens.name!r}")
        self.ensembles[ens.name] = ens

    def add_connections(
        self,
        source: AbstractEnsemble,
        sink: AbstractEnsemble,
        mapping: Callable,
        recurrent: bool = False,
    ) -> Connection:
        """Connect ``source`` to ``sink`` via ``mapping`` (§3.3).

        ``mapping`` takes a sink neuron's coordinates and returns, per
        source dimension, an ``int`` or ``range`` of source coordinates.
        """
        for ens in (source, sink):
            if self.ensembles.get(ens.name) is not ens:
                raise ValueError(f"ensemble {ens.name!r} is not part of this net")
        conn = Connection(source, mapping, recurrent=recurrent,
                          index=len(sink.inputs))
        sink.inputs.append(conn)
        self.connections.append(conn)
        if recurrent and self.time_steps < 2:
            # Permitted for construction/inspection, but executing such a
            # net makes the recurrent input permanently zero.
            pass
        return conn

    # -- queries -------------------------------------------------------------

    def topological_order(self) -> list:
        """Ensembles in a feed-forward execution order.

        Recurrent connections are excluded from the edge set (they refer
        to the previous time step and cannot create scheduling cycles); a
        genuine cycle of non-recurrent connections is an error.
        """
        order, visiting, done = [], set(), set()
        for ens in self.ensembles.values():
            _visit(ens, order, visiting, done)
        return order

    def __getitem__(self, name: str) -> AbstractEnsemble:
        return self.ensembles[name]

    def __repr__(self) -> str:
        return (
            f"Net(batch={self.batch_size}, ensembles={len(self.ensembles)}, "
            f"connections={len(self.connections)})"
        )

    # -- compilation -----------------------------------------------------

    def init(self, options: Optional[object] = None, tracer=None,
             num_threads=None, keep_alive=None, watchdog=None,
             calibration=None):
        """Compile the network and allocate buffers (the paper's ``init``).

        Returns a :class:`~repro.runtime.executor.CompiledNet`. ``options``
        is a :class:`~repro.optim.pipeline.CompilerOptions`; the default
        applies every optimization (opt level O4). ``tracer`` (see
        :mod:`repro.trace`) enables runtime and compile-time tracing.
        ``num_threads`` enables batch-sharded thread-parallel execution
        of parallel-annotated steps (default: the ``REPRO_NUM_THREADS``
        environment variable, else serial). ``keep_alive`` restricts
        which ensembles stay inspectable under the memory planner, and
        ``watchdog`` attaches a numerics watchdog to the executor, and
        ``calibration`` supplies the activation-range profile required
        for ``options.precision='int8'`` (see
        :func:`repro.optim.pipeline.compile_net`).
        """
        from repro.optim.pipeline import compile_net

        return compile_net(self, options, tracer=tracer,
                           num_threads=num_threads, keep_alive=keep_alive,
                           watchdog=watchdog, calibration=calibration)


def _visit(ens, order: list, visiting: set, done: set) -> None:
    """Append ``ens`` to ``order`` after its non-recurrent sources."""
    if ens.name in done:
        return
    if ens.name in visiting:
        raise ValueError(
            f"cycle through ensemble {ens.name!r}; recurrent "
            f"connections must be marked recurrent=True"
        )
    visiting.add(ens.name)
    for conn in ens.inputs:
        if not conn.recurrent:
            _visit(conn.source, order, visiting, done)
    visiting.discard(ens.name)
    done.add(ens.name)
    order.append(ens)


def add_connections(net: Net, source, sink, mapping, recurrent: bool = False):
    """Module-level spelling matching the paper's
    ``add_connections(net, source, sink, mapping)`` (Fig. 2)."""
    return net.add_connections(source, sink, mapping, recurrent=recurrent)


def init(net: Net, options=None, tracer=None, num_threads=None,
         keep_alive=None, watchdog=None):
    """Module-level spelling of :meth:`Net.init`."""
    return net.init(options, tracer=tracer, num_threads=num_threads,
                    keep_alive=keep_alive, watchdog=watchdog)
