"""Ensembles — homogeneous collections of neurons (§3.2).

An :class:`Ensemble` is a rank-N array of neurons of a single type. The
uniformity of the activation function across the ensemble is what lets the
compiler synthesize one loop nest per ensemble and optimize it (§5).

Two construction paths are provided:

* **Index-map path** (used for large ensembles such as convolution
  layers): per-neuron state is given directly as struct-of-arrays
  :class:`FieldBinding`\\ s, where a *pattern* describes how a neuron's
  coordinates select its portion of the backing array. The pattern makes
  parameter sharing explicit — dimensions absent from the pattern are
  shared across those ensemble dimensions, exactly the facts the paper's
  shared-variable analysis (§5.2) recovers.

* **Paper-faithful path** (``Ensemble.from_neurons``): an object array of
  neuron *instances*, each holding NumPy views into common parameter
  buffers (the paper's Fig. 4 builds a FullyConnectedLayer this way with
  ``weights[:, i]`` column views). The compiler detects the aliasing
  structure of those views — the Python analogue of the paper's shared
  variable analysis over Julia arrays — and recovers the same
  :class:`FieldBinding` representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.neuron import Neuron

DTYPE = np.float32


class _Vec:
    """Pattern marker: a free axis of the field array, consumed by the
    user's subscripts (``self.weights[i]`` consumes the first VEC axis)."""

    def __repr__(self) -> str:
        return "VEC"


VEC = _Vec()


@dataclass(frozen=True)
class Dim:
    """Pattern marker: this field-array axis is indexed by ensemble
    dimension ``index`` of the neuron's coordinates."""

    index: int

    def __repr__(self) -> str:
        return f"Dim({self.index})"


@dataclass
class FieldBinding:
    """Struct-of-arrays backing store for one neuron field.

    ``pattern`` has one entry per axis of ``array``: :data:`VEC`, a
    :class:`Dim`, or an ``int`` constant. For batch fields the leading
    batch axis is implicit (allocated by the runtime) and must *not*
    appear in the pattern. A parameter's gradient is declared with a
    ``shape`` and no array: a training compile allocates it.
    """

    array: Optional[np.ndarray]
    pattern: tuple
    batch: bool = False
    #: the array's shape, given on its own by a declaration with no array
    shape: Optional[tuple] = None

    def __post_init__(self):
        if self.array is not None:
            self.shape = self.array.shape
        if len(self.pattern) != len(self.shape):
            raise ValueError(
                f"pattern rank {len(self.pattern)} does not match array "
                f"rank {len(self.shape)}"
            )

    @property
    def vec_axes(self) -> tuple:
        """Axes of the array consumed by user subscripts, in order."""
        return tuple(i for i, p in enumerate(self.pattern) if p is VEC)

    def shared_dims(self, ensemble_ndim: int) -> frozenset:
        """Ensemble dimensions this field is *shared* across (§5.2) —
        those not mentioned in the pattern."""
        used = {p.index for p in self.pattern if isinstance(p, Dim)}
        return frozenset(set(range(ensemble_ndim)) - used)


@dataclass
class Param:
    """Marks a field as a learnable parameter (paper Fig. 4:
    ``Param(:weights, 1.0)``). ``grad_name`` defaults to ``grad_<name>``,
    a field the neuron type declares and the layer leaves unbound: the
    ensemble declares it with the value's shape and pattern, no array.
    ``lr_mult`` scales the solver's learning rate for this parameter."""

    name: str
    lr_mult: float = 1.0
    grad_name: Optional[str] = None

    def __post_init__(self):
        if self.grad_name is None:
            self.grad_name = f"grad_{self.name}"


class AbstractEnsemble:
    """Common interface of all ensemble kinds."""

    def __init__(self, net, name: str, shape: Sequence[int]):
        if not name.isidentifier():
            raise ValueError(f"ensemble name must be an identifier: {name!r}")
        self.name = name
        self.shape = tuple(int(d) for d in shape)
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"ensemble shape must be positive: {self.shape}")
        self.inputs: list = []  # Connections into this ensemble, in order
        net.add_ensemble(self)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, shape={self.shape})"


class Ensemble(AbstractEnsemble):
    """A rank-N array of neurons of one type (§3.2)."""

    def __init__(
        self,
        net,
        name: str,
        neuron_type: type,
        shape: Sequence[int],
        fields: Optional[dict] = None,
        params: Sequence[Param] = (),
    ):
        if not (isinstance(neuron_type, type) and issubclass(neuron_type, Neuron)):
            raise TypeError("neuron_type must be a Neuron subclass")
        super().__init__(net, name, shape)
        self.neuron_type = neuron_type
        self.field_bindings: dict = dict(fields or {})
        self.params: tuple = tuple(params)
        for p in self.params:
            if p.name not in self.field_bindings:
                raise ValueError(f"Param refers to unknown field {p.name!r}")
            if p.grad_name in self.field_bindings:
                raise ValueError(
                    f"Param {p.name!r}: gradient field {p.grad_name!r} is "
                    f"allocated by the training compile, not bound")
            value = self.field_bindings[p.name]
            self.field_bindings[p.grad_name] = FieldBinding(
                None, value.pattern, shape=value.shape)
        declared = set(neuron_type.fields)
        bound = set(self.field_bindings)
        if bound - declared:
            raise ValueError(
                f"fields {sorted(bound - declared)} are not declared on "
                f"{neuron_type.__name__}"
            )
        if declared - bound:
            raise ValueError(
                f"missing bindings for declared fields "
                f"{sorted(declared - bound)} of {neuron_type.__name__}"
            )
        for fname, binding in self.field_bindings.items():
            if neuron_type.fields[fname].batch != binding.batch:
                raise ValueError(
                    f"field {fname!r}: batch flag of binding does not match "
                    f"declaration"
                )

    # -- paper-faithful construction -------------------------------------

    @classmethod
    def from_neurons(
        cls, net, name: str, neurons, params: Sequence[Param] = ()
    ) -> "Ensemble":
        """Build an ensemble from an array of neuron instances (Fig. 4).

        Field arrays that are NumPy views into a common base (e.g. column
        views ``weights[:, i]``) are detected and mapped back onto the
        shared base with the appropriate index pattern, so neurons that
        alias parameters genuinely share them. A field whose array is the
        *same object* for every neuron is fully shared. Otherwise the
        per-neuron arrays are stacked into a new base (not shared). A
        parameter's gradient field is never read off the neurons: the
        ensemble declares it (see :class:`Param`).

        Alias detection currently supports rank-1 ensembles, the only
        place the standard library uses this path (fully-connected
        layers).
        """
        arr = np.asarray(neurons, dtype=object)
        flat = arr.ravel()
        if flat.size == 0:
            raise ValueError("cannot build an ensemble from zero neurons")
        ntype = type(flat[0])
        if not all(type(n) is ntype for n in flat):
            raise TypeError(
                "all neurons in an ensemble must have the same type (§3.2)"
            )
        grads = {p.grad_name for p in params}
        fields = {}
        for fname, fdecl in ntype.fields.items():
            if fname in grads:
                continue
            views = [np.asarray(getattr(n, fname), dtype=DTYPE) for n in flat]
            fields[fname] = _bind_views(fname, views, arr.shape, fdecl.batch)
        return cls(net, name, ntype, arr.shape, fields=fields, params=params)


def _data_ptr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _bind_views(fname, views, ens_shape, batch) -> FieldBinding:
    """Recover a FieldBinding from per-neuron field arrays (alias
    analysis of ``Ensemble.from_neurons``)."""
    first = views[0]
    # Case 1: every neuron holds the very same array object -> fully shared.
    if all(v is first for v in views):
        return FieldBinding(first, (VEC,) * first.ndim, batch=batch)

    def ultimate_base(a):
        while a.base is not None:
            a = a.base
        return a

    roots = {id(ultimate_base(v)) for v in views}
    shares = (
        len(roots) == 1 and views[0].base is not None
    ) or any(np.may_share_memory(first, v) for v in views[1:])

    # Case 2: uniform strided views of a common allocation (rank-1
    # ensembles): reconstruct the shared base with stride analysis.
    if len(ens_shape) == 1 and shares:
        ptrs = [_data_ptr(v) for v in views]
        deltas = {b - a for a, b in zip(ptrs, ptrs[1:])}
        uniform = (
            len(deltas) == 1
            and all(v.shape == first.shape for v in views)
            and all(v.strides == first.strides for v in views)
            and all(v.dtype == first.dtype for v in views)
        )
        if uniform:
            delta = deltas.pop()
            base = np.lib.stride_tricks.as_strided(
                views[0],
                shape=first.shape + (len(views),),
                strides=first.strides + (delta,),
            )
            pattern = (VEC,) * first.ndim + (Dim(0),)
            return FieldBinding(base, pattern, batch=batch)
        raise ValueError(
            f"field {fname!r}: neurons hold overlapping views with a "
            f"non-uniform layout; sharing cannot be represented"
        )
    if shares:
        raise ValueError(
            f"field {fname!r}: aliased neuron fields are only supported "
            f"for rank-1 ensembles"
        )

    # Case 3: independent arrays -> stack into a fresh base (no sharing).
    stacked = np.stack([v for v in views], axis=-1).reshape(
        first.shape + tuple(ens_shape)
    )
    stacked = np.ascontiguousarray(stacked, dtype=DTYPE)
    pattern = (VEC,) * first.ndim + tuple(Dim(k) for k in range(len(ens_shape)))
    return FieldBinding(stacked, pattern, batch=batch)


class ActivationEnsemble(Ensemble):
    """Applies an activation neuron over an existing ensemble (§3.2).

    Latte constructs a new ensemble with the same shape as ``source`` and
    a one-to-one connection; using this type tells the compiler the
    forward and backward computations may run *in place* on the source's
    buffers (the in-place pass, enabled at opt level O3+).
    """

    def __init__(self, net, name, neuron_type, source: AbstractEnsemble,
                 fields: Optional[dict] = None, params: Sequence[Param] = ()):
        super().__init__(net, name, neuron_type, source.shape,
                         fields=fields, params=params)
        from repro.core.connection import one_to_one

        self.source = source
        net.add_connections(source, self, one_to_one(source.ndim))


class NormalizationEnsemble(AbstractEnsemble):
    """Whole-array operations on an ensemble's output (§3.2).

    ``forward_fn(out, ins, stats, training)`` writes the output array
    given the list of input value arrays; ``backward_fn(in_grads,
    out_grad, ins, out, stats, training)`` accumulates into the input
    gradient arrays. ``stats`` maps each name of ``stats`` (model
    arrays the ensemble owns, e.g. batch norm's running statistics:
    float32, unbatched) to its program buffer; ``training`` is the
    executor's mode. Nothing else survives a call: a backward
    recomputes what it needs from ``ins``. These ensembles are fusion
    barriers (§5.5) and are executed as-is rather than synthesized.
    """

    def __init__(
        self,
        net,
        name: str,
        shape: Sequence[int],
        forward_fn: Callable,
        backward_fn: Optional[Callable] = None,
        stats: Optional[dict] = None,
    ):
        super().__init__(net, name, shape)
        self.forward_fn = forward_fn
        self.backward_fn = backward_fn
        self.stats = dict(stats or {})


class LossEnsemble(Ensemble):
    """A neuron ensemble whose values, summed, are the training loss
    (``CompiledNet.loss``). Its backward seeds back-propagation, so it
    has no gradient of its own; a forward-only compile leaves it out."""


class DataEnsemble(AbstractEnsemble):
    """An input ensemble whose value is set by the runtime each iteration
    (the role of the paper's HDF5DataLayer, backed here by in-memory
    arrays)."""

    def __init__(self, net, name, shape):
        super().__init__(net, name, shape)
