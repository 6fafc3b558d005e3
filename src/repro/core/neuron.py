"""The ``Neuron`` abstraction (§3.1).

A neuron type is a Python class deriving from :class:`Neuron`. Latte
provides four default fields — ``value``, ``grad`` (the paper's ∇),
``inputs`` and ``grad_inputs`` (∇inputs) — and the user declares any
additional per-neuron state as class-level :class:`Field` descriptors.
``forward`` and ``backward`` are written as ordinary Python methods in a
restricted subset; they are never executed directly. The compiler parses
their *source* (:mod:`repro.analysis.frontend`), converts the
array-of-structs references (``self.weights[i]``) to a struct-of-arrays
layout (Fig. 8), and synthesizes loop nests around them.

Example (the paper's Fig. 3 ``WeightedNeuron``)::

    class WeightedNeuron(Neuron):
        weights = Field()
        grad_weights = Field()
        bias = Field()
        grad_bias = Field()

        def forward(self):
            for i in range(len(self.inputs[0])):
                self.value += self.weights[i] * self.inputs[0][i]
            self.value += self.bias[0]

        def backward(self):
            for i in range(len(self.inputs[0])):
                self.grad_inputs[0][i] += self.weights[i] * self.grad
            for i in range(len(self.inputs[0])):
                self.grad_weights[i] += self.inputs[0][i] * self.grad
            self.grad_bias[0] += self.grad
"""

from __future__ import annotations

from typing import Optional


class Field:
    """Declares a per-neuron state field on a :class:`Neuron` subclass.

    Parameters
    ----------
    batch:
        If true, the field holds a distinct value for each item in the
        input batch (the paper's *Batch* fields, §3.1) — e.g. a stored
        pooling argmax. Batch fields get a leading batch
        axis in their backing array.
    doc:
        Optional human-readable description.
    """

    __slots__ = ("batch", "doc", "name")

    def __init__(self, batch: bool = False, doc: str = ""):
        self.batch = batch
        self.doc = doc
        self.name: Optional[str] = None  # filled by NeuronMeta

    def __repr__(self) -> str:
        kind = "Batch" if self.batch else "Field"
        return f"{kind}({self.name!r})"


#: Default field names every neuron has (§3.1). These are managed by the
#: runtime, not declared by users.
DEFAULT_FIELDS = ("value", "grad", "inputs", "grad_inputs")


class NeuronMeta(type):
    """Collects :class:`Field` declarations into ``cls.fields`` in
    declaration order and auto-generates a positional ``__init__`` so
    neuron instances can be built paper-style
    (``WeightedNeuron(weights[:, i], grad_weights[:, i], ...)``)."""

    def __new__(mcls, name, bases, namespace):
        fields = {}
        for base in bases:
            fields.update(getattr(base, "fields", {}))
        for attr, val in list(namespace.items()):
            if isinstance(val, Field):
                if attr in DEFAULT_FIELDS:
                    raise TypeError(
                        f"{attr!r} is a built-in neuron field and cannot be "
                        f"redeclared on {name}"
                    )
                val.name = attr
                fields[attr] = val
                del namespace[attr]
        namespace["fields"] = fields
        return super().__new__(mcls, name, bases, namespace)


class Neuron(metaclass=NeuronMeta):
    """Abstract base type for all neurons (§3.1).

    Subclasses declare extra fields with :class:`Field` and define
    ``forward`` / ``backward`` in the DSL subset. Instances are only
    materialized on the paper-faithful ``Ensemble.from_neurons`` path;
    the index-map path never instantiates neurons.
    """

    #: filled by NeuronMeta: mapping field name -> Field
    fields: dict = {}

    def __init__(self, *args, **kwargs):
        names = list(type(self).fields)
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__} takes at most {len(names)} field "
                f"values ({names}), got {len(args)}"
            )
        for name, val in zip(names, args):
            setattr(self, name, val)
        for name, val in kwargs.items():
            if name not in names:
                raise TypeError(f"{type(self).__name__} has no field {name!r}")
            setattr(self, name, val)

    def forward(self):  # pragma: no cover - parsed, never executed
        """Compute ``self.value`` from ``self.inputs`` (user-defined)."""
        raise NotImplementedError

    def backward(self):  # pragma: no cover - parsed, never executed
        """Propagate ``self.grad`` into ``self.grad_inputs`` and any
        parameter gradients (user-defined)."""
        raise NotImplementedError

    @classmethod
    def has_backward(cls) -> bool:
        """Whether this neuron type defines a backward function."""
        return cls.backward is not Neuron.backward
