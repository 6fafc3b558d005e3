"""Mapping-function introspection.

Connections in Latte are described by *mapping functions* from sink neuron
coordinates to per-dimension ranges of source coordinates (§3.3). The
compiler never evaluates the mapping once per neuron; it represents the
data-flow graph with *implicit adjacency lists* (§5.1) by probing the
mapping at a handful of sink indices and fitting an affine window model::

    start_d(sink) = offset_d + sum_i coeff[d][i] * sink_i      (length_d fixed)

The fitted model is verified on additional sample points; if verification
fails the connection falls back to a general gather with materialized
index arrays. The affine model is what powers shared-variable analysis
(§5.2): a sink dimension ``i`` with ``coeff[d][i] == 0`` for every source
dimension ``d`` does not change the input set — neurons along it share
their inputs, and the compiler drops that dimension from the input buffer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np


class MappingError(ValueError):
    """Raised when a mapping function is malformed (wrong arity, ranges
    with non-unit steps, non-uniform window sizes, out-of-domain types)."""


@dataclass(frozen=True)
class WindowDim:
    """Affine model of one source dimension of a window mapping."""

    offset: int
    coeffs: Tuple[int, ...]  # one per sink dimension
    length: int
    #: True when the user mapping returned a bare int for this dimension.
    scalar: bool = False

    def start_at(self, sink_index: Sequence[int]) -> int:
        """Window start coordinate for a concrete sink index."""
        return self.offset + sum(
            c * i for c, i in zip(self.coeffs, sink_index)
        )


@dataclass
class MappingInfo:
    """Result of analyzing one connection's mapping function."""

    kind: str  # 'one_to_one' | 'all_to_all' | 'window' | 'gather'
    source_shape: Tuple[int, ...]
    sink_shape: Tuple[int, ...]
    dims: Tuple[WindowDim, ...] = ()
    #: flat source indices for 'gather': shape (*sink_shape, window_size)
    gather_indices: Optional[np.ndarray] = None

    @property
    def window_shape(self) -> Tuple[int, ...]:
        if self.kind == "gather":
            return (self.gather_indices.shape[-1],)
        return tuple(d.length for d in self.dims)

    @property
    def window_size(self) -> int:
        return int(np.prod(self.window_shape))

    @property
    def shared_sink_dims(self) -> frozenset:
        """Sink dimensions along which all neurons share the same inputs
        (the droppable dimensions of §5.2)."""
        if self.kind == "all_to_all":
            return frozenset(range(len(self.sink_shape)))
        if self.kind != "window" and self.kind != "one_to_one":
            return frozenset()
        shared = set()
        for i in range(len(self.sink_shape)):
            if all(d.coeffs[i] == 0 for d in self.dims):
                shared.add(i)
        return frozenset(shared)

    @property
    def kept_sink_dims(self) -> Tuple[int, ...]:
        """Sink dimensions retained in the shared input buffer, in order."""
        shared = self.shared_sink_dims
        return tuple(i for i in range(len(self.sink_shape)) if i not in shared)

    def padding(self) -> Tuple[Tuple[int, int], ...]:
        """Per-source-dimension ``(pad_before, pad_after)`` needed so all
        window accesses land inside the (padded) source."""
        if self.kind != "window":
            return tuple((0, 0) for _ in self.source_shape)
        pads = []
        for d, wd in enumerate(self.dims):
            lo = wd.offset + sum(
                min(c * (s - 1), 0) for c, s in zip(wd.coeffs, self.sink_shape)
            )
            hi = (
                wd.offset
                + sum(max(c * (s - 1), 0) for c, s in zip(wd.coeffs, self.sink_shape))
                + wd.length
            )
            pads.append((max(0, -lo), max(0, hi - self.source_shape[d])))
        return tuple(pads)

    @property
    def needs_padding(self) -> bool:
        return any(b or a for b, a in self.padding())


def _normalize(result, source_shape) -> list:
    """Normalize a mapping result to a list of (start, length, scalar)."""
    if isinstance(result, (int, np.integer)):
        result = (int(result),)
    if not isinstance(result, (tuple, list)):
        raise MappingError(
            f"mapping must return a tuple of ints/ranges, got {type(result).__name__}"
        )
    if len(result) != len(source_shape):
        raise MappingError(
            f"mapping returned {len(result)} dimensions for a source of "
            f"rank {len(source_shape)}"
        )
    out = []
    for r in result:
        if isinstance(r, (int, np.integer)):
            out.append((int(r), 1, True))
        elif isinstance(r, range):
            if r.step != 1:
                raise MappingError("mapping ranges must have unit step")
            out.append((r.start, len(r), False))
        else:
            raise MappingError(
                f"mapping entries must be int or range, got {type(r).__name__}"
            )
    return out


def _probe_points(sink_shape, rng) -> list:
    """Sink indices used for fitting and verification."""
    ndim = len(sink_shape)
    origin = (0,) * ndim
    points = [origin]
    for i in range(ndim):
        if sink_shape[i] > 1:
            points.append(tuple(1 if j == i else 0 for j in range(ndim)))
    corner = tuple(s - 1 for s in sink_shape)
    points.append(corner)
    for _ in range(6):
        points.append(tuple(int(rng.integers(0, s)) for s in sink_shape))
    # a couple of mixed points exercise cross terms
    points.append(tuple(min(1, s - 1) for s in sink_shape))
    return points


def analyze_mapping(
    mapping: Callable,
    source_shape: Sequence[int],
    sink_shape: Sequence[int],
    allow_gather: bool = True,
) -> MappingInfo:
    """Fit and classify a connection's mapping function.

    Returns a :class:`MappingInfo` of kind ``one_to_one`` / ``all_to_all``
    / ``window`` when an affine window model verifies, else (when
    ``allow_gather``) a materialized ``gather``.
    """
    source_shape = tuple(int(d) for d in source_shape)
    sink_shape = tuple(int(d) for d in sink_shape)
    rng = np.random.default_rng(1234)
    ndim_sink = len(sink_shape)

    def evaluate(idx):
        return _normalize(mapping(*idx), source_shape)

    origin = evaluate((0,) * ndim_sink)
    dims = []
    affine = True
    for d in range(len(source_shape)):
        offset, length, scalar = origin[d]
        coeffs = []
        for i in range(ndim_sink):
            if sink_shape[i] > 1:
                e_i = tuple(1 if j == i else 0 for j in range(ndim_sink))
                start_i, length_i, _ = evaluate(e_i)[d]
                if length_i != length:
                    affine = False
                coeffs.append(start_i - offset)
            else:
                coeffs.append(0)
        dims.append(WindowDim(offset, tuple(coeffs), length, scalar))
    # verification
    if affine:
        for pt in _probe_points(sink_shape, rng):
            got = evaluate(pt)
            for d, wd in enumerate(dims):
                start, length, _ = got[d]
                if length != wd.length or start != wd.start_at(pt):
                    affine = False
                    break
            if not affine:
                break

    if affine:
        info = MappingInfo("window", source_shape, sink_shape, dims=tuple(dims))
        # refine classification
        if (
            all(d.length == s and d.offset == 0 for d, s in zip(dims, source_shape))
            and all(all(c == 0 for c in d.coeffs) for d in dims)
        ):
            info.kind = "all_to_all"
        elif (
            len(source_shape) == ndim_sink
            and source_shape == sink_shape
            and all(d.length == 1 and d.offset == 0 for d in dims)
            and all(
                d.coeffs == tuple(1 if i == j else 0 for i in range(ndim_sink))
                for j, d in enumerate(dims)
            )
        ):
            info.kind = "one_to_one"
        return info

    if not allow_gather:
        raise MappingError("mapping is not an affine window and gather is disabled")
    return _materialize_gather(mapping, source_shape, sink_shape, evaluate)


def _materialize_gather(mapping, source_shape, sink_shape, evaluate) -> MappingInfo:
    """Fallback: enumerate every sink neuron's flat source indices."""
    n_sink = int(np.prod(sink_shape))
    if n_sink > 1_000_000:
        raise MappingError(
            "non-affine mapping over more than 1e6 sink neurons; "
            "rewrite the mapping as an affine window"
        )
    window = None
    indices = None
    for flat, idx in enumerate(itertools.product(*(range(s) for s in sink_shape))):
        entries = evaluate(idx)
        coords = [range(start, start + length) for start, length, _ in entries]
        flat_ids = [
            int(np.ravel_multi_index(c, source_shape))
            for c in itertools.product(*coords)
        ]
        if window is None:
            window = len(flat_ids)
            indices = np.empty((n_sink, window), dtype=np.int64)
        elif len(flat_ids) != window:
            raise MappingError(
                "gather mappings must have a uniform window size across "
                "all sink neurons"
            )
        indices[flat] = flat_ids
    indices = indices.reshape(sink_shape + (window,))
    return MappingInfo(
        "gather", source_shape, sink_shape, gather_indices=indices
    )
