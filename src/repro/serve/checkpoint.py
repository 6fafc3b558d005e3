"""Versioned model checkpoints: one ``.npz`` artifact per snapshot.

A checkpoint bundles everything needed to reconstruct a trained network
in a fresh process:

* every parameter array, keyed by the solver-facing ``ensemble.field``
  names of :meth:`CompiledNet.parameters`;
* a JSON metadata record — format tag, version, batch size, output
  ensemble, completed-epoch counter, and a *builder* description of the
  architecture (a type-tagged :class:`~repro.models.ModelConfig`
  rendering, or a fuzz-generator ``NetSpec``) so the net can be rebuilt
  without the code that first constructed it;
* optionally: per-parameter solver state (momentum buffers etc.) plus
  the library RNG state and loss history, which is what makes a resumed
  training run bitwise-identical to an uninterrupted one (see
  ``solve(checkpoint_every=...)``).

Versioning policy: ``VERSION`` is bumped when the layout changes in a
way old readers cannot handle. Readers accept any file whose major
format tag matches and whose version is ≤ theirs; newer files are
refused with an actionable error rather than misread. Unknown metadata
keys are ignored, so additive changes do not need a bump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.cache.key import BUILDER_KINDS, as_builder, build_from
from repro.core.network import ParamSourceError
from repro.utils.npz import load_npz, save_npz

FORMAT = "latte-checkpoint"
VERSION = 1

_META_KEY = "__meta__"
_PARAM_PREFIX = "param/"
_SOLVER_PREFIX = "solver/"


class CheckpointError(RuntimeError):
    """Malformed, incompatible, or mismatched checkpoint artifact."""


def _mismatch(missing=(), extra=()) -> CheckpointError:
    clauses = [f"net wants {missing} the checkpoint lacks"] if missing else []
    if extra:
        clauses.append(f"checkpoint carries {extra} the net lacks")
    return CheckpointError("parameter mismatch: " + "; ".join(clauses))


def _shape_error(key, checkpoint_shape, net_shape) -> CheckpointError:
    return CheckpointError(f"parameter {key!r}: checkpoint shape "
                           f"{checkpoint_shape} vs net shape {net_shape}")


def _solver_key(param_key: str, slot: str) -> str:
    return f"{_SOLVER_PREFIX}{param_key}/{slot}"


def save_checkpoint(
    path: str,
    cnet,
    *,
    config=None,
    spec=None,
    output: Optional[str] = None,
    solver=None,
    epoch: int = 0,
    history=None,
    rng=None,
) -> str:
    """Write one ``.npz`` checkpoint of ``cnet`` to ``path``.

    ``config`` (a :class:`~repro.models.ModelConfig`) or ``spec`` (a
    ``repro.testing.generator.NetSpec``) records how to rebuild the
    architecture; pass one of them if the checkpoint must cold-start a
    server in a fresh process. ``solver``/``history``/``rng`` capture
    training-loop state for bitwise-identical resume; ``epoch`` is the
    number of *completed* epochs. The file is written atomically
    (temp file + rename), so a checkpoint interrupted mid-write never
    replaces a good one.
    """
    if config is not None and spec is not None:
        raise ValueError("pass config= or spec=, not both")
    model = config if config is not None else spec
    builder = as_builder(model) if model is not None else None

    arrays: Dict[str, np.ndarray] = {}
    param_meta = []
    for p in cnet.parameters():
        arrays[_PARAM_PREFIX + p.key] = p.value
        param_meta.append({"key": p.key, "shape": list(p.value.shape)})

    solver_meta = None
    if solver is not None:
        slots: Dict[str, list] = {}
        for param_key, st in solver.state.items():
            slots[param_key] = sorted(st)
            for slot, arr in st.items():
                arrays[_solver_key(param_key, slot)] = np.asarray(arr)
        solver_meta = {
            "type": type(solver).__name__,
            "iteration": int(solver.iteration),
            "slots": slots,
        }

    meta = {
        "format": FORMAT,
        "version": VERSION,
        "batch_size": int(cnet.batch_size),
        "output": output,
        "epoch": int(epoch),
        "builder": builder,
        "params": param_meta,
        "solver": solver_meta,
        "rng_state": rng.bit_generator.state if rng is not None else None,
        "history": {
            "losses": list(history.losses),
            "train_accuracy": list(history.train_accuracy),
            "test_accuracy": list(history.test_accuracy),
        } if history is not None else None,
    }
    arrays[_META_KEY] = np.asarray(json.dumps(meta))
    save_npz(path, arrays)
    return path


@dataclass
class Checkpoint:
    """A loaded checkpoint: metadata plus materialized arrays."""

    meta: dict
    params: Dict[str, np.ndarray]
    solver_state: Dict[str, Dict[str, np.ndarray]] = field(
        default_factory=dict
    )

    # -- metadata accessors -------------------------------------------------

    @property
    def version(self) -> int:
        return int(self.meta["version"])

    @property
    def batch_size(self) -> int:
        return int(self.meta["batch_size"])

    @property
    def output(self) -> Optional[str]:
        return self.meta.get("output")

    @property
    def epoch(self) -> int:
        return int(self.meta.get("epoch", 0))

    @property
    def history(self) -> Optional[dict]:
        return self.meta.get("history")

    # -- reconstruction -----------------------------------------------------

    def build(self, batch_size: Optional[int] = None):
        """Reconstruct the (uncompiled) :class:`~repro.core.Net` from
        the builder record, optionally at a different batch size. Its
        parameters are this checkpoint's arrays, bound, not copied."""
        builder = self.meta.get("builder")
        if builder is None:
            raise CheckpointError(
                "checkpoint has no builder record: it was saved without "
                "config=/spec= and can only restore parameters into a "
                "net you construct yourself"
            )
        if builder["kind"] not in BUILDER_KINDS:
            raise CheckpointError(
                f"unknown builder kind {builder['kind']!r}")
        try:
            net = build_from(
                builder,
                batch_size if batch_size is not None else self.batch_size,
                params=self.params)
        except ParamSourceError as exc:
            have = self.params.get(exc.key)
            if have is None:
                raise _mismatch([exc.key]) from exc
            if have.shape == exc.shape:
                raise  # right shape, wrong dtype or layout: as the net says
            raise _shape_error(exc.key, have.shape, exc.shape) from exc
        extra = set(self.params) - {
            f"{ens.name}.{p.name}" for ens in net.ensembles.values()
            for p in getattr(ens, "params", ())}
        if extra:
            raise _mismatch(extra=sorted(extra))
        return net

    def compile(self, batch_size: Optional[int] = None, options=None,
                tracer=None, num_threads=None, keep_alive=None,
                cache=None):
        """Rebuild and compile in one call — the server cold-start
        path. Defaults to forward-only compilation
        (``CompilerOptions.inference()``).

        The net's parameters are this checkpoint's arrays (see
        :meth:`build`): nothing is drawn or copied, every net compiled
        from one checkpoint shares them, and whatever writes a
        parameter — a training update, int8's in-place fake-quant —
        writes through to :attr:`params`.

        Pass ``cache=`` (a ``repro.cache.CompileCache``, a directory
        path, or ``True`` for the default store) to route the compile
        through the persistent compilation cache: a warm entry skips
        synthesis and every pass, turning cold-start into a
        millisecond thaw (see docs/COMPILE_CACHE.md). Hit and miss bind
        the same arrays, so they produce bitwise-identical servers.
        """
        from repro.optim.pipeline import CompilerOptions

        options = options or CompilerOptions.inference()
        net = self.build(batch_size)
        if cache is not None and cache is not False:
            from repro.cache import compile_cached

            return compile_cached(
                self.meta["builder"], net=net, options=options,
                tracer=tracer, num_threads=num_threads,
                keep_alive=keep_alive,
                cache=None if cache is True else cache,
            )
        return net.init(options, tracer=tracer, num_threads=num_threads,
                        keep_alive=keep_alive)

    # -- state restoration --------------------------------------------------

    def restore_params(self, cnet) -> None:
        """Copy parameter arrays into ``cnet``'s parameter views — for a
        net compiled before the checkpoint was read (``solve(
        resume_from=)``); :meth:`build` binds them instead. The
        checkpoint and the net must carry the same keys and shapes."""
        views = {p.key: p for p in cnet.parameters()}
        missing = sorted(set(views) - set(self.params))
        extra = sorted(set(self.params) - set(views))
        if missing or extra:
            raise _mismatch(missing, extra)
        for key, view in views.items():
            arr = self.params[key]
            if view.value.shape != arr.shape:
                raise _shape_error(key, arr.shape, view.value.shape)
            view.value[...] = arr

    def restore_solver(self, solver) -> None:
        """Restore iteration counter and per-parameter state arrays."""
        info = self.meta.get("solver")
        if info is None:
            raise CheckpointError("checkpoint carries no solver state")
        solver.iteration = int(info["iteration"])
        solver.state = {
            param_key: {slot: arr.copy() for slot, arr in slots.items()}
            for param_key, slots in self.solver_state.items()
        }

    def restore_rng(self, rng) -> None:
        """Restore a ``numpy.random.Generator``'s state *in place*, so
        every holder of a reference to it (the dropout key draws,
        the training loop's shuffle) resumes the saved stream."""
        state = self.meta.get("rng_state")
        if state is None:
            raise CheckpointError("checkpoint carries no RNG state")
        rng.bit_generator.state = state


def load_checkpoint(path: str) -> Checkpoint:
    """Read and validate a checkpoint written by :func:`save_checkpoint`.

    Refuses files with a foreign format tag or a version newer than this
    reader (see the module docstring's versioning policy).
    """
    z = load_npz(path)
    if _META_KEY not in z:
        raise CheckpointError(
            f"{path}: not a {FORMAT} artifact (missing {_META_KEY})"
        )
    meta = json.loads(str(z[_META_KEY]))
    if meta.get("format") != FORMAT:
        raise CheckpointError(
            f"{path}: format {meta.get('format')!r}, expected {FORMAT!r}"
        )
    if int(meta.get("version", 0)) > VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {meta['version']} is newer "
            f"than this reader (max {VERSION}); upgrade the library"
        )
    params = {
        name[len(_PARAM_PREFIX):]: arr
        for name, arr in z.items()
        if name.startswith(_PARAM_PREFIX)
    }
    solver_state: Dict[str, Dict[str, np.ndarray]] = {}
    info = meta.get("solver")
    if info is not None:
        for param_key, slots in info["slots"].items():
            solver_state[param_key] = {
                slot: z[_solver_key(param_key, slot)] for slot in slots
            }
    return Checkpoint(meta, params, solver_state)
