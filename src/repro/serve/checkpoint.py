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
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

FORMAT = "latte-checkpoint"
VERSION = 1

_META_KEY = "__meta__"
_PARAM_PREFIX = "param/"
_SOLVER_PREFIX = "solver/"


class CheckpointError(RuntimeError):
    """Malformed, incompatible, or mismatched checkpoint artifact."""


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
    builder: Optional[dict] = None
    if config is not None:
        from repro.models.configs import config_to_dict

        builder = {"kind": "model_config", "config": config_to_dict(config)}
    elif spec is not None:
        builder = {"kind": "net_spec", "spec": spec.to_dict()}

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

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
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
        """Reconstruct the (uncompiled) architecture from the builder
        record, optionally at a different batch size. Returns a
        :class:`~repro.models.BuiltModel` for ``model_config`` builders
        or a bare :class:`~repro.core.Net` for ``net_spec`` builders."""
        builder = self.meta.get("builder")
        if builder is None:
            raise CheckpointError(
                "checkpoint has no builder record: it was saved without "
                "config=/spec= and can only restore parameters into a "
                "net you construct yourself"
            )
        batch = batch_size if batch_size is not None else self.batch_size
        if builder["kind"] == "model_config":
            from repro.models import build_latte
            from repro.models.configs import config_from_dict

            return build_latte(config_from_dict(builder["config"]), batch)
        if builder["kind"] == "net_spec":
            from repro.testing.generator import NetSpec, build_net

            spec = NetSpec.from_dict(builder["spec"])
            return build_net(replace(spec, batch=batch))
        raise CheckpointError(f"unknown builder kind {builder['kind']!r}")

    def compile(self, batch_size: Optional[int] = None, options=None,
                tracer=None, num_threads=None, keep_alive=None,
                cache=None):
        """Rebuild, compile, and restore parameters in one call — the
        server cold-start path. Defaults to forward-only compilation
        (``CompilerOptions.inference()``).

        Pass ``cache=`` (a ``repro.cache.CompileCache``, a directory
        path, or ``True`` for the default store) to route the compile
        through the persistent compilation cache: a warm entry skips
        synthesis and every pass, turning cold-start into a
        millisecond thaw (see docs/COMPILE_CACHE.md). Parameters are
        restored either way, so hit and miss produce bitwise-identical
        servers.
        """
        from repro.optim.pipeline import CompilerOptions

        options = options or CompilerOptions.inference()
        builder = self.meta.get("builder")
        if cache is not None and cache is not False and builder is not None:
            from repro.cache import compile_cached

            cnet = compile_cached(
                builder,
                batch_size if batch_size is not None else self.batch_size,
                options=options, tracer=tracer, num_threads=num_threads,
                keep_alive=keep_alive,
                cache=None if cache is True else cache,
            )
            self.restore_params(cnet)
            return cnet
        built = self.build(batch_size)
        net = getattr(built, "net", built)
        cnet = net.init(options, tracer=tracer, num_threads=num_threads,
                        keep_alive=keep_alive)
        self.restore_params(cnet)
        return cnet

    # -- state restoration --------------------------------------------------

    def restore_params(self, cnet, strict: bool = True) -> None:
        """Copy parameter arrays into ``cnet``'s parameter views.

        With ``strict`` (default) the checkpoint and the net must carry
        exactly the same parameter keys and shapes.
        """
        views = {p.key: p for p in cnet.parameters()}
        if strict:
            missing = sorted(set(views) - set(self.params))
            extra = sorted(set(self.params) - set(views))
            if missing or extra:
                raise CheckpointError(
                    f"parameter mismatch: net wants {missing or '[]'} the "
                    f"checkpoint lacks; checkpoint carries {extra or '[]'} "
                    f"the net lacks"
                )
        for key, arr in self.params.items():
            view = views.get(key)
            if view is None:
                continue
            if view.value.shape != arr.shape:
                raise CheckpointError(
                    f"parameter {key!r}: checkpoint shape {arr.shape} vs "
                    f"net shape {view.value.shape}"
                )
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
        every closure holding a reference to it (dropout mask sampling,
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
    with np.load(path, allow_pickle=False) as z:
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
            name[len(_PARAM_PREFIX):]: z[name]
            for name in z.files
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
