"""Model state has one home: parameters and batch-norm running
statistics are the net's model arrays (``CompiledNet.model_arrays``).

Pinned here: a checkpoint carries the statistics, so a trained
batch-norm net round-trips bitwise; a version-1 file of a net with
statistics is refused naming the keys it lacks, while one of a
statistics-free net still loads; a resumed run ends on the uninterrupted
run's statistics; and a training forward holds nothing for its backward
outside the planned buffers.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.codegen.c_backend import have_c_toolchain
from repro.core.ensemble import DataEnsemble
from repro.models import build_latte, mlp_config
from repro.optim import CompilerOptions
from repro.serve.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.solvers import (
    SGD,
    Dataset,
    LRPolicy,
    MomPolicy,
    SolverParameters,
    solve,
)
from repro.testing.digest import ledger_model, ledger_net
from repro.utils.rng import seed_all

STATS = ("L5_batchnorm.running_mean", "L5_batchnorm.running_var")


def _feeds(cnet, seed=0):
    """Random inputs for every data ensemble: labels 0 or 1."""
    rng = np.random.default_rng(seed)
    out = {}
    for ens in cnet.net.ensembles.values():
        if isinstance(ens, DataEnsemble):
            shape = cnet.buffers[f"{ens.name}_value"].shape
            out[ens.name] = (rng.integers(0, 2, shape) if "label" in ens.name
                             else rng.standard_normal(shape)
                             ).astype(np.float32)
    return out


def _train(cnet, feeds, steps):
    for _ in range(steps):
        cnet.forward(**feeds)
        cnet.clear_param_grads()
        cnet.backward()
        for p in cnet.parameters():
            p.value -= np.float32(0.1) * p.grad


def _eval(cnet, feeds, output):
    cnet.training = False
    cnet.forward(**feeds)
    return cnet.value(output).copy()


def _as_version_1(path, drop=()):
    """Rewrite a checkpoint as version 1, without the ``drop`` keys."""
    with np.load(path, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files
                  if name.removeprefix("param/") not in drop}
    meta = json.loads(str(arrays["__meta__"]))
    meta["version"] = 1
    meta["params"] = [p for p in meta["params"] if p["key"] not in drop]
    arrays["__meta__"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)
    return path


def _trained_cnn_a(tmp_path):
    """cnn_a at ledger geometry after three training-mode steps, its
    feeds, and a checkpoint of it."""
    cnet = ledger_net("cnn_a").init(CompilerOptions())
    feeds = _feeds(cnet)
    _train(cnet, feeds, 3)
    path = save_checkpoint(str(tmp_path / "cnn_a.npz"), cnet,
                           spec=ledger_model("cnn_a")[0])
    return cnet, feeds, path


def test_cnn_a_checkpoint_round_trip_is_bitwise(tmp_path):
    cnet, feeds, path = _trained_cnn_a(tmp_path)
    stats = cnet.model_arrays()
    assert set(STATS) <= set(stats)
    assert np.any(stats[STATS[0]] != 0) and np.any(stats[STATS[1]] != 1)
    assert not hasattr(cnet.net["L5_batchnorm"], "state")
    assert set(STATS).isdisjoint(p.key for p in cnet.parameters())
    want = _eval(cnet, feeds, "head")
    served = load_checkpoint(path).compile()
    np.testing.assert_array_equal(_eval(served, feeds, "head"), want)


def test_version_1_file_with_statistics_is_refused(tmp_path):
    cnet, _, path = _trained_cnn_a(tmp_path)
    ck = load_checkpoint(_as_version_1(path, drop=STATS))
    assert ck.version == 1
    with pytest.raises(CheckpointError) as build:
        ck.compile()
    with pytest.raises(CheckpointError) as restore:
        ck.restore_params(cnet)
    for exc in (build, restore):
        assert all(key in str(exc.value) for key in STATS), exc.value
        assert "version-1" in str(exc.value)


@pytest.mark.parametrize("which", ["quickstart_mlp", "vgg"])
def test_version_1_file_without_statistics_loads(tmp_path, which):
    if which == "vgg":
        config, batch = ledger_model("vgg")
    else:
        config, batch = mlp_config(), 8
    seed_all(0)
    built = build_latte(config, batch)
    cnet = built.init(CompilerOptions.inference())
    feeds, out = _feeds(cnet), built.output.name
    path = save_checkpoint(str(tmp_path / "m.npz"), cnet, config=config)
    ck = load_checkpoint(_as_version_1(path))
    assert ck.version == 1
    np.testing.assert_array_equal(_eval(ck.compile(), feeds, out),
                                  _eval(cnet, feeds, out))


def _solver():
    return SGD(SolverParameters(lr_policy=LRPolicy.Fixed(0.05),
                                mom_policy=MomPolicy.Fixed(0.9),
                                max_epoch=4))


def test_resume_ends_on_the_uninterrupted_statistics(tmp_path):
    spec, _ = ledger_model("cnn_a")
    rng = np.random.default_rng(3)
    data = Dataset(rng.standard_normal((8,) + tuple(spec.input_shape))
                   .astype(np.float32), rng.integers(0, spec.classes, 8))
    path = str(tmp_path / "resume.npz")

    def fresh(seed):
        seed_all(seed)
        return ledger_net("cnn_a").init(CompilerOptions())

    continuous = fresh(1)
    solve(_solver(), continuous, data, epochs=4)
    partial = fresh(1)
    solve(_solver(), partial, data, epochs=2, checkpoint_every=2,
          checkpoint_path=path)
    resumed = fresh(2)
    solve(_solver(), resumed, data, epochs=4, resume_from=path)
    want, got = continuous.model_arrays(), resumed.model_arrays()
    assert np.any(want[STATS[0]] != 0)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("backend", [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        not have_c_toolchain(), reason="no usable C toolchain")),
])
@pytest.mark.parametrize("name", ["alexnet", "cnn_a"])
def test_a_training_forward_holds_nothing_for_backward(name, backend):
    """Bytes a warm training forward leaves allocated: an extern keeps
    no copy for its backward (alexnet's LRN held 1 093 874 B)."""
    cnet = ledger_net(name).init(CompilerOptions(backend=backend))
    feeds = _feeds(cnet)
    try:
        cnet.forward(**feeds)
        cnet.backward()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cnet.forward(**feeds)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    finally:
        cnet.close()
    assert held < 4096, held
