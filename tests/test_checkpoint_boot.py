"""A checkpoint boot binds the checkpoint's arrays: ``Net(params=)``.

A net built from a :class:`~repro.serve.checkpoint.Checkpoint` takes
its parameter values from the checkpoint itself — no initializer runs,
no random number is drawn, nothing is copied — so every replica booted
from one checkpoint shares its arrays, and a boot costs the parameters
plus the planned buffers and little else.
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

import repro.serve.server as server_module
import repro.utils.initializers as initializers
from repro.core import Net
from repro.core.network import ParamSourceError
from repro.layers import FullyConnectedLayer, MemoryDataLayer
from repro.optim import CompilerOptions
from repro.serve import ModelServer, load_checkpoint, save_checkpoint
from repro.serve.checkpoint import CheckpointError
from repro.testing.digest import ledger_model, ledger_net
from repro.utils.rng import get_rng

MiB = 1 << 20


def _save(tmp_path, name):
    """The ledger program ``name`` as a checkpoint: ``(path, batch,
    inputs)``, the inputs zero-filled per data ensemble."""
    model, batch = ledger_model(name)
    cnet = ledger_net(name).init(CompilerOptions.inference())
    inputs = {n: np.zeros(cnet.value(n).shape, np.float32)
              for n in cnet._data_names}
    path = save_checkpoint(str(tmp_path / f"{name}.npz"), cnet,
                           config=model, output=cnet.net.topological_order()
                           [-1].name)
    cnet.close()
    return path, batch, inputs


@pytest.fixture(scope="module")
def vgg(tmp_path_factory):
    return _save(tmp_path_factory.mktemp("vgg"), "vgg")


@pytest.fixture()
def initializer_calls(monkeypatch):
    """A list that grows by one per initializer call, wherever the
    initializer was imported."""
    calls = []
    for fname in ("xavier_init", "gaussian_init", "zeros_init",
                  "constant_init"):
        fn = getattr(initializers, fname)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, fname, None) is fn:
                monkeypatch.setattr(module, fname, counted)
    return calls


def _traced(fn):
    """``(result, peak bytes)`` of ``fn()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_load_reads_each_array_once(vgg):
    """``load_checkpoint`` fills each array in place from the archive
    file (an earlier reader held every member's bytes next to its
    copy)."""
    ck, peak = _traced(lambda: load_checkpoint(vgg[0]))
    arrays = sum(a.nbytes for a in ck.params.values())
    assert peak <= arrays + 2 * MiB, (peak, arrays)


def test_load_holds_no_chunk_beside_the_arrays(tmp_path):
    """Each member is read straight into its array, with no chunk-sized
    temporary beside it: lenet's load peaks 25 KB over its 0.44 MB of
    arrays (a chunked reader peaked 0.53 MB over them, 0.97 MB in all);
    the bound leaves 128 KiB for the headers, names and dict."""
    path = _save(tmp_path, "lenet")[0]
    load_checkpoint(path)
    ck, peak = _traced(lambda: load_checkpoint(path))
    arrays = sum(a.nbytes for a in ck.params.values())
    assert peak <= arrays + 128 * 1024, (peak, arrays)


@pytest.mark.parametrize("name", ["lenet", "vgg"])
def test_boot_costs_params_plus_planned(name, tmp_path, vgg,
                                        initializer_calls):
    """load → ``Checkpoint.compile`` → first forward, traced from
    before the load: at most parameters + planned bytes + 1 MiB, and no
    initializer runs. One untraced boot first, so interpreter-wide
    tables (interned strings and the like) have grown already."""
    path, batch, inputs = vgg if name == "vgg" else _save(tmp_path, name)

    def boot():
        cnet = load_checkpoint(path).compile(batch, cache=False,
                                             num_threads=1)
        cnet.forward(**inputs)
        return cnet

    boot().close()
    del initializer_calls[:]
    cnet, peak = _traced(boot)
    params = sum(p.value.nbytes for p in cnet.parameters())
    planned = cnet.memory_stats()["planned_bytes"]
    cnet.close()
    assert initializer_calls == []
    assert peak <= params + planned + MiB, (peak, params, planned)


def test_boot_consumes_no_random_numbers(vgg, tmp_path):
    """A cold compile, a warm thaw and a two-replica server, all from
    one checkpoint, leave the library generator where it was."""
    path, batch, _ = vgg
    ck = load_checkpoint(path)
    rng = get_rng()
    state = rng.bit_generator.state
    ck.compile(batch).close()
    assert rng.bit_generator.state == state
    cache = str(tmp_path / "cache")
    ck.compile(batch, cache=cache).close()  # stores the entry
    assert rng.bit_generator.state == state
    warm = ck.compile(batch, cache=cache)
    assert warm.compile_report.cache_hit
    warm.close()
    assert rng.bit_generator.state == state
    with ModelServer.from_checkpoint(path, batch_size=batch, replicas=2):
        pass
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("thawed", [False, True], ids=["cold", "thawed"])
def test_every_replica_binds_the_checkpoint_arrays(vgg, tmp_path,
                                                   monkeypatch, thawed):
    path, batch, _ = vgg
    cache = str(tmp_path / "cache") if thawed else None
    if thawed:
        load_checkpoint(path).compile(batch, cache=cache).close()
    loaded = []

    def recording(p):
        loaded.append(load_checkpoint(p))
        return loaded[-1]

    monkeypatch.setattr(server_module, "load_checkpoint", recording)
    with ModelServer.from_checkpoint(path, batch_size=batch, replicas=3,
                                     cache=cache) as srv:
        (ck,) = loaded
        assert len(srv.replicas) == 3
        for replica in srv.replicas:
            assert (replica.cache is not None) == thawed
            assert replica.cache is None or replica.cache[0]
            for p in replica.net.parameters():
                assert np.shares_memory(p.value, ck.params[p.key]), p.key


def test_training_writes_through_to_the_checkpoint(vgg):
    """The documented contract: the compiled net's parameters *are*
    ``ck.params``."""
    path, batch, _ = vgg
    ck = load_checkpoint(path)
    cnet = ck.compile(batch)
    p = cnet.parameters()[0]
    p.value[...] = 7.0
    assert np.all(ck.params[p.key] == 7.0)
    cnet.close()


def _fc_net(params=None, outputs=3):
    net = Net(2, params=params)
    data = MemoryDataLayer(net, "data", (4,))
    FullyConnectedLayer("fc", net, data, outputs)
    return net


@pytest.mark.parametrize("outputs", [1, 3])
def test_params_source_is_bound_not_copied(outputs):
    """A second net built from the first one's arrays computes the same
    rows on the same storage — a one-neuron layer included, whose key
    holds its lone column."""
    first = _fc_net(outputs=outputs).init(CompilerOptions.inference())
    params = {p.key: p.value for p in first.parameters()}
    second = _fc_net(params, outputs).init(CompilerOptions.inference())
    x = np.random.default_rng(0).standard_normal((2, 4)).astype(np.float32)
    for cnet in (first, second):
        cnet.forward(data=x)
    np.testing.assert_array_equal(first.value("fc"), second.value("fc"))
    for p in second.parameters():
        assert np.shares_memory(p.value, params[p.key])


def test_params_source_names_the_key_it_cannot_bind():
    with pytest.raises(ParamSourceError, match="'fc.weights'"):
        _fc_net({})
    bad = {"fc.weights": np.zeros((4, 3), np.float64),
           "fc.bias": np.zeros((1, 3), np.float32)}
    with pytest.raises(ParamSourceError, match="float64 for 'fc.weights'"):
        _fc_net(bad)
    bad["fc.weights"] = np.zeros((3, 4), np.float32).T
    with pytest.raises(ParamSourceError, match="non-contiguous"):
        _fc_net(bad)


def test_build_checks_keys_and_shapes(vgg):
    path, batch, _ = vgg
    ck = load_checkpoint(path)
    weights = ck.params.pop("fc8.weights")
    with pytest.raises(CheckpointError, match="mismatch.*'fc8.weights'"):
        ck.build(batch)
    ck.params["fc8.weights"] = weights[:-1].copy()
    with pytest.raises(CheckpointError, match="'fc8.weights'.*shape"):
        ck.build(batch)
    ck.params["fc8.weights"] = weights
    ck.params["ghost.weights"] = weights
    with pytest.raises(CheckpointError, match="carries.*'ghost.weights'"):
        ck.build(batch)
