"""Tests for the persistent compilation cache (repro.cache).

Covers the correctness contract (a thawed program is bitwise the cold
program), the keying rules (anything that changes the compiled program
changes the key), and the durability rules (corrupt entries degrade to
cold compiles; concurrent writers leave a valid entry; eviction is
size-bounded LRU).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cache import (
    CacheUnsupported,
    CompileCache,
    as_builder,
    cache_key,
    compile_cached,
    freeze,
    thaw,
)
from repro.cache.__main__ import main as cache_main
from repro.codegen.c_backend import have_c_toolchain
from repro.core import Dim, Ensemble, FieldBinding, Net
from repro.layers import (
    BatchNormLayer,
    FullyConnectedLayer,
    MemoryDataLayer,
    SoftmaxLossLayer,
)
from repro.layers.neurons import ScaleNeuron
from repro.models.build import build_latte
from repro.models.configs import (
    DropoutSpec,
    FCSpec,
    ModelConfig,
    ReLUSpec,
    SoftmaxLossSpec,
    mlp_config,
)
from repro.optim import CompilerOptions, compile_net
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.server import ModelServer
from repro.testing.generator import (
    NetSpec,
    build_net,
    make_inputs,
    random_spec,
)
from repro.utils.rng import seed_all

MLP = mlp_config(hidden=(16, 5), classes=5, input_dim=30)


def _train_run(spec, store, level=4):
    """One seeded forward+backward through compile_cached."""
    seed_all(spec.seed)
    net = build_net(spec)
    opts = CompilerOptions.level(level)
    opts.min_tile_rows = 2
    cnet = compile_cached(spec, net=net, options=opts, cache=store)
    x, y = make_inputs(spec)
    loss = cnet.forward(data=x, label=y)
    cnet.clear_param_grads()
    cnet.backward()
    return cnet, {
        "loss": float(loss),
        "output": cnet.value("head").copy(),
        "dx": cnet.grad("data").copy(),
        "grads": {p.key: p.grad.copy() for p in cnet.parameters()},
    }


def _assert_same_run(warm, cold):
    assert warm["loss"] == cold["loss"]
    np.testing.assert_array_equal(warm["output"], cold["output"])
    np.testing.assert_array_equal(warm["dx"], cold["dx"])
    assert set(warm["grads"]) == set(cold["grads"])
    for key in cold["grads"]:
        np.testing.assert_array_equal(warm["grads"][key],
                                      cold["grads"][key])


class TestRoundTrip:
    # seed 3: conv/tanh/pool/dropout (pre_forward closure);
    # seed 11: batchnorm (norm closures); seed 42: fc+gru, T=3 (recurrent)
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_fuzz_spec_bitwise(self, tmp_path, seed):
        spec = random_spec(seed)
        store = CompileCache(tmp_path)
        cold_net, cold = _train_run(spec, store)
        assert not cold_net.compile_report.cache_hit
        assert cold_net.compile_report.cache_key is not None
        warm_net, warm = _train_run(spec, store)
        assert warm_net.compile_report.cache_hit
        _assert_same_run(warm, cold)

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_tiled_conv_net_thaws_with_its_contracted_buffers(
            self, tmp_path, monkeypatch, backend):
        """Train-mode conv programs re-pad and re-gather their staging
        copies in backward and run them tile by tile: the fused groups,
        the ``*_re`` buffers, the contracted shapes and the decision
        records all survive freeze -> thaw, bitwise."""
        from repro.optim import tiling

        if backend == "c" and not have_c_toolchain():
            pytest.skip("no usable C toolchain")
        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES", 2048)
        monkeypatch.setattr(tiling, "TILE_GRANULE_BYTES", 1)
        spec = NetSpec(
            seed=7, batch=4, input_shape=(3, 10, 10), classes=3,
            layers=(
                {"kind": "conv", "filters": 4, "kernel": 3, "stride": 1,
                 "pad": 1},
                {"kind": "relu"},
                {"kind": "pool", "mode": "max", "kernel": 2, "stride": 2,
                 "pad": 0},
                {"kind": "conv", "filters": 6, "kernel": 3, "stride": 1,
                 "pad": 0},
            ),
        )
        store = CompileCache(tmp_path)
        x, y = make_inputs(spec)

        def run():
            seed_all(spec.seed)
            cnet = compile_cached(spec, net=build_net(spec), cache=store,
                                  options=CompilerOptions(backend=backend))
            loss = cnet.forward(data=x, label=y)
            cnet.clear_param_grads()
            cnet.backward()
            return cnet, {
                "loss": float(loss), "output": cnet.value("head").copy(),
                "dx": cnet.grad("data").copy(),
                "grads": {p.key: p.grad.copy() for p in cnet.parameters()}}

        cold_net, cold = run()
        warm_net, warm = run()
        assert warm_net.compile_report.cache_hit
        assert not cold_net.compile_report.cache_hit
        _assert_same_run(warm, cold)
        labels = [s.label for s in warm_net.compiled.backward]
        assert {"L0_conv.pad_fill+L0_conv.pad+L0_conv.regather"
                "+L0_conv.compute",
                "L3_conv.compute+L3_conv.scatter"} <= set(labels)
        for phase in ("forward", "backward"):
            cold_steps = getattr(cold_net.compiled, phase)
            warm_steps = getattr(warm_net.compiled, phase)
            assert ([(s.label, s.access) for s in warm_steps]
                    == [(s.label, s.access) for s in cold_steps])
        cold_mem, warm_mem = cold_net.plan.memory, warm_net.plan.memory
        assert len(cold_mem.rematerialized) == 2
        assert cold_mem.rematerialized["L0_conv_inputs0"].padded == (
            "L0_conv_padsrc0_re")
        assert warm_mem.rematerialized == cold_mem.rematerialized
        assert warm_mem.declined == cold_mem.declined
        assert sorted(cold_net.plan.contracted) == [
            "L0_conv_grad_inputs0", "L0_conv_inputs0", "L0_conv_inputs0_re",
            "L0_conv_padsrc0", "L0_conv_padsrc0_re",
            "L3_conv_grad_inputs0", "L3_conv_inputs0", "L3_conv_inputs0_re"]
        assert warm_net.plan.contracted == cold_net.plan.contracted
        # training keeps every value inspectable; the padded input is
        # re-padded in backward, so both copies of it contract
        assert warm_net.plan.untiled == cold_net.plan.untiled == {
            "L0_conv_value": "keep_alive", "L2_pool_value": "keep_alive",
            "L3_conv_value": "keep_alive"}
        for name in cold_net.plan.contracted:
            assert (warm_net.buffers[name].shape
                    == cold_net.buffers[name].shape
                    == ((1, 3, 12, 12) if "padsrc" in name
                        else (1, 27, 10, 10) if "L0" in name
                        else (1, 36, 3, 3)))
        assert (warm_net.memory_report().table()
                == cold_net.memory_report().table())
        assert warm_net.memory_stats() == cold_net.memory_stats()
        # the rule's constants are part of the key
        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES", 4096)
        other, _ = run()
        assert not other.compile_report.cache_hit
        assert other.buffers["L3_conv_inputs0"].shape[0] == 2

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_contracted_value_inference_net_thaws_bitwise(
            self, tmp_path, monkeypatch, backend):
        """Forward-only, a layer's value and padded input live inside
        its batch-tiled group and are allocated one tile at a time: the
        contracted shapes, the pad's fill step and the whole-batch
        reasons survive freeze -> thaw, and the thawed net computes the
        cold one's bits."""
        from repro.optim import tiling

        if backend == "c" and not have_c_toolchain():
            pytest.skip("no usable C toolchain")
        monkeypatch.setattr(tiling, "STAGING_TILE_BYTES", 2048)
        monkeypatch.setattr(tiling, "TILE_GRANULE_BYTES", 1)
        spec = NetSpec(
            seed=7, batch=4, input_shape=(3, 10, 10), classes=3,
            layers=(
                {"kind": "conv", "filters": 4, "kernel": 3, "stride": 1,
                 "pad": 1},
                {"kind": "relu"},
                {"kind": "pool", "mode": "max", "kernel": 2, "stride": 2,
                 "pad": 0},
            ),
        )
        store = CompileCache(tmp_path)
        x, y = make_inputs(spec)
        opts = CompilerOptions.inference()
        opts.backend = backend

        def run():
            seed_all(spec.seed)
            cnet = compile_cached(spec, net=build_net(spec), cache=store,
                                  options=opts)
            loss = cnet.forward(data=x, label=y)
            return cnet, float(loss), cnet.value("head").copy()

        cold_net, cold_loss, cold_out = run()
        warm_net, warm_loss, warm_out = run()
        assert warm_net.compile_report.cache_hit
        assert warm_loss == cold_loss
        np.testing.assert_array_equal(warm_out, cold_out)
        (group,) = [s.label for s in warm_net.compiled.forward
                    if s.label.startswith("L0_conv.pad_fill+")]
        assert group.endswith("+L2_pool.compute")
        for net in (cold_net, warm_net):
            assert net.plan.contracted == {
                b: group for b in ("L0_conv_padsrc0", "L0_conv_inputs0",
                                   "L0_conv_value")}
            assert net.plan.untiled == {"L2_pool_value": "reshaped-alias"}
            assert net.buffers["L0_conv_value"].shape == (1, 4, 10, 10)
            assert net.buffers["L0_conv_padsrc0"].shape == (1, 3, 12, 12)
        assert (warm_net.memory_report().table()
                == cold_net.memory_report().table())
        with pytest.raises(KeyError, match="batch-tiled group"):
            warm_net.value("L1_relu")

    def test_model_config_inference_bitwise(self, tmp_path):
        store = CompileCache(tmp_path)
        opts = CompilerOptions.inference()
        x = np.random.default_rng(0).standard_normal((4, 30)).astype(
            np.float32)

        def run():
            seed_all(5)
            cnet = compile_cached(MLP, 4, options=opts, cache=store)
            cnet.forward(data=x)
            return cnet, cnet.value("ip2").copy()

        cold_net, cold_out = run()
        warm_net, warm_out = run()
        assert warm_net.compile_report.cache_hit
        np.testing.assert_array_equal(warm_out, cold_out)

    def test_warm_report_skips_every_pass(self, tmp_path):
        store = CompileCache(tmp_path)
        compile_cached(MLP, 4, cache=store)
        warm = compile_cached(MLP, 4, cache=store)
        report = warm.compile_report
        assert report.cache_hit
        names = [r.name for r in report.records]
        assert "cache_thaw" in names
        # the original pass ledger survives for attribution, but no
        # pass ran: every stored record reports zero wall time
        for rec in report.records:
            if rec.name != "cache_thaw":
                assert rec.wall_time == 0.0
        assert report.compile_seconds > 0.0
        assert "warm cache hit" in report.table()
        assert "warm cache hit" in warm.summary()

    def test_listing_is_not_stored(self, tmp_path):
        store = CompileCache(tmp_path)
        cold = compile_cached(MLP, 4, cache=store)
        warm = compile_cached(MLP, 4, cache=store)
        assert warm.compile_report.cache_hit
        # a cold compile renders its schedule...
        assert "=== forward ===" in cold.c_source
        # ...an entry stores neither, and a thaw rebuilds steps only
        key, = (e.key for e in store.entries())
        meta, _ = store.get(key)
        assert "c_source" not in meta
        assert all("dtype" not in b for b in meta["buffers"])
        with pytest.raises(RuntimeError, match="thaw does not rebuild"):
            warm.c_source

    @pytest.mark.parametrize("with_norm", [False, True],
                             ids=["gather", "gather+norm+loss"])
    def test_gather_net_freeze_thaw(self, tmp_path, with_norm):
        """Hand-built DSL nets are unkeyable (no builder record) but the
        freeze/thaw layer itself must still round-trip their extern
        closures bitwise — gather/scatter pairs from the stored index
        array, norm and loss from the topology — and every step's
        def/use record with them."""
        perm = [5, 2, 7, 0, 3, 6, 1, 4]

        def build():
            seed_all(21)
            net = Net(3)
            d = MemoryDataLayer(net, "data", (8,))
            ens = Ensemble(net, "perm", ScaleNeuron, (8,), fields={
                "scale": FieldBinding(np.ones((1, 8), np.float32),
                                      (0, Dim(0)))
            })
            net.add_connections(d, ens, lambda i: (perm[i],))
            if with_norm:
                label = MemoryDataLayer(net, "label", (1,))
                bn = BatchNormLayer("bn", net, ens)
                fc = FullyConnectedLayer("fc", net, bn, 3)
                SoftmaxLossLayer("loss", net, fc, label)
            return net

        cold = compile_net(build(), CompilerOptions.level(4))
        meta, arrays = freeze(cold)
        warm = thaw(build(), meta, arrays, cold.options)
        for phase in ("forward", "backward"):
            assert ([s.access for s in getattr(warm.compiled, phase)]
                    == [s.access for s in getattr(cold.compiled, phase)])
        feeds = {"data": np.random.default_rng(0).standard_normal(
            (3, 8)).astype(np.float32)}
        if with_norm:
            feeds["label"] = np.array([[0], [2], [1]], np.float32)
        for cnet in (cold, warm):
            cnet.forward(**feeds)
            if with_norm:
                cnet.clear_param_grads()
                cnet.backward()
        np.testing.assert_array_equal(warm.value("perm"),
                                      cold.value("perm"))
        np.testing.assert_array_equal(warm.value("perm"),
                                      feeds["data"][:, perm])
        if with_norm:
            assert warm.loss == cold.loss
            np.testing.assert_array_equal(warm.grad("data"),
                                          cold.grad("data"))
            for pw, pc in zip(warm.parameters(), cold.parameters()):
                np.testing.assert_array_equal(pw.grad, pc.grad, pc.key)

    def test_unkeyable_model_raises(self):
        with pytest.raises(CacheUnsupported):
            as_builder(Net(2))


class TestKeying:
    def _key(self, **kw):
        builder = as_builder(kw.pop("model", MLP))
        return cache_key(
            builder,
            kw.pop("batch", 4),
            kw.pop("options", CompilerOptions()),
            kw.pop("threads", 1),
            kw.pop("keep_alive", None),
        )

    def test_identical_identity_same_key(self):
        assert self._key() == self._key(options=CompilerOptions())

    def test_each_component_changes_key(self):
        base = self._key()
        opts = CompilerOptions()
        opts.fusion = False
        assert self._key(options=opts) != base
        assert self._key(options=CompilerOptions.inference()) != base
        assert self._key(batch=8) != base
        assert self._key(threads=2) != base
        assert self._key(keep_alive={"L0_fc"}) != base
        other = mlp_config(hidden=(16, 13), classes=5, input_dim=30)
        assert self._key(model=other) != base

    def test_options_mismatch_forces_recompile(self, tmp_path):
        store = CompileCache(tmp_path)
        compile_cached(MLP, 4, cache=store)
        opts = CompilerOptions()
        opts.tiling = False
        again = compile_cached(MLP, 4, options=opts, cache=store)
        assert not again.compile_report.cache_hit
        assert len(store.entries()) == 2

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        store = CompileCache(tmp_path)
        compile_cached(MLP, 4, cache=store)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        again = compile_cached(MLP, 4, cache=store)
        assert not again.compile_report.cache_hit

    def test_spec_change_invalidates(self, tmp_path):
        store = CompileCache(tmp_path)
        spec = random_spec(3)
        _train_run(spec, store)
        other = random_spec(4)
        cnet, _ = _train_run(other, store)
        assert not cnet.compile_report.cache_hit


class TestCorruption:
    def _entry_path(self, store):
        entries = store.entries()
        assert len(entries) == 1
        return entries[0].path

    def test_truncated_entry_falls_back_cold(self, tmp_path):
        store = CompileCache(tmp_path)
        cold = compile_cached(MLP, 4, cache=store)
        path = self._entry_path(store)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        again = compile_cached(MLP, 4, cache=store)
        assert not again.compile_report.cache_hit
        assert again.compile_report.cache_key == \
            cold.compile_report.cache_key
        # the cold recompile re-stored a good entry: next one is warm
        third = compile_cached(MLP, 4, cache=store)
        assert third.compile_report.cache_hit

    def test_garbage_entry_is_deleted_on_get(self, tmp_path):
        store = CompileCache(tmp_path)
        key = "ab" * 32
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"not an npz at all")
        assert store.get(key) is None
        assert not store.path_for(key).exists()

    def test_entry_under_wrong_key_is_rejected(self, tmp_path):
        store = CompileCache(tmp_path)
        compile_cached(MLP, 4, cache=store)
        path = self._entry_path(store)
        alias = store.path_for("cd" * 32)
        alias.write_bytes(path.read_bytes())
        assert store.get("cd" * 32) is None
        assert not alias.exists()

    def test_previous_format_version_is_a_miss(self, tmp_path):
        """An entry written under the last layout (v10: a re-gather
        from a padded buffer reads the forward padded buffer, held
        across the phases, instead of re-padding it) is dropped on get —
        a miss, never an error, never thawed."""
        from repro.cache.key import FORMAT_VERSION

        store = CompileCache(tmp_path)
        cold = compile_cached(MLP, 4, cache=store)
        key = cold.compile_report.cache_key
        path = self._entry_path(store)
        with np.load(path, allow_pickle=False) as data:
            arrays = {n: data[n] for n in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode())
        assert meta["version"] == FORMAT_VERSION == 11
        assert "contracted" in meta and "tile" in meta["buffers"][0]
        meta["version"] = FORMAT_VERSION - 1
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(),
                                           dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert store.get(key) is None
        assert not path.exists()
        again = compile_cached(MLP, 4, cache=store)  # recompiles cold
        assert not again.compile_report.cache_hit

    def test_incompatible_meta_thaws_cold(self, tmp_path):
        """An entry that loads but references state the net lacks must
        be dropped and recompiled, not crash."""
        store = CompileCache(tmp_path)
        cold = compile_cached(MLP, 4, cache=store)
        key = cold.compile_report.cache_key
        meta, arrays = store.get(key)
        meta["buffers"][0]["shape"] = [9999]
        store.put(key, meta, arrays)
        again = compile_cached(MLP, 4, cache=store)
        assert not again.compile_report.cache_hit


class TestStore:
    def _fake_entry(self, store, key, kb):
        store.put(key, {"note": "fake"},
                  {"pad": np.zeros(kb * 256, np.float32)})

    def test_lru_eviction_drops_oldest(self, tmp_path):
        store = CompileCache(tmp_path, max_bytes=10_000_000)
        keys = [ch * 64 for ch in "abc"]
        for i, key in enumerate(keys):
            self._fake_entry(store, key, 8)
            os.utime(store.path_for(key), (1000 + i, 1000 + i))
        store.max_bytes = store.total_bytes() - 1
        evicted = store.evict()
        assert evicted == [keys[0]]
        assert {e.key for e in store.entries()} == set(keys[1:])

    def test_get_touches_mtime(self, tmp_path):
        store = CompileCache(tmp_path, max_bytes=None)
        keys = [ch * 64 for ch in "ab"]
        for i, key in enumerate(keys):
            self._fake_entry(store, key, 8)
            os.utime(store.path_for(key), (1000 + i, 1000 + i))
        assert store.get(keys[0]) is not None  # refresh the older one
        store.max_bytes = store.total_bytes() - 1
        assert store.evict() == [keys[1]]

    def test_put_is_size_bounded(self, tmp_path):
        store = CompileCache(tmp_path, max_bytes=40_000)
        for ch in "abcd":
            self._fake_entry(store, ch * 64, 16)
        assert store.total_bytes() <= 40_000
        assert len(store.entries()) >= 1

    def test_prune_by_prefix_and_all(self, tmp_path):
        store = CompileCache(tmp_path, max_bytes=None)
        self._fake_entry(store, "a" * 64, 1)
        self._fake_entry(store, "b" * 64, 1)
        assert store.prune("a") == 1
        assert store.prune() == 1
        assert store.entries() == []

    def test_concurrent_writers_leave_valid_entry(self, tmp_path):
        """Two processes cold-compiling the same key race on the final
        rename; both write complete files, so whichever wins the entry
        must thaw."""
        script = (
            "import sys\n"
            "from repro.cache import CompileCache, compile_cached\n"
            "from repro.models.configs import mlp_config\n"
            "cfg = mlp_config(hidden=(16, 5), classes=5, input_dim=30)\n"
            "cnet = compile_cached(cfg, 4, cache=CompileCache(sys.argv[1]))\n"
            "print(cnet.compile_report.cache_key)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..",
                                         "src")
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(tmp_path)],
                             env=env, stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        keys = []
        for p in procs:
            out, _ = p.communicate(timeout=120)
            assert p.returncode == 0
            keys.append(out.strip())
        assert keys[0] == keys[1]
        store = CompileCache(tmp_path)
        assert store.get(keys[0]) is not None
        warm = compile_cached(MLP, 4, cache=store)
        assert warm.compile_report.cache_hit


class TestServingIntegration:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        seed_all(9)
        bt = build_latte(MLP, 4)
        cnet = bt.init(CompilerOptions.level(2))
        path = str(tmp_path / "model.npz")
        save_checkpoint(path, cnet, config=MLP, output=bt.output.name)
        return path

    def test_checkpoint_compile_cache_hit_bitwise(self, tmp_path,
                                                  checkpoint):
        ck = load_checkpoint(checkpoint)
        store = CompileCache(tmp_path / "cache")
        cold = ck.compile(cache=store)
        warm = ck.compile(cache=store)
        assert not cold.compile_report.cache_hit
        assert warm.compile_report.cache_hit
        x = np.random.default_rng(1).standard_normal((4, 30)).astype(
            np.float32)
        cold.forward(data=x)
        warm.forward(data=x)
        np.testing.assert_array_equal(warm.value("ip2"),
                                      cold.value("ip2"))

    def test_server_counts_hits_and_misses(self, tmp_path, checkpoint):
        store = CompileCache(tmp_path / "cache")
        # replica 1 misses and seeds the cache; replica 2 thaws warm
        server = ModelServer.from_checkpoint(
            checkpoint, batch_size=4, replicas=2, cache=store)
        try:
            r = server.registry
            assert r.get("serve_compile_cache_hits_total").total() == 1
            assert r.get("serve_compile_cache_misses_total").total() == 1
            text = r.render()
            assert "serve_compile_cache_hits_total" in text
            assert "serve_compile_cache_age_seconds" in text
            out = server.predict(np.zeros(30, np.float32), timeout=30)
            assert out.shape == (5,)
        finally:
            server.close()

    def test_server_without_cache_has_no_cache_metrics(self, checkpoint):
        server = ModelServer.from_checkpoint(checkpoint, batch_size=4)
        try:
            assert server.registry.get(
                "serve_compile_cache_hits_total") is None
        finally:
            server.close()


class TestCLI:
    def test_warm_ls_prune(self, tmp_path, capsys):
        seed_all(9)
        bt = build_latte(MLP, 4)
        cnet = bt.init(CompilerOptions.level(2))
        ck_path = str(tmp_path / "model.npz")
        save_checkpoint(ck_path, cnet, config=MLP, output=bt.output.name)
        cache_dir = str(tmp_path / "cache")

        assert cache_main(["--cache-dir", cache_dir, "warm",
                           "--checkpoint", ck_path]) == 0
        assert "miss (stored)" in capsys.readouterr().out
        assert cache_main(["--cache-dir", cache_dir, "warm",
                           "--checkpoint", ck_path]) == 0
        assert "hit (already warm)" in capsys.readouterr().out

        assert cache_main(["--cache-dir", cache_dir, "ls"]) == 0
        out = capsys.readouterr().out
        assert "mlp" in out and "1 entries" in out

        assert cache_main(["--cache-dir", cache_dir, "prune", "--all"]) == 0
        assert "pruned 1 entries" in capsys.readouterr().out
        assert CompileCache(cache_dir).entries() == []

    def test_prune_needs_a_target(self, tmp_path, capsys):
        assert cache_main(["--cache-dir", str(tmp_path), "prune"]) == 2


class TestNativeSharedObject:
    """``backend="c"`` entries embed the built ``.so`` bytes so warm
    boots skip the compiler entirely (keyed on toolchain fingerprint)."""

    from repro.codegen.c_backend import have_c_toolchain

    needs_toolchain = pytest.mark.skipif(not have_c_toolchain(),
                                         reason="no C toolchain")

    def _c_opts(self):
        return CompilerOptions(backend="c")

    def _run(self, cnet, seed=0):
        x = np.random.default_rng(seed).standard_normal(
            (4, 30)).astype(np.float32)
        y = np.zeros((4, 1), np.float32)
        return cnet.forward(data=x, label=y)

    @needs_toolchain
    def test_entry_embeds_so_bytes_and_toolchain(self, tmp_path):
        from repro.codegen.c_backend import toolchain_fingerprint

        store = CompileCache(tmp_path / "cache")
        seed_all(1)
        cnet = compile_cached(MLP, 4, options=self._c_opts(), cache=store)
        cnet.close()
        (entry,) = store.entries()
        with np.load(entry.path, allow_pickle=False) as data:
            assert "__so__" in data.files
            assert data["__so__"].dtype == np.uint8
            assert data["__so__"].size > 0
            meta = json.loads(bytes(data["__meta__"]).decode())
        assert meta["c_exec"]["toolchain"] == toolchain_fingerprint()

    @needs_toolchain
    def test_warm_boot_never_invokes_the_compiler(self, tmp_path,
                                                  monkeypatch):
        from repro.codegen import c_backend

        store = CompileCache(tmp_path / "cache")
        monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path / "build1"))
        seed_all(2)
        cold = compile_cached(MLP, 4, options=self._c_opts(), cache=store)
        want = self._run(cold)
        cold.close()

        # fresh build dir (no .so on disk) + compiler forbidden: the
        # thaw must install the cached bytes instead of compiling
        monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path / "build2"))

        def forbidden(source):
            raise AssertionError("compiler invoked on the warm path")

        monkeypatch.setattr(c_backend, "compile_shared_object", forbidden)
        seed_all(2)
        warm = compile_cached(MLP, 4, options=self._c_opts(), cache=store)
        assert warm.compile_report.cache_hit
        assert self._run(warm) == want
        warm.close()
        assert any(p.suffix == ".so"
                   for p in (tmp_path / "build2").iterdir())

    @needs_toolchain
    def test_foreign_toolchain_falls_back_to_recompile(self, tmp_path,
                                                       monkeypatch):
        from repro.codegen import c_backend

        store = CompileCache(tmp_path / "cache")
        seed_all(3)
        cold = compile_cached(MLP, 4, options=self._c_opts(), cache=store)
        want = self._run(cold)
        cold.close()

        calls = []
        real = c_backend.compile_shared_object

        def counting(source):
            calls.append(source)
            return real(source)

        monkeypatch.setattr(c_backend, "compile_shared_object", counting)
        # pretend the entry's bytes came from another machine; the key
        # lookup must keep matching (same live fingerprint) while the
        # thaw refuses the bytes and recompiles from source
        (entry,) = store.entries()
        with np.load(entry.path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
            arrays = {n: data[n] for n in data.files if n != "__meta__"}
        meta["c_exec"]["toolchain"] = "cc:feedfacefeedface"
        store.put(meta["key"], {k: v for k, v in meta.items()
                                if k not in ("format", "version", "key",
                                             "created", "model")},
                  arrays, model="mlp")
        seed_all(3)
        warm = compile_cached(MLP, 4, options=self._c_opts(), cache=store)
        assert warm.compile_report.cache_hit
        assert calls  # recompiled from source
        assert self._run(warm) == want
        warm.close()

    @needs_toolchain
    def test_deduplicated_program_thaws_bitwise(self, tmp_path,
                                                monkeypatch):
        # six identical hidden layers: most native steps call a twin's
        # kernel, and the entry must carry that mapping to rebind them
        deep = mlp_config(hidden=(16,) * 6 + (4,), classes=4, input_dim=16)
        store = CompileCache(tmp_path / "cache")

        def run(build):
            monkeypatch.setenv("REPRO_CBUILD_DIR", str(tmp_path / build))
            seed_all(4)
            cnet = compile_cached(deep, 4, options=self._c_opts(),
                                  cache=store)
            x = np.random.default_rng(4).standard_normal(
                (4, 16)).astype(np.float32)
            loss = cnet.forward(data=x, label=np.zeros((4, 1), np.float32))
            cnet.clear_param_grads()
            cnet.backward()
            grads = {p.key: p.grad.copy() for p in cnet.parameters()}
            return cnet, float(loss), grads

        cold, cold_loss, cold_grads = run("build1")
        symbols = dict(cold.compiled.c_symbols)
        assert len(symbols) >= 20
        (entry,) = store.entries()
        with np.load(entry.path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["__meta__"]).decode())
        assert meta["c_exec"]["symbols"] == symbols
        assert set(symbols) <= set(meta["c_exec"]["steps"])
        # a fresh build dir: the thaw installs the entry's bytes and
        # binds every twin to its owner's symbol
        warm, warm_loss, warm_grads = run("build2")
        assert warm.compile_report.cache_hit
        assert warm.compiled.c_symbols == symbols
        assert warm.compiled.c_steps == cold.compiled.c_steps
        assert warm_loss == cold_loss
        for key, grad in cold_grads.items():
            np.testing.assert_array_equal(warm_grads[key], grad)
        cold.close()
        warm.close()

    @needs_toolchain
    def test_toolchain_is_part_of_the_c_key_only(self, monkeypatch):
        from repro.codegen import c_backend

        base_c = cache_key(as_builder(MLP), 4, self._c_opts(), 1, None)
        base_np = cache_key(as_builder(MLP), 4, CompilerOptions(), 1, None)
        monkeypatch.setattr(c_backend, "toolchain_fingerprint",
                            lambda: "cc:0123456789abcdef")
        assert cache_key(as_builder(MLP), 4, self._c_opts(), 1,
                         None) != base_c
        assert cache_key(as_builder(MLP), 4, CompilerOptions(), 1,
                         None) == base_np
