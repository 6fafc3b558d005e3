"""Forward-only compilation (``CompilerOptions(mode="inference")``).

Inference mode must be a pure *subtraction* from the train graph: the
backward program and its gradient/scratch buffers disappear, but the
forward schedule — and therefore every forward bit — is untouched.
These tests pin that contract plus the executor-facing surface
(``backward()`` refusal, clean errors for pruned buffers, accurate
``summary()``/``memory_stats()``) and the eval-mode dropout semantics
the server relies on.
"""

import numpy as np
import pytest

from repro.models import (
    DropoutSpec,
    FCSpec,
    ModelConfig,
    ReLUSpec,
    SoftmaxLossSpec,
    build_latte,
    lenet_config,
    mlp_config,
)
from repro.optim import CompilerOptions, compile_net
from repro.utils.rng import get_rng, seed_all


def _compiled(config, batch, options):
    """Seeded build + compile; returns (cnet, built)."""
    seed_all(20_26)
    bt = build_latte(config, batch)
    return compile_net(bt.net, options), bt


def _inputs(cnet, batch, classes, seed=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(
        cnet.value("data").shape, dtype=np.float32)
    y = rng.integers(0, classes, (batch, 1)).astype(np.float32)
    return x, y


DROP_CONFIG = ModelConfig(
    "mlp_drop", (16, 1, 1),
    (FCSpec("ip1", 8), ReLUSpec("relu1"), DropoutSpec("drop", 0.5),
     FCSpec("ip2", 4), SoftmaxLossSpec()),
    4,
)


class TestOptions:
    def test_mode_is_validated(self):
        with pytest.raises(ValueError, match="mode"):
            CompilerOptions(mode="predict")

    def test_inference_classmethod_wraps_level(self):
        opts = CompilerOptions.inference(3)
        assert opts.mode == "inference"
        assert opts.opt_level == 3
        assert opts == CompilerOptions(opt_level=3, mode="inference")

    def test_default_mode_is_train(self):
        assert CompilerOptions.level(4).mode == "train"


@pytest.mark.parametrize("config,batch", [
    (mlp_config(), 4),
    (lenet_config(), 2),
    (DROP_CONFIG, 4),
], ids=["mlp", "lenet", "dropout"])
class TestForwardParity:
    def test_forward_bitwise_matches_eval_train_graph(self, config, batch):
        train, bt = _compiled(config, batch, CompilerOptions.level(4))
        infer, _ = _compiled(config, batch, CompilerOptions.inference(4))
        out = bt.output.name
        x, y = _inputs(train, batch, config.classes)
        train.training = False
        loss_t = train.forward(data=x, label=y)
        loss_i = infer.forward(data=x, label=y)
        assert loss_i == loss_t
        np.testing.assert_array_equal(infer.value(out), train.value(out))

    def test_planned_bytes_shrink(self, config, batch):
        train, _ = _compiled(config, batch, CompilerOptions.level(4))
        infer, _ = _compiled(config, batch, CompilerOptions.inference(4))
        t, i = train.memory_stats(), infer.memory_stats()
        assert i["planned_bytes"] < t["planned_bytes"]
        assert i["naive_bytes"] < t["naive_bytes"]


class TestExecutorSurface:
    def test_backward_raises(self):
        infer, _ = _compiled(mlp_config(), 4, CompilerOptions.inference(4))
        x, y = _inputs(infer, 4, 10)
        infer.forward(data=x, label=y)
        with pytest.raises(RuntimeError, match="inference"):
            infer.backward()

    def test_training_flag_reflects_mode(self):
        infer, _ = _compiled(mlp_config(), 4, CompilerOptions.inference(4))
        assert infer.mode == "inference" and infer.training is False
        train, _ = _compiled(mlp_config(), 4, CompilerOptions.level(4))
        assert train.mode == "train" and train.training is True

    def test_grad_access_names_the_pruning(self):
        infer, _ = _compiled(mlp_config(), 4, CompilerOptions.inference(4))
        with pytest.raises(KeyError, match="inference"):
            infer.grad("ip2")

    def test_summary_marks_forward_only(self):
        infer, _ = _compiled(mlp_config(), 4, CompilerOptions.inference(4))
        text = infer.summary()
        assert "inference (forward-only)" in text
        assert "backward" not in text
        train, _ = _compiled(mlp_config(), 4, CompilerOptions.level(4))
        assert "backward" in train.summary()

    def test_memory_report_covers_forward_only_net(self):
        infer, _ = _compiled(lenet_config(), 2, CompilerOptions.inference(4))
        report = infer.memory_report()
        stats = infer.memory_stats()
        assert report.planned_bytes == stats["planned_bytes"]
        assert report.naive_bytes == stats["naive_bytes"]


class TestPrunePass:
    def test_prune_recorded_in_compile_report(self):
        infer, _ = _compiled(mlp_config(), 4, CompilerOptions.inference(4))
        rec = infer.compile_report["prune_buffers"]
        assert rec.enabled
        assert rec.rewrites["buffers_pruned"] > 0
        assert rec.rewrites["bytes_pruned"] > 0

    def test_prune_disabled_in_train_mode(self):
        train, _ = _compiled(mlp_config(), 4, CompilerOptions.level(4))
        assert not train.compile_report["prune_buffers"].enabled

    def test_params_survive_pruning(self):
        infer, _ = _compiled(lenet_config(), 2, CompilerOptions.inference(4))
        keys = {p.key for p in infer.parameters()}
        assert "conv1.weights" in keys and "ip2.bias" in keys
        for p in infer.parameters():
            assert p.value.size > 0


class TestDropoutEvalSemantics:
    """Satellite: dropout honors the executor ``training`` flag."""

    def test_train_mode_draws_fresh_masks(self):
        cnet, bt = _compiled(DROP_CONFIG, 4, CompilerOptions.level(4))
        x, y = _inputs(cnet, 4, 4)
        out = bt.output.name
        cnet.forward(data=x, label=y)
        first = cnet.value(out).copy()
        cnet.forward(data=x, label=y)
        assert not np.array_equal(cnet.value(out), first)

    def test_eval_mode_is_identity_and_deterministic(self):
        cnet, bt = _compiled(DROP_CONFIG, 4, CompilerOptions.level(4))
        x, y = _inputs(cnet, 4, 4)
        out = bt.output.name
        cnet.training = False
        cnet.forward(data=x, label=y)
        first = cnet.value(out).copy()
        np.testing.assert_array_equal(cnet.buffers["drop_mask"], 1.0)
        cnet.forward(data=x, label=y)
        np.testing.assert_array_equal(cnet.value(out), first)

    def test_eval_forward_does_not_advance_rng(self):
        cnet, _ = _compiled(DROP_CONFIG, 4, CompilerOptions.level(4))
        x, y = _inputs(cnet, 4, 4)
        cnet.training = False
        seed_all(99)
        state_before = get_rng().bit_generator.state
        cnet.forward(data=x, label=y)
        assert get_rng().bit_generator.state == state_before

    def test_inference_compilation_matches_eval_dropout(self):
        train, bt = _compiled(DROP_CONFIG, 4, CompilerOptions.level(4))
        infer, _ = _compiled(DROP_CONFIG, 4, CompilerOptions.inference(4))
        x, y = _inputs(train, 4, 4)
        out = bt.output.name
        train.training = False
        train.forward(data=x, label=y)
        infer.forward(data=x, label=y)
        np.testing.assert_array_equal(infer.value(out), train.value(out))
