"""End-to-end tests for non-affine (general gather) connections —
the fallback path of §5.1's implicit adjacency lists.

A permutation layer and a "mirror" layer use mapping functions no affine
window can describe; the compiler materializes index arrays and routes
values (and gradients, via scatter-add) through them.
"""

import numpy as np
import pytest

from repro.core import Ensemble, Net
from repro.layers import MemoryDataLayer
from repro.layers.neurons import AddNeuron, ScaleNeuron
from repro.core import Dim, FieldBinding
from repro.optim import CompilerOptions
from tests.conftest import run_backward_seeded

B, N = 3, 8

#: a fixed pseudo-random permutation of 0..N-1
PERM = [5, 2, 7, 0, 3, 6, 1, 4]


def _identity_like(net, name, src, mapping):
    ens = Ensemble(net, name, ScaleNeuron, (N,), fields={
        "scale": FieldBinding(np.ones((1, N), np.float32), (0, Dim(0)))
    })
    net.add_connections(src, ens, mapping)
    return ens


@pytest.mark.parametrize("lvl", [0, 4])
class TestPermutation:
    def _build(self, lvl):
        net = Net(B)
        d = MemoryDataLayer(net, "data", (N,))
        _identity_like(net, "perm", d, lambda i: (PERM[i],))
        return net.init(CompilerOptions.level(lvl))

    def test_forward_permutes(self, lvl):
        cn = self._build(lvl)
        x = np.random.default_rng(0).standard_normal((B, N)).astype(
            np.float32
        )
        cn.forward(data=x)
        np.testing.assert_allclose(cn.value("perm"), x[:, PERM], rtol=1e-6)

    def test_backward_unpermutes(self, lvl):
        cn = self._build(lvl)
        x = np.random.default_rng(0).standard_normal((B, N)).astype(
            np.float32
        )
        cn.forward(data=x)
        g = np.random.default_rng(1).standard_normal((B, N)).astype(
            np.float32
        )
        run_backward_seeded(cn, "perm", g)
        expected = np.zeros_like(g)
        expected[:, PERM] = g
        np.testing.assert_allclose(cn.grad("data"), expected, rtol=1e-6)


class TestGatherWithFanIn:
    def test_duplicated_sources_accumulate_gradient(self):
        """A gather where several sinks read the same source neuron must
        scatter-add (np.add.at semantics)."""
        net = Net(B)
        d = MemoryDataLayer(net, "data", (4,))
        # every sink reads source 0 and one other
        mapping = lambda i: (range(0, 2),) if i < 2 else (range(2, 4),)
        ens = Ensemble(net, "g", AddNeuron, (4,))
        net.add_connections(d, ens, mapping)
        net.add_connections(d, ens, mapping)  # AddNeuron needs 2 inputs
        cn = net.init()
        x = np.arange(B * 4, dtype=np.float32).reshape(B, 4)
        cn.forward(data=x)
        expected = np.stack([
            x[:, 0] + x[:, 0], x[:, 1] + x[:, 1],
            x[:, 2] + x[:, 2], x[:, 3] + x[:, 3],
        ], axis=1)
        # AddNeuron sums inputs[0][0] + inputs[1][0] — first window elem
        np.testing.assert_allclose(
            cn.value("g"),
            np.stack([x[:, 0] * 2, x[:, 0] * 2, x[:, 2] * 2, x[:, 2] * 2],
                     axis=1),
            rtol=1e-6,
        )
        g = np.ones((B, 4), np.float32)
        run_backward_seeded(cn, "g", g)
        # source 0 feeds sinks 0 and 1 through both connections: grad 4
        assert (cn.grad("data")[:, 0] == 4).all()
        assert (cn.grad("data")[:, 2] == 4).all()
        assert (cn.grad("data")[:, 1] == 0).all()


class TestGatherStagingPools:
    def test_gather_output_is_defined_so_its_staging_buffer_pools(self):
        """The forward gather *defines* ``perm_inputs0`` (first access a
        write), so the planner may pool it in train mode — at PR 15 an
        extern's buffers were an undifferentiated touch, first access
        "live-in", never pooled. Results stay those of the unplanned
        program, bit for bit."""
        n = 16  # 4 x 16 x float32 = 256 B: no alignment padding
        perm = [(7 * i + 3) % n for i in range(n)]

        def run(memory_plan):
            net = Net(4)
            d = MemoryDataLayer(net, "data", (n,))
            ens = Ensemble(net, "perm", ScaleNeuron, (n,), fields={
                "scale": FieldBinding(np.ones((1, n), np.float32),
                                      (0, Dim(0)))
            })
            net.add_connections(d, ens, lambda i: (perm[i],))
            cn = net.init(CompilerOptions(memory_plan=memory_plan))
            x = np.random.default_rng(0).standard_normal((4, n)).astype(
                np.float32)
            cn.forward(data=x)
            g = np.random.default_rng(1).standard_normal((4, n)).astype(
                np.float32)
            run_backward_seeded(cn, "perm", g)
            return cn, cn.value("perm").copy(), cn.grad("data").copy()

        cn, value, dx = run(True)
        mem = cn.plan.memory
        assert mem.intervals["perm_inputs0"].first_kind == "w"
        assert "perm_inputs0" in mem.pooled
        _, value_u, dx_u = run(False)
        np.testing.assert_array_equal(value, value_u)
        np.testing.assert_array_equal(dx, dx_u)
