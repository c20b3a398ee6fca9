"""Autograd: graph construction, accumulation, modes, scope attribution."""

import numpy as np
import pytest

from repro.framework import (Tensor, backward, enable_grad, grad_enabled,
                             no_grad, trace, zero_grads)
from repro.framework import ops
from repro.framework.autograd import _topological_order

RNG = np.random.default_rng(3)


def arr(*shape):
    return RNG.uniform(-1, 1, size=shape).astype(np.float32)


class TestGraph:
    def test_leaf_has_no_node(self):
        t = Tensor(arr(2), requires_grad=True)
        assert t.node is None

    def test_op_attaches_node(self):
        t = Tensor(arr(2), requires_grad=True)
        out = ops.exp(t)
        assert out.requires_grad
        assert out.node is not None
        assert out.node.op_name == "exp"

    def test_no_node_when_inputs_dont_require(self):
        out = ops.exp(Tensor(arr(2)))
        assert not out.requires_grad
        assert out.node is None

    def test_topological_order_parents_first(self):
        a = Tensor(arr(2), requires_grad=True)
        b = ops.exp(a)
        c = ops.mul(b, b)
        order = _topological_order(c)
        ids = [id(t) for t in order]
        assert ids.index(id(a)) < ids.index(id(b)) < ids.index(id(c))

    def test_release_graph_drops_every_node(self):
        from repro.framework.autograd import release_graph

        x = Tensor(arr(3), requires_grad=True)
        hidden = ops.exp(x)
        loss = ops.sum_(ops.mul(hidden, x))
        loss.backward()
        release_graph(loss)
        assert loss.node is None and hidden.node is None
        assert x.grad is not None


class TestBackward:
    def test_scalar_backward(self):
        t = Tensor(arr(3), requires_grad=True)
        ops.sum_(ops.mul(t, 3.0)).backward()
        assert np.allclose(t.grad.numpy(), [3.0, 3.0, 3.0])

    def test_nonscalar_requires_grad_arg(self):
        t = Tensor(arr(3), requires_grad=True)
        out = ops.mul(t, 2.0)
        with pytest.raises(ValueError, match="non-scalar"):
            out.backward()
        out.backward(Tensor(np.ones(3, np.float32)))
        assert np.allclose(t.grad.numpy(), [2.0, 2.0, 2.0])

    def test_diamond_accumulation(self):
        # y = x*2; z = x*3; loss = sum(y + z) -> dx = 5
        x = Tensor(arr(4), requires_grad=True)
        loss = ops.sum_(ops.add(ops.mul(x, 2.0), ops.mul(x, 3.0)))
        loss.backward()
        assert np.allclose(x.grad.numpy(), 5.0)

    def test_tensor_used_twice_in_one_op(self):
        x = Tensor(arr(4), requires_grad=True)
        ops.sum_(ops.mul(x, x)).backward()
        assert np.allclose(x.grad.numpy(), 2 * x.numpy(), atol=1e-5)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(arr(2), requires_grad=True)
        ops.sum_(x).backward()
        ops.sum_(x).backward()
        assert np.allclose(x.grad.numpy(), 2.0)

    def test_zero_grads(self):
        x = Tensor(arr(2), requires_grad=True)
        ops.sum_(x).backward()
        zero_grads([x])
        assert x.grad is None

    def test_deep_chain(self):
        x = Tensor(np.ones(1, np.float32), requires_grad=True)
        y = x
        for _ in range(200):
            y = ops.mul(y, 1.01)
        ops.sum_(y).backward()
        assert x.grad.item() == pytest.approx(1.01**200, rel=1e-3)

    def test_meta_backward(self):
        x = Tensor(None, (3, 4), requires_grad=True,
                   dtype=ops.dtypes.float32)
        loss = ops.mean(ops.exp(x))
        loss.backward()
        assert x.grad is not None and x.grad.is_meta
        assert x.grad.shape == (3, 4)


class TestGradModes:
    def test_no_grad_blocks_graph(self):
        x = Tensor(arr(2), requires_grad=True)
        with no_grad():
            y = ops.exp(x)
        assert y.node is None and not y.requires_grad

    def test_enable_grad_inside_no_grad(self):
        x = Tensor(arr(2), requires_grad=True)
        with no_grad():
            with enable_grad():
                y = ops.exp(x)
        assert y.requires_grad

    def test_mode_restored(self):
        assert grad_enabled()
        with no_grad():
            assert not grad_enabled()
        assert grad_enabled()


class TestScopeAttribution:
    def test_backward_records_carry_forward_scope(self):
        """Backward kernels attribute to the module that made the forward
        op — the fix that puts Evoformer's backward inside Evoformer's
        share (72% of step time)."""
        from repro.framework import tracer

        with trace() as t:
            with tracer.scope("mymodule"):
                x = Tensor(arr(4), requires_grad=True)
                y = ops.exp(x)
            loss = ops.sum_(y)
            loss.backward()
        backward_exp = [r for r in t.records
                        if r.scope == "mymodule" and r.name == "mul"]
        assert backward_exp, "exp's backward mul should land in mymodule scope"

    def test_error_on_wrong_grad_count(self):
        from repro.framework import autograd

        x = Tensor(arr(2), requires_grad=True)
        out = ops.exp(x)
        out.node = autograd.Node("bad", [x], lambda g: ())
        with pytest.raises(RuntimeError, match="backward returned"):
            ops.sum_(out).backward()
