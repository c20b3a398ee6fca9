"""Reverse-mode automatic differentiation over the traced op layer.

The tape is implicit: every differentiable op attaches a :class:`Node` to its
output tensor; ``backward()`` walks the graph in reverse topological order.
Crucially, backward functions are themselves written in terms of traced
primitive ops, so a traced backward pass launches kernels exactly like a real
framework would — this is how the backward half of Table 1's ~150k kernel
launches appears in our traces.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .tensor import Tensor

# Gradients are enabled by default, like torch.
_GRAD_ENABLED = [True]


def grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph construction inside the block."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


@contextlib.contextmanager
def enable_grad() -> Iterator[None]:
    _GRAD_ENABLED.append(True)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


class Node:
    """One differentiable op instance in the autograd graph."""

    __slots__ = ("op_name", "inputs", "backward_fn", "scope")

    def __init__(
        self,
        op_name: str,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[Tensor], Sequence[Optional[Tensor]]],
        scope: str = "",
    ) -> None:
        self.op_name = op_name
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn
        self.scope = scope

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.op_name})"


def attach(out: Tensor, op_name: str, inputs: Sequence[Tensor],
           backward_fn: Callable[[Tensor], Sequence[Optional[Tensor]]]) -> Tensor:
    """Attach a backward node to ``out`` if grad mode requires it.

    The module scope active at creation is captured so backward kernels can
    be attributed to the module that produced the forward op.
    """
    if grad_enabled() and any(t.requires_grad for t in inputs):
        from . import tracer  # local import to avoid a cycle at module load

        active = tracer.current_trace()
        scope = active.current_scope if active is not None else ""
        out.requires_grad = True
        out.node = Node(op_name, inputs, backward_fn, scope=scope)
    return out


def _topological_order(root: Tensor) -> List[Tensor]:
    """Tensors reachable from ``root`` through nodes, children before parents."""
    order: List[Tensor] = []
    visited = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            order.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor.node is not None:
            for parent in tensor.node.inputs:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return order


def release_graph(root: Tensor) -> None:
    """Drop the nodes of ``root``'s graph so it is freed by reference
    counting (backward closures hold their outputs, a cycle otherwise)."""
    for tensor in _topological_order(root):
        tensor.node = None


def backward(root: Tensor, grad: Optional[Tensor] = None) -> None:
    """Populate ``.grad`` on every reachable leaf with ``requires_grad``.

    ``root`` must be scalar unless ``grad`` (the incoming cotangent) is given.
    Gradient accumulation uses the traced ``add`` kernel so accumulation cost
    is visible to the performance model.
    """
    from . import ops, tracer  # local imports: ops imports this module

    if grad is None:
        if root.size != 1:
            raise ValueError(
                f"backward() on non-scalar tensor of shape {root.shape} "
                "requires an explicit gradient"
            )
        grad = ops.ones_like(root)

    grads = {id(root): grad}
    with no_grad():
        for tensor in reversed(_topological_order(root)):
            g = grads.pop(id(tensor), None)
            if g is None:
                continue
            node = tensor.node
            if node is None:
                if tensor.requires_grad:
                    tensor.grad = g if tensor.grad is None else ops.add(tensor.grad, g)
                continue
            with tracer.absolute_scope(node.scope):
                input_grads = node.backward_fn(g)
            if len(input_grads) != len(node.inputs):
                raise RuntimeError(
                    f"{node.op_name} backward returned {len(input_grads)} grads "
                    f"for {len(node.inputs)} inputs"
                )
            for parent, pg in zip(node.inputs, input_grads):
                if pg is None or not parent.requires_grad:
                    continue
                if pg.shape != parent.shape:
                    raise RuntimeError(
                        f"{node.op_name} backward produced grad of shape {pg.shape} "
                        f"for input of shape {parent.shape}"
                    )
                key = id(parent)
                if key in grads:
                    grads[key] = ops.add(grads[key], pg)
                else:
                    grads[key] = pg


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None
