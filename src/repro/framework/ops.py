"""Traced primitive operations.

Every function here is one *kernel launch* on the simulated device: it
computes values (numeric mode) or just the output shape (meta mode), emits a
:class:`~repro.framework.tracer.KernelRecord`, and registers a backward
function built from the same primitives so backward launches are traced too.

The deliberately fine granularity mirrors unfused PyTorch eager execution —
e.g. an unfused LayerNorm decomposes into ~9 launches here (mean, subtract,
square, mean, add-eps, rsqrt, multiply, multiply, add), which is precisely
the fragmentation ScaleFold's fused kernels eliminate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import autograd, dtypes, tracer
from .dtypes import DType
from .tensor import Tensor, as_tensor, get_rng

Axis = Union[int, Tuple[int, ...], None]

# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------


def _normalize_axes(axis: Axis, ndim: int) -> Tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _reduced_shape(shape: Tuple[int, ...], axes: Tuple[int, ...],
                   keepdims: bool) -> Tuple[int, ...]:
    if keepdims:
        return tuple(1 if i in axes else s for i, s in enumerate(shape))
    return tuple(s for i, s in enumerate(shape) if i not in axes)


def _coerce_pair(a, b) -> Tuple[Tensor, Tensor]:
    """Coerce a binary-op operand pair; python scalars adopt the tensor dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = as_tensor(b, dtype=a.dtype if a.dtype.is_floating else None)
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = as_tensor(a, dtype=b.dtype if b.dtype.is_floating else None)
    else:
        a, b = as_tensor(a), as_tensor(b)
    return a, b


def _make_out(data: Optional[np.ndarray], shape: Sequence[int], dtype: DType) -> Tensor:
    if data is None:
        return Tensor(None, shape, dtype)
    if dtype.is_floating:
        data = dtypes.quantize(np.asarray(data), dtype)
    return Tensor(np.asarray(data, dtype=dtype.storage), dtype=dtype)


def _emit(name: str, category: tracer.KernelCategory, out: Tensor,
          inputs: Sequence[Tensor], flops: float, fused: bool = False,
          tunable: Optional[str] = None, extra_bytes: float = 0.0) -> None:
    bytes_moved = out.nbytes + sum(t.nbytes for t in inputs) + extra_bytes
    tracer.emit(name, category, flops, bytes_moved, out.shape, out.dtype.name,
                fused=fused, tunable=tunable)


def unbroadcast(grad: Tensor, target_shape: Tuple[int, ...]) -> Tensor:
    """Reduce ``grad`` back to ``target_shape`` after numpy broadcasting."""
    if grad.shape == target_shape:
        return grad
    # Sum away leading extra dims.
    extra = grad.ndim - len(target_shape)
    if extra > 0:
        grad = sum_(grad, axis=tuple(range(extra)))
    # Sum dims that were broadcast from size 1.
    axes = tuple(i for i, (g, t) in enumerate(zip(grad.shape, target_shape)) if t == 1 and g != 1)
    if axes:
        grad = sum_(grad, axis=axes, keepdims=True)
    if grad.shape != target_shape:
        grad = reshape(grad, target_shape)
    return grad


# ----------------------------------------------------------------------
# Memory ops: cast / copy / fills
# ----------------------------------------------------------------------


def cast(t: Tensor, dtype: DType) -> Tensor:
    """Dtype conversion (a real kernel on device, category memory-operation)."""
    t = as_tensor(t)
    if t.dtype is dtype:
        return t
    data = None if t.is_meta else t.data
    out = _make_out(data, t.shape, dtype)
    _emit("cast", tracer.KernelCategory.MEMORY_OP, out, [t], 0.0)
    in_dtype = t.dtype

    def backward_fn(g: Tensor):
        return (cast(g, in_dtype) if in_dtype.is_floating else None,)

    return autograd.attach(out, "cast", [t], backward_fn)


def copy(t: Tensor) -> Tensor:
    """Device-to-device copy (contiguous materialization)."""
    t = as_tensor(t)
    data = None if t.is_meta else t.data.copy()
    out = _make_out(data, t.shape, t.dtype)
    _emit("copy", tracer.KernelCategory.MEMORY_OP, out, [t], 0.0)
    return autograd.attach(out, "copy", [t], lambda g: (g,))


def zeros_like(t: Tensor) -> Tensor:
    out = _make_out(None if t.is_meta else np.zeros(t.shape), t.shape, t.dtype)
    _emit("fill", tracer.KernelCategory.MEMORY_OP, out, [], 0.0)
    return out


def ones_like(t: Tensor) -> Tensor:
    out = _make_out(None if t.is_meta else np.ones(t.shape), t.shape, t.dtype)
    _emit("fill", tracer.KernelCategory.MEMORY_OP, out, [], 0.0)
    return out


# ----------------------------------------------------------------------
# Elementwise binary ops
# ----------------------------------------------------------------------


def _binary(name: str, a, b, np_fn, grad_fn, flops_per_elem: float = 1.0) -> Tensor:
    a, b = _coerce_pair(a, b)
    out_shape = (a.shape if a.shape == b.shape
                 else np.broadcast_shapes(a.shape, b.shape))
    out_dtype = dtypes.promote(a.dtype, b.dtype)
    data = None if (a.is_meta or b.is_meta) else np_fn(a.data, b.data)
    out = _make_out(data, out_shape, out_dtype)
    _emit(name, tracer.KernelCategory.MEMORY, out, [a, b],
          flops_per_elem * out.size)
    return autograd.attach(out, name, [a, b], lambda g: grad_fn(g, a, b, out))


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add,
                   lambda g, a, b, o: (unbroadcast(g, a.shape), unbroadcast(g, b.shape)))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract,
                   lambda g, a, b, o: (unbroadcast(g, a.shape),
                                       unbroadcast(neg(g), b.shape)))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, a, b, o: (unbroadcast(mul(g, b), a.shape),
                                       unbroadcast(mul(g, a), b.shape)))


def div(a, b) -> Tensor:
    def grad(g, a, b, o):
        ga = unbroadcast(div(g, b), a.shape)
        gb = unbroadcast(neg(div(mul(g, o), b)), b.shape)
        return ga, gb

    return _binary("div", a, b, np.divide, grad)


def pow_(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    e = float(exponent)
    data = None if a.is_meta else np.power(a.data, e)
    out = _make_out(data, a.shape, a.dtype)
    _emit("pow", tracer.KernelCategory.MEMORY, out, [a], out.size)

    def backward_fn(g: Tensor):
        return (mul(g, mul(pow_(a, e - 1.0), e)),)

    return autograd.attach(out, "pow", [a], backward_fn)


def maximum(a, b) -> Tensor:
    def grad(g, a, b, o):
        mask = ge(a, b)
        ga = unbroadcast(mul(g, cast(mask, g.dtype)), a.shape)
        gb = unbroadcast(mul(g, cast(lt(a, b), g.dtype)), b.shape)
        return ga, gb

    return _binary("maximum", a, b, np.maximum, grad)


def minimum(a, b) -> Tensor:
    def grad(g, a, b, o):
        ga = unbroadcast(mul(g, cast(le(a, b), g.dtype)), a.shape)
        gb = unbroadcast(mul(g, cast(gt(a, b), g.dtype)), b.shape)
        return ga, gb

    return _binary("minimum", a, b, np.minimum, grad)


# ----------------------------------------------------------------------
# Comparisons (no gradients)
# ----------------------------------------------------------------------


def _compare(name: str, a, b, np_fn) -> Tensor:
    a, b = _coerce_pair(a, b)
    out_shape = (a.shape if a.shape == b.shape
                 else np.broadcast_shapes(a.shape, b.shape))
    data = None if (a.is_meta or b.is_meta) else np_fn(a.data, b.data)
    out = _make_out(data, out_shape, dtypes.bool_)
    _emit(name, tracer.KernelCategory.MEMORY, out, [a, b], out.size)
    return out


def eq(a, b) -> Tensor:
    return _compare("eq", a, b, np.equal)


def ne(a, b) -> Tensor:
    return _compare("ne", a, b, np.not_equal)


def gt(a, b) -> Tensor:
    return _compare("gt", a, b, np.greater)


def lt(a, b) -> Tensor:
    return _compare("lt", a, b, np.less)


def ge(a, b) -> Tensor:
    return _compare("ge", a, b, np.greater_equal)


def le(a, b) -> Tensor:
    return _compare("le", a, b, np.less_equal)


# ----------------------------------------------------------------------
# Elementwise unary ops
# ----------------------------------------------------------------------


def _unary(name: str, t, np_fn, grad_fn, flops_per_elem: float = 1.0) -> Tensor:
    t = as_tensor(t)
    data = None if t.is_meta else np_fn(t.data)
    out = _make_out(data, t.shape, t.dtype)
    _emit(name, tracer.KernelCategory.MEMORY, out, [t], flops_per_elem * out.size)
    return autograd.attach(out, name, [t], lambda g: grad_fn(g, t, out))


def neg(t) -> Tensor:
    return _unary("neg", t, np.negative, lambda g, t, o: (neg(g),))


def exp(t) -> Tensor:
    return _unary("exp", t, np.exp, lambda g, t, o: (mul(g, o),), flops_per_elem=4)


def log(t) -> Tensor:
    return _unary("log", t, np.log, lambda g, t, o: (div(g, t),), flops_per_elem=4)


def sqrt(t) -> Tensor:
    return _unary("sqrt", t, np.sqrt,
                  lambda g, t, o: (div(mul(g, 0.5), o),), flops_per_elem=2)


def rsqrt(t) -> Tensor:
    def grad(g, t, o):
        # d/dx x^(-1/2) = -0.5 x^(-3/2) = -0.5 * o / x
        return (neg(div(mul(g, mul(o, 0.5)), t)),)

    return _unary("rsqrt", t, lambda x: 1.0 / np.sqrt(x), grad, flops_per_elem=2)


def square(t) -> Tensor:
    return _unary("square", t, np.square, lambda g, t, o: (mul(g, mul(t, 2.0)),))


def reciprocal(t) -> Tensor:
    return _unary("reciprocal", t, np.reciprocal,
                  lambda g, t, o: (neg(mul(g, square(o))),))


def abs_(t) -> Tensor:
    return _unary("abs", t, np.abs,
                  lambda g, t, o: (mul(g, sign(t)),))


def sign(t) -> Tensor:
    return _unary("sign", t, np.sign, lambda g, t, o: (None,))


def relu(t) -> Tensor:
    def grad(g, t, o):
        return (mul(g, cast(gt(t, 0.0), g.dtype)),)

    return _unary("relu", t, lambda x: np.maximum(x, 0.0), grad)


def sigmoid(t) -> Tensor:
    def grad(g, t, o):
        return (mul(g, mul(o, sub(1.0, o))),)

    return _unary("sigmoid", t, lambda x: 1.0 / (1.0 + np.exp(-x)), grad,
                  flops_per_elem=4)


def tanh(t) -> Tensor:
    def grad(g, t, o):
        return (mul(g, sub(1.0, square(o))),)

    return _unary("tanh", t, np.tanh, grad, flops_per_elem=4)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(t) -> Tensor:
    """tanh-approximation GELU (matches OpenFold's default activation use)."""

    def np_fn(x):
        return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))

    def grad(g, t, o):
        inner = mul(_GELU_C, add(t, mul(pow_(t, 3.0), 0.044715)))
        th = tanh(inner)
        sech2 = sub(1.0, square(th))
        d_inner = mul(_GELU_C, add(1.0, mul(square(t), 3.0 * 0.044715)))
        d = add(mul(0.5, add(1.0, th)), mul(mul(mul(0.5, t), sech2), d_inner))
        return (mul(g, d),)

    return _unary("gelu", t, np_fn, grad, flops_per_elem=8)


def clamp(t, min_value: Optional[float] = None, max_value: Optional[float] = None) -> Tensor:
    lo = -np.inf if min_value is None else min_value
    hi = np.inf if max_value is None else max_value

    def grad(g, t, o):
        inside = mul(cast(ge(t, lo), g.dtype), cast(le(t, hi), g.dtype))
        return (mul(g, inside),)

    return _unary("clamp", t, lambda x: np.clip(x, lo, hi), grad)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------


def where(cond: Tensor, a, b) -> Tensor:
    cond = as_tensor(cond)
    a, b = _coerce_pair(a, b)
    out_shape = np.broadcast_shapes(cond.shape, a.shape, b.shape)
    out_dtype = dtypes.promote(a.dtype, b.dtype)
    meta = cond.is_meta or a.is_meta or b.is_meta
    data = None if meta else np.where(cond.data, a.data, b.data)
    out = _make_out(data, out_shape, out_dtype)
    _emit("where", tracer.KernelCategory.MEMORY, out, [cond, a, b], out.size)

    def backward_fn(g: Tensor):
        mask = cast(cond, g.dtype)
        ga = unbroadcast(mul(g, mask), a.shape)
        gb = unbroadcast(mul(g, sub(1.0, mask)), b.shape)
        return None, ga, gb

    return autograd.attach(out, "where", [cond, a, b], backward_fn)


def masked_fill(t: Tensor, mask: Tensor, value: float) -> Tensor:
    """Set positions where ``mask`` is true to ``value`` (e.g. -inf bias)."""
    t, mask = as_tensor(t), as_tensor(mask)
    out_shape = np.broadcast_shapes(t.shape, mask.shape)
    meta = t.is_meta or mask.is_meta
    data = None if meta else np.where(mask.data, np.asarray(value, t.dtype.storage), t.data)
    out = _make_out(data, out_shape, t.dtype)
    _emit("masked_fill", tracer.KernelCategory.MEMORY, out, [t, mask], out.size)

    def backward_fn(g: Tensor):
        keep = sub(1.0, cast(mask, g.dtype))
        return unbroadcast(mul(g, keep), t.shape), None

    return autograd.attach(out, "masked_fill", [t, mask], backward_fn)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------


def sum_(t: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    t = as_tensor(t)
    axes = _normalize_axes(axis, t.ndim)
    out_shape = _reduced_shape(t.shape, axes, keepdims)
    data = None if t.is_meta else np.sum(t.data, axis=axes or None, keepdims=keepdims)
    out = _make_out(data, out_shape, t.dtype)
    _emit("reduce_sum", tracer.KernelCategory.MEMORY, out, [t], t.size)

    def backward_fn(g: Tensor):
        gk = reshape(g, _reduced_shape(t.shape, axes, True)) if not keepdims else g
        return (broadcast_to(gk, t.shape),)

    return autograd.attach(out, "reduce_sum", [t], backward_fn)


def mean(t: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    t = as_tensor(t)
    axes = _normalize_axes(axis, t.ndim)
    out_shape = _reduced_shape(t.shape, axes, keepdims)
    count = 1
    for a in axes:
        count *= t.shape[a]
    data = None if t.is_meta else np.mean(t.data, axis=axes or None, keepdims=keepdims)
    out = _make_out(data, out_shape, t.dtype)
    _emit("reduce_mean", tracer.KernelCategory.MEMORY, out, [t], t.size)

    def backward_fn(g: Tensor):
        gk = reshape(g, _reduced_shape(t.shape, axes, True)) if not keepdims else g
        return (div(broadcast_to(gk, t.shape), float(count)),)

    return autograd.attach(out, "reduce_mean", [t], backward_fn)


def _minmax(name: str, t: Tensor, axis: Axis, keepdims: bool, np_fn) -> Tensor:
    t = as_tensor(t)
    axes = _normalize_axes(axis, t.ndim)
    out_shape = _reduced_shape(t.shape, axes, keepdims)
    data = None if t.is_meta else np_fn(t.data, axis=axes or None, keepdims=keepdims)
    out = _make_out(data, out_shape, t.dtype)
    _emit(name, tracer.KernelCategory.MEMORY, out, [t], t.size)

    def backward_fn(g: Tensor):
        gk = g if keepdims else reshape(g, _reduced_shape(t.shape, axes, True))
        ok = out if keepdims else reshape(out, _reduced_shape(t.shape, axes, True))
        hit = cast(eq(t, broadcast_to(ok, t.shape)), g.dtype)
        # Split gradient evenly among ties, as torch does for amax/amin.
        ties = sum_(hit, axis=axes, keepdims=True)
        share = div(hit, broadcast_to(ties, t.shape))
        return (mul(broadcast_to(gk, t.shape), share),)

    return autograd.attach(out, name, [t], backward_fn)


def amax(t: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    return _minmax("reduce_max", t, axis, keepdims, np.max)


def amin(t: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    return _minmax("reduce_min", t, axis, keepdims, np.min)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax as ONE kernel (torch-style cunn_SoftMax).

    Forward traffic ~2 passes (read x, write y); backward is a single kernel
    computing ``y * (g - sum(g * y))``.  The ScaleFold story is about fusing
    softmax *with its surrounding MHA ops*, not about softmax itself being
    multi-kernel — see ``functional.softmax_decomposed`` for the fully
    unfused variant.
    """
    t = as_tensor(t)
    axis = axis % t.ndim
    if t.is_meta:
        out = Tensor(None, t.shape, t.dtype)
    else:
        m = t.data.max(axis=axis, keepdims=True)
        # A fully-masked row (attention mask bias pushes every logit to
        # -inf) has m == -inf; exp(-inf - -inf) would be NaN.  Guard the
        # row max and emit an all-zero row instead, matching the fused MHA
        # and tiled-flash kernels in repro.kernels.attention.
        safe_m = np.where(np.isinf(m), 0.0, m)
        e = np.exp(t.data - safe_m)
        denom = e.sum(axis=axis, keepdims=True)
        y = np.divide(e, denom, out=np.zeros_like(e),
                      where=denom > 0)
        out = _make_out(y, t.shape, t.dtype)
    _emit("softmax", tracer.KernelCategory.MEMORY, out, [t], 5.0 * t.size)

    def backward_fn(g: Tensor):
        if g.is_meta or out.is_meta:
            gx = Tensor(None, t.shape, t.dtype)
        else:
            y = out.data.astype(np.float32)
            go = g.data.astype(np.float32)
            dx = y * (go - np.sum(go * y, axis=axis, keepdims=True))
            gx = _make_out(dx, t.shape, t.dtype)
        _emit("softmax_bwd", tracer.KernelCategory.MEMORY, gx, [g, out],
              4.0 * t.size)
        return (gx,)

    return autograd.attach(out, "softmax", [t], backward_fn)


# ----------------------------------------------------------------------
# Matrix multiply (the only math-bounded kernel family)
# ----------------------------------------------------------------------


def _matmul_out_shape(a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
    if len(a) < 2 or len(b) < 2:
        raise ValueError(f"matmul needs >=2-d operands, got {a} @ {b}")
    if a[-1] != b[-2]:
        raise ValueError(f"matmul inner-dim mismatch: {a} @ {b}")
    batch = (a[:-2] if a[:-2] == b[:-2]
             else np.broadcast_shapes(a[:-2], b[:-2]))
    return tuple(batch) + (a[-2], b[-1])


def matmul(a: Tensor, b: Tensor, tunable: Optional[str] = None,
           name: str = "matmul") -> Tensor:
    """Batched GEMM. Category: math-bounded (Table 1)."""
    a, b = as_tensor(a), as_tensor(b)
    out_shape = _matmul_out_shape(a.shape, b.shape)
    out_dtype = dtypes.promote(a.dtype, b.dtype)
    data = None if (a.is_meta or b.is_meta) else np.matmul(a.data, b.data)
    out = _make_out(data, out_shape, out_dtype)
    m, n = out_shape[-2], out_shape[-1]
    k = a.shape[-1]
    batch = 1
    for s in out_shape[:-2]:
        batch *= s
    _emit(name, tracer.KernelCategory.MATH, out, [a, b],
          2.0 * batch * m * n * k, tunable=tunable)

    def backward_fn(g: Tensor):
        ga = unbroadcast(matmul(g, transpose(b, -1, -2)), a.shape)
        gb = unbroadcast(matmul(transpose(a, -1, -2), g), b.shape)
        return ga, gb

    return autograd.attach(out, name, [a, b], backward_fn)


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    """Free view (no kernel) — mirrors contiguous torch reshape."""
    t = as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if -1 in shape:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        shape = tuple(t.size // known if s == -1 else s for s in shape)
    size = 1
    for s in shape:
        size *= s
    if size != t.size:
        raise ValueError(f"cannot reshape {t.shape} to {shape}")
    data = None if t.is_meta else t.data.reshape(shape)
    out = Tensor(data, shape, t.dtype)
    in_shape = t.shape
    return autograd.attach(out, "reshape", [t], lambda g: (reshape(g, in_shape),))


def permute(t: Tensor, axes: Sequence[int]) -> Tensor:
    """Dimension permutation; materializes (one memory-op kernel)."""
    t = as_tensor(t)
    axes = tuple(a % t.ndim for a in axes)
    out_shape = tuple(t.shape[a] for a in axes)
    data = None if t.is_meta else np.ascontiguousarray(np.transpose(t.data, axes))
    out = Tensor(data, out_shape, t.dtype)
    _emit("permute", tracer.KernelCategory.MEMORY_OP, out, [t], 0.0)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return autograd.attach(out, "permute", [t], lambda g: (permute(g, inverse),))


def transpose(t: Tensor, dim0: int = -1, dim1: int = -2) -> Tensor:
    t = as_tensor(t)
    axes = list(range(t.ndim))
    axes[dim0 % t.ndim], axes[dim1 % t.ndim] = axes[dim1 % t.ndim], axes[dim0 % t.ndim]
    return permute(t, axes)


def broadcast_to(t: Tensor, shape: Sequence[int]) -> Tensor:
    """Free expansion (stride-0 view, no kernel)."""
    t = as_tensor(t)
    shape = tuple(int(s) for s in shape)
    if t.shape == shape:
        return t
    np.broadcast_shapes(t.shape, shape)  # validate
    data = None if t.is_meta else np.broadcast_to(t.data, shape)
    out = Tensor(data, shape, t.dtype)
    in_shape = t.shape
    return autograd.attach(out, "broadcast", [t], lambda g: (unbroadcast(g, in_shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    axis = axis % tensors[0].ndim
    out_shape = list(tensors[0].shape)
    out_shape[axis] = sum(t.shape[axis] for t in tensors)
    meta = any(t.is_meta for t in tensors)
    data = None if meta else np.concatenate([t.data for t in tensors], axis=axis)
    out = _make_out(data, out_shape, dtypes.promote(*[t.dtype for t in tensors]))
    _emit("concat", tracer.KernelCategory.MEMORY_OP, out, tensors, 0.0)
    sizes = [t.shape[axis] for t in tensors]

    def backward_fn(g: Tensor):
        return tuple(split(g, sizes, axis=axis))

    return autograd.attach(out, "concat", tensors, backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    expanded = [reshape(t, t.shape[:axis] + (1,) + t.shape[axis:]) for t in tensors]
    return concat(expanded, axis=axis)


def split(t: Tensor, sizes: Sequence[int], axis: int = 0) -> List[Tensor]:
    t = as_tensor(t)
    axis = axis % t.ndim
    if sum(sizes) != t.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not cover axis of {t.shape[axis]}")
    outs: List[Tensor] = []
    offset = 0
    for size in sizes:
        idx = tuple(slice(None) if i != axis else slice(offset, offset + size)
                    for i in range(t.ndim))
        outs.append(getitem(t, idx))
        offset += size
    return outs


def _sliced_shape(shape: Tuple[int, ...], idx) -> Tuple[int, ...]:
    probe = np.broadcast_to(np.int8(0), shape)
    return probe[idx].shape


def getitem(t: Tensor, idx) -> Tensor:
    """Basic slicing; one copy kernel (category memory-operation)."""
    t = as_tensor(t)
    out_shape = _sliced_shape(t.shape, idx)
    data = None if t.is_meta else np.ascontiguousarray(t.data[idx])
    out = Tensor(data, out_shape, t.dtype)
    _emit("slice", tracer.KernelCategory.MEMORY_OP, out, [], extra_bytes=out.nbytes,
          flops=0.0)
    in_shape = t.shape

    def backward_fn(g: Tensor):
        return (_slice_scatter(g, in_shape, idx),)

    return autograd.attach(out, "slice", [t], backward_fn)


def _slice_scatter(g: Tensor, target_shape: Tuple[int, ...], idx) -> Tensor:
    if g.is_meta:
        out = Tensor(None, target_shape, g.dtype)
    else:
        buf = np.zeros(target_shape, dtype=g.dtype.storage)
        buf[idx] = g.data
        out = Tensor(buf, dtype=g.dtype)
    _emit("slice_scatter", tracer.KernelCategory.MEMORY_OP, out, [g], 0.0)
    return out


def pad(t: Tensor, pad_width: Sequence[Tuple[int, int]], value: float = 0.0) -> Tensor:
    t = as_tensor(t)
    if len(pad_width) != t.ndim:
        raise ValueError("pad_width must give (before, after) per dim")
    out_shape = tuple(s + lo + hi for s, (lo, hi) in zip(t.shape, pad_width))
    data = None if t.is_meta else np.pad(t.data, pad_width, constant_values=value)
    out = Tensor(data, out_shape, t.dtype)
    _emit("pad", tracer.KernelCategory.MEMORY_OP, out, [t], 0.0)

    def backward_fn(g: Tensor):
        idx = tuple(slice(lo, lo + s) for s, (lo, _hi) in zip(t.shape, pad_width))
        return (getitem(g, idx),)

    return autograd.attach(out, "pad", [t], backward_fn)


# ----------------------------------------------------------------------
# Indexed ops
# ----------------------------------------------------------------------


def gather(t: Tensor, axis: int, index: Tensor) -> Tensor:
    """``np.take_along_axis`` with a traced scatter-add backward."""
    t, index = as_tensor(t), as_tensor(index)
    axis = axis % t.ndim
    out_shape = tuple(index.shape[i] if i == axis else t.shape[i] for i in range(t.ndim))
    meta = t.is_meta or index.is_meta
    data = None if meta else np.take_along_axis(t.data, index.data, axis=axis)
    out = _make_out(data, out_shape, t.dtype)
    _emit("gather", tracer.KernelCategory.MEMORY, out, [t, index], 0.0)

    def backward_fn(g: Tensor):
        if g.is_meta:
            gt_ = Tensor(None, t.shape, g.dtype)
        else:
            buf = np.zeros(t.shape, dtype=g.dtype.storage)
            np.add.at(buf, _along_axis_indices(index.data, t.shape, axis), g.data)
            gt_ = Tensor(buf, dtype=g.dtype)
        _emit("scatter_add", tracer.KernelCategory.MEMORY, gt_, [g], g.size)
        return gt_, None

    return autograd.attach(out, "gather", [t, index], backward_fn)


def _along_axis_indices(index: np.ndarray, shape: Tuple[int, ...], axis: int):
    grids = np.meshgrid(*[np.arange(s) for s in index.shape], indexing="ij")
    return tuple(index if i == axis else grids[i] for i in range(len(shape)))


def one_hot(index: Tensor, num_classes: int, dtype: DType = dtypes.float32) -> Tensor:
    index = as_tensor(index)
    out_shape = index.shape + (num_classes,)
    if index.is_meta:
        out = Tensor(None, out_shape, dtype)
    else:
        buf = np.zeros(out_shape, dtype=dtype.storage)
        np.put_along_axis(buf, index.data[..., None].astype(np.int64), 1.0, axis=-1)
        out = Tensor(buf, dtype=dtype)
    _emit("one_hot", tracer.KernelCategory.MEMORY, out, [index], 0.0)
    return out


# ----------------------------------------------------------------------
# Randomness (dropout masks)
# ----------------------------------------------------------------------


def bernoulli_mask(shape: Sequence[int], keep_prob: float, meta: bool = False,
                   dtype: DType = dtypes.float32) -> Tensor:
    """Random keep-mask scaled by 1/keep_prob (inverted dropout)."""
    if meta:
        out = Tensor(None, tuple(shape), dtype)
    else:
        keep = (get_rng().random(tuple(shape)) < keep_prob).astype(dtype.storage)
        out = Tensor(keep / max(keep_prob, 1e-12), dtype=dtype)
    _emit("rng_mask", tracer.KernelCategory.MEMORY, out, [], out.size)
    return out


# ----------------------------------------------------------------------
# Operator installation on Tensor
# ----------------------------------------------------------------------


def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, e: pow_(self, e)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, idx: getitem(self, idx)
    Tensor.reshape = lambda self, *shape: reshape(
        self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)
    Tensor.permute = lambda self, *axes: permute(
        self, axes[0] if len(axes) == 1 and isinstance(axes[0], (tuple, list)) else axes)
    Tensor.transpose = lambda self, d0=-1, d1=-2: transpose(self, d0, d1)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)
    Tensor.backward = lambda self, grad=None: autograd.backward(self, grad)


_install_operators()
