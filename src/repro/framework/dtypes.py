"""Numeric dtypes for the mini framework, including emulated low precision.

Real ScaleFold trains in bfloat16 on H100 GPUs.  We execute everything in
numpy float32/float64 and *emulate* narrower formats by rounding results to
the representable set of the target format after every kernel.  This keeps
the numerics honest enough to observe precision effects (e.g. fp16 overflow
producing NaNs, §3.4 of the paper) while staying pure-numpy.

The dtype also carries ``itemsize`` which the kernel tracer uses to compute
memory traffic: switching the model to bf16 halves the bytes moved by every
memory-bound kernel, which is exactly why the paper reports a 1.24x speedup
from bf16 on a memory-bound workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """A logical tensor element type.

    Attributes:
        name: canonical name, e.g. ``"bf16"``.
        itemsize: bytes per element *on the simulated device*.
        storage: numpy dtype used to hold values host-side.
        exponent_bits: exponent width of the simulated format.
        mantissa_bits: explicit mantissa width of the simulated format.
    """

    name: str
    itemsize: int
    storage: type
    exponent_bits: int
    mantissa_bits: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"dtype({self.name})"

    @property
    def is_floating(self) -> bool:
        return self.exponent_bits > 0

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude of the simulated format."""
        if not self.is_floating:
            return float(2 ** (8 * self.itemsize - 1) - 1)
        bias = 2 ** (self.exponent_bits - 1) - 1
        max_exp = 2**self.exponent_bits - 2 - bias
        mantissa = 2.0 - 2.0**-self.mantissa_bits
        return mantissa * 2.0**max_exp


float64 = DType("fp64", 8, np.float64, 11, 52)
float32 = DType("fp32", 4, np.float32, 8, 23)
tfloat32 = DType("tf32", 4, np.float32, 8, 10)
bfloat16 = DType("bf16", 2, np.float32, 8, 7)
float16 = DType("fp16", 2, np.float32, 5, 10)
int64 = DType("int64", 8, np.int64, 0, 0)
int32 = DType("int32", 4, np.int32, 0, 0)
bool_ = DType("bool", 1, np.bool_, 0, 0)

_BY_NAME = {
    d.name: d
    for d in (float64, float32, tfloat32, bfloat16, float16, int64, int32, bool_)
}

#: Promotion order for mixed-dtype arithmetic: widest wins.
_PROMOTION_ORDER = [bool_, int32, int64, float16, bfloat16, tfloat32, float32, float64]
_RANK = {d: i for i, d in enumerate(_PROMOTION_ORDER)}


def as_dtype(value) -> DType:
    """Coerce a name, numpy dtype, or ``DType`` to a ``DType``."""
    if isinstance(value, DType):
        return value
    if isinstance(value, str):
        try:
            return _BY_NAME[value]
        except KeyError:
            raise ValueError(f"unknown dtype name {value!r}") from None
    np_dtype = np.dtype(value)
    if np_dtype == np.float64:
        return float64
    if np_dtype == np.float32:
        return float32
    if np_dtype == np.float16:
        return float16
    if np_dtype in (np.int64, np.intp):
        return int64
    if np_dtype == np.int32:
        return int32
    if np_dtype == np.bool_:
        return bool_
    raise ValueError(f"unsupported numpy dtype {np_dtype}")


def promote(*dtypes: DType) -> DType:
    """Result dtype of an arithmetic op over operands of ``dtypes``."""
    if not dtypes:
        raise ValueError("promote() requires at least one dtype")
    return max(dtypes, key=_RANK.__getitem__)


def quantize(array: np.ndarray, dtype: DType) -> np.ndarray:
    """Round ``array`` to the representable set of ``dtype``.

    For fp32/fp64 this is a cast.  For the narrow floats we truncate the
    mantissa (round-to-nearest-even on the dropped bits for bf16/tf32 via the
    integer trick; fp16 uses numpy's native half rounding which also models
    its narrow exponent, i.e. values above 65504 overflow to inf exactly as
    naive fp16 training does in the paper).
    """
    if not dtype.is_floating:
        return array.astype(dtype.storage)
    if dtype is float64:
        return array.astype(np.float64)
    if dtype is float32:
        return array.astype(np.float32)
    if dtype is float16:
        with np.errstate(over="ignore"):  # overflow to inf IS the emulation
            return array.astype(np.float16).astype(np.float32)
    # bf16 / tf32: round fp32 mantissa down to `mantissa_bits` explicit bits.
    drop = 23 - dtype.mantissa_bits
    as_int = np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)
    # Round-to-nearest-even: add half-ULP (plus LSB parity), then mask.
    lsb = (as_int >> drop) & 1
    rounding_bias = (np.uint32(1) << (drop - 1)) - 1 + lsb
    rounded = (as_int + rounding_bias) & ~np.uint32((1 << drop) - 1)
    return rounded.view(np.float32).copy()
