"""Tensor dtypes with explicit byte sizes.

Communication cost is a function of *bytes*, so dtypes carry their
element size explicitly (NumPy's float16 stands in for CUDA half).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DType:
    """A tensor element type.

    Attributes:
        name: canonical torch-style name, e.g. ``"float32"``.
        numpy: the NumPy dtype used for storage.
        itemsize: bytes per element.
        is_floating: whether the type is a float type (affects which
            reduce ops are exact and whether compression applies).
    """

    name: str
    numpy: np.dtype
    itemsize: int
    is_floating: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"repro.{self.name}"


float16 = DType("float16", np.dtype(np.float16), 2, True)
float32 = DType("float32", np.dtype(np.float32), 4, True)
float64 = DType("float64", np.dtype(np.float64), 8, True)
int32 = DType("int32", np.dtype(np.int32), 4, False)
int64 = DType("int64", np.dtype(np.int64), 8, False)
uint8 = DType("uint8", np.dtype(np.uint8), 1, False)

_BY_NUMPY = {d.numpy: d for d in (float16, float32, float64, int32, int64, uint8)}


def dtype_from_numpy(np_dtype: np.dtype) -> DType:
    """Map a NumPy dtype to the matching :class:`DType`."""
    np_dtype = np.dtype(np_dtype)
    try:
        return _BY_NUMPY[np_dtype]
    except KeyError:
        raise ValueError(f"unsupported numpy dtype {np_dtype}") from None
