"""SimTensor: the torch-like tensor MCR-DL communicates.

A :class:`SimTensor` wraps a NumPy array together with a simulated
:class:`Device`.  The communication runtime consumes only the metadata a
real runtime would (``numel``, ``element_size``, ``device``, contiguity)
plus the raw buffer for data movement, so every collective is testable
for *correctness*, not just timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.tensor.dtypes import DType, dtype_from_numpy, float32


@dataclass(frozen=True)
class Device:
    """A simulated device: ``cpu`` or ``cuda:<index>``.

    In the simulation each rank owns exactly one GPU, so ``cuda:<rank>``
    identifies the owning rank's device.
    """

    kind: str  # "cpu" | "cuda"
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "cuda"):
            raise ValueError(f"unknown device kind {self.kind!r}")

    @property
    def is_cuda(self) -> bool:
        return self.kind == "cuda"

    def __str__(self) -> str:
        return self.kind if self.kind == "cpu" else f"cuda:{self.index}"

    @staticmethod
    def parse(spec: "str | Device") -> "Device":
        """Parse ``"cpu"`` / ``"cuda"`` / ``"cuda:3"`` into a Device."""
        if isinstance(spec, Device):
            return spec
        if spec == "cpu":
            return Device("cpu")
        if spec == "cuda":
            return Device("cuda", 0)
        if spec.startswith("cuda:"):
            return Device("cuda", int(spec.split(":", 1)[1]))
        raise ValueError(f"cannot parse device {spec!r}")


CPU = Device("cpu")


class SimTensor:
    """A dense tensor on a simulated device.

    Unlike a NumPy array, a SimTensor knows where it lives; the runtime
    charges host<->device staging time when a backend (e.g. a non
    CUDA-aware path, or the mpi4py baseline) must move it.

    A tensor may be *virtual*: it declares a logical element count
    (``virtual_numel``) far larger than its actual storage.  Virtual
    tensors exist for workload modeling — communication is *timed* from
    the declared size but no data is moved (a 600 MB gradient bucket in
    a 256-rank simulation would otherwise copy terabytes).  Correctness
    tests always use real tensors.
    """

    __slots__ = ("_data", "_device", "virtual_numel", "dtype")

    def __init__(
        self,
        data: np.ndarray,
        device: Device = CPU,
        virtual_numel: "int | None" = None,
    ):
        if not isinstance(data, np.ndarray):
            raise TypeError(f"SimTensor wraps numpy arrays, got {type(data).__name__}")
        #: the element type (validated); plain attributes, like
        #: ``virtual_numel``, because metadata reads run on every post
        self.dtype: DType = dtype_from_numpy(data.dtype)
        if virtual_numel is not None and virtual_numel < data.size:
            raise ValueError(
                f"virtual_numel {virtual_numel} smaller than storage {data.size}"
            )
        self._data = data
        self._device = device
        #: the declared element count of a virtual tensor; None when real
        self.virtual_numel = virtual_numel

    # -- metadata -----------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying NumPy buffer (shared, not copied)."""
        return self._data

    @property
    def device(self) -> Device:
        return self._device

    @property
    def is_virtual(self) -> bool:
        return self.virtual_numel is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    def numel(self) -> int:
        if self.virtual_numel is not None:
            return self.virtual_numel
        return int(self._data.size)

    def element_size(self) -> int:
        return self.dtype.itemsize

    def nbytes(self) -> int:
        numel = self.virtual_numel
        return (self._data.size if numel is None else numel) * self.dtype.itemsize

    def is_contiguous(self) -> bool:
        return bool(self._data.flags["C_CONTIGUOUS"])

    @property
    def is_cuda(self) -> bool:
        return self._device.is_cuda

    # -- construction / movement --------------------------------------

    def clone(self) -> "SimTensor":
        return SimTensor(self._data.copy(), self._device, self.virtual_numel)

    def contiguous(self) -> "SimTensor":
        if self.is_contiguous():
            return self
        return SimTensor(
            np.ascontiguousarray(self._data), self._device, self.virtual_numel
        )

    def to(self, device: "str | Device") -> "SimTensor":
        """Return a tensor on ``device``.

        Data is copied when the device changes (real staging time is
        charged by the runtime, not here — this is the data plane).
        """
        device = Device.parse(device)
        if device == self._device:
            return self
        return SimTensor(self._data.copy(), device)

    def cuda(self, index: int = 0) -> "SimTensor":
        return self.to(Device("cuda", index))

    def cpu(self) -> "SimTensor":
        return self.to(CPU)

    def view_flat(self) -> np.ndarray:
        """1-D view of the buffer (requires contiguity)."""
        if not self.is_contiguous():
            raise ValueError("view_flat requires a contiguous tensor")
        return self._data.reshape(-1)

    def reshape(self, *shape: int) -> "SimTensor":
        return SimTensor(self._data.reshape(*shape), self._device)

    def copy_(self, other: "SimTensor") -> "SimTensor":
        """In-place copy of ``other``'s values into this tensor."""
        if other.numel() != self.numel():
            raise ValueError(
                f"copy_ size mismatch: {other.numel()} into {self.numel()}"
            )
        self._data.reshape(-1)[:] = other._data.reshape(-1)
        return self

    def fill_(self, value: float) -> "SimTensor":
        self._data.fill(value)
        return self

    def chunk(self, chunks: int) -> list["SimTensor"]:
        """Split the flattened tensor into ``chunks`` equal parts."""
        flat = self.view_flat()
        if flat.size % chunks != 0:
            raise ValueError(f"numel {flat.size} not divisible by {chunks}")
        step = flat.size // chunks
        return [
            SimTensor(flat[i * step : (i + 1) * step], self._device)
            for i in range(chunks)
        ]

    # -- arithmetic (element-wise, same-device) ------------------------

    def _binary(self, other, op) -> "SimTensor":
        if isinstance(other, SimTensor):
            other = other._data
        return SimTensor(op(self._data, other), self._device)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __eq__(self, other) -> bool:  # identity-style equality like torch
        return self is other

    def __hash__(self) -> int:
        return id(self)

    def allclose(self, other: "SimTensor | np.ndarray", **kw) -> bool:
        other_data = other._data if isinstance(other, SimTensor) else other
        return bool(np.allclose(self._data, other_data, **kw))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimTensor(shape={self.shape}, dtype={self.dtype.name}, "
            f"device={self._device})"
        )


# -- factory helpers ---------------------------------------------------


def _np_dtype(dtype: DType) -> np.dtype:
    return dtype.numpy


def empty(
    shape: int | Sequence[int], dtype: DType = float32, device: "str | Device" = CPU
) -> SimTensor:
    """Uninitialized tensor (zero-filled for determinism)."""
    return zeros(shape, dtype, device)


def zeros(
    shape: int | Sequence[int], dtype: DType = float32, device: "str | Device" = CPU
) -> SimTensor:
    return SimTensor(np.zeros(shape, dtype=_np_dtype(dtype)), Device.parse(device))


def ones(
    shape: int | Sequence[int], dtype: DType = float32, device: "str | Device" = CPU
) -> SimTensor:
    return SimTensor(np.ones(shape, dtype=_np_dtype(dtype)), Device.parse(device))


def full(
    shape: int | Sequence[int],
    value: float,
    dtype: DType = float32,
    device: "str | Device" = CPU,
) -> SimTensor:
    return SimTensor(
        np.full(shape, value, dtype=_np_dtype(dtype)), Device.parse(device)
    )


def arange(
    n: int, dtype: DType = float32, device: "str | Device" = CPU
) -> SimTensor:
    return SimTensor(np.arange(n, dtype=_np_dtype(dtype)), Device.parse(device))


def from_numpy(array: np.ndarray, device: "str | Device" = CPU) -> SimTensor:
    """Wrap an existing NumPy array (shares memory)."""
    return SimTensor(array, Device.parse(device))


def virtual(
    numel: int, dtype: DType = float32, device: "str | Device" = CPU
) -> SimTensor:
    """A timing-only tensor: declared size ``numel``, one-element storage."""
    return SimTensor(
        np.zeros(1, dtype=_np_dtype(dtype)), Device.parse(device), virtual_numel=numel
    )


def cat(tensors: Iterable[SimTensor]) -> SimTensor:
    """Concatenate flattened tensors (used by tensor fusion).

    If any input is virtual the result is virtual with the summed
    declared size.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cat of empty sequence")
    device = tensors[0].device
    if any(t.is_virtual for t in tensors):
        total = sum(t.numel() for t in tensors)
        return virtual(total, tensors[0].dtype, device)
    return SimTensor(
        np.concatenate([t.view_flat() for t in tensors]), device
    )
