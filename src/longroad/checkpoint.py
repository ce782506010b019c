"""Binary checkpoint format for named tensors.

Layout (little-endian): magic "IDCK", version u16, tensor count u32, then per
tensor: name length u16 + UTF-8 name, rank u8, dims u32 each, dtype code u8
(0 = float32, 1 = float64), raw values.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError
from .fileio import atomic_write, read_binary
from .tensor import Tensor

MAGIC = b"IDCK"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_RANK = 64  # numpy's array rank limit
_MAX_BYTES = np.iinfo(np.intp).max


def save_tensors(path, tensors: dict[str, Tensor | np.ndarray]) -> None:
    """Write the tensors to `path`; a failed write leaves any old file intact."""
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", VERSION, len(tensors)))
        for name, t in tensors.items():
            arr = t.data if isinstance(t, Tensor) else np.asarray(t)
            code = _CODE_FOR[np.dtype(arr.dtype)]
            encoded = name.encode("utf-8")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(struct.pack("<B", code))
            f.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())


def load_tensors(path) -> dict[str, np.ndarray]:
    with read_binary(path, "checkpoint") as r:
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise r.error(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
        version, count = r.unpack("<HI", "header")
        if version != VERSION:
            raise r.error(f"unsupported version {version}", 4)
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = r.unpack("<H", "name length")
            try:
                name = r.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as e:
                raise r.error("tensor name is not valid UTF-8", r.pos - name_len + e.start)
            (rank,) = r.unpack("<B", "rank")
            if rank > _MAX_RANK:
                raise r.error(f"tensor rank {rank} exceeds {_MAX_RANK}", r.pos - 1)
            dims_at = r.pos
            dims = r.unpack(f"<{rank}I", "dims")
            (code,) = r.unpack("<B", "dtype code")
            if code not in _DTYPE_CODES:
                raise r.error(f"unknown dtype code {code}", r.pos - 1)
            dt = _DTYPE_CODES[code]
            # Python ints: a crafted header cannot wrap around
            values = r.array(dt, math.prod(dims), f"tensor {name!r} payload")
            if math.prod(d for d in dims if d) * dt.itemsize > _MAX_BYTES:
                # empty, yet numpy refuses a shape whose nonzero dims overflow
                raise r.error(f"tensor {name!r} dims {dims} exceed the largest array", dims_at)
            out[name] = values.reshape(dims)
    return out


def load_into(path, named: dict[str, Tensor]) -> None:
    """Load a checkpoint into existing parameter tensors, by name."""
    stored = load_tensors(path)
    missing = sorted(set(named) - set(stored))
    extra = sorted(set(stored) - set(named))
    if missing or extra:
        raise FormatError(f"checkpoint {path}: does not match the model: "
                          f"missing {missing[:4]}, unexpected {extra[:4]}")
    for name, p in named.items():
        arr = stored[name]
        if arr.shape != p.shape:
            raise FormatError(f"checkpoint {path}: tensor {name!r} has shape {arr.shape}, "
                              f"model expects {p.shape}")
        p.data = np.ascontiguousarray(arr, dtype=p.dtype)
