"""Binary checkpoint format for named tensors.

Layout (little-endian): magic "IDCK", version u16, tensor count u32, then per
tensor: name length u16 + UTF-8 name, rank u8, dims u32 each, dtype code u8
(0 = float32, 1 = float64), raw values.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError, FormatError
from .fileio import atomic_write
from .tensor import Tensor

MAGIC = b"IDCK"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


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


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.pos)
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_tensors(path) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataError(f"cannot read checkpoint {path}: {e.strerror or e}") from e
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}", offset=0)
    version, count = r.unpack("<HI", "header")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}", offset=4)
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H", "name length")
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError("tensor name is not valid UTF-8",
                              offset=r.pos - name_len + e.start)
        (rank,) = r.unpack("<B", "rank")
        dims = tuple(r.unpack(f"<{rank}I", "dims")) if rank else ()
        (code,) = r.unpack("<B", "dtype code")
        if code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {code}", offset=r.pos - 1)
        dt = _DTYPE_CODES[code]
        n = int(np.prod(dims, dtype=np.int64)) if dims else 1
        raw = r.take(n * dt.itemsize, f"tensor {name!r} payload")
        out[name] = np.frombuffer(raw, dtype=dt).reshape(dims).copy()
    return out


def load_into(path, named: dict[str, Tensor]) -> None:
    """Load a checkpoint into existing parameter tensors, by name."""
    stored = load_tensors(path)
    missing = sorted(set(named) - set(stored))
    extra = sorted(set(stored) - set(named))
    if missing or extra:
        raise FormatError(
            f"checkpoint/model mismatch: missing {missing[:4]}, unexpected {extra[:4]}"
        )
    for name, p in named.items():
        arr = stored[name]
        if arr.shape != p.shape:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, model expects {p.shape}"
            )
        p.data = np.ascontiguousarray(arr, dtype=p.dtype)
