"""Files in and out: atomic writes, in which a path holds either its old
contents or the complete new ones, never a partial write; a DataError naming
any input or output that cannot be opened; and the bounded reader that both
binary formats (.toyr, .idck) are parsed with."""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError


@contextmanager
def input_errors(path, kind: str):
    """Raise an OSError from reading input `path` (missing, a directory, not
    readable) as a DataError naming it and its `kind`."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot read {kind} {path}: {e.strerror or e}") from e


class BoundedReader:
    """Reads a binary file field by field, checking each field against the
    bytes left first: one that runs past the end is a FormatError naming the
    file and the offset where the field starts."""

    def __init__(self, f, path, kind: str):
        self.f, self.path, self.kind = f, path, kind
        self.pos, self.size = 0, os.fstat(f.fileno()).st_size

    def error(self, message: str, offset: int) -> FormatError:
        return FormatError(f"{self.kind} {self.path}: {message}", offset)

    def _claim(self, n: int, what: str) -> None:
        if n > self.size - self.pos:
            raise self.error(f"truncated {what}", self.pos)
        self.pos += n

    def take(self, n: int, what: str) -> bytes:
        self._claim(n, what)
        return self.f.read(n)

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """`count` values of `dtype`, read straight into a new flat array."""
        self._claim(count * np.dtype(dtype).itemsize, what)
        return np.fromfile(self.f, dtype, count)


@contextmanager
def read_binary(path, kind: str):
    """Yield a BoundedReader over `path`, under `input_errors`."""
    with input_errors(path, kind), open(path, "rb") as f:
        yield BoundedReader(f, path, kind)


@contextmanager
def output_errors(path):
    """Raise an OSError from creating output `path` (a missing parent
    directory, a file where a directory should be) as a DataError naming it."""
    try:
        yield
    except OSError as e:
        raise DataError(f"cannot write {path}: {e.strerror or e}") from e


@contextmanager
def atomic_write(path):
    """Yield a binary file opened on a temp file beside `path`. On a clean
    exit the temp file replaces `path` (`os.replace`); on an exception it is
    deleted and `path` is left as it was. There is no fsync: this guards
    against a writer that fails or is killed, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with output_errors(path):
        f = open(tmp, "wb")
    try:
        with f:
            yield f
        with output_errors(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write `obj` as indented, key-sorted JSON through `atomic_write`."""
    with atomic_write(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True).encode())
