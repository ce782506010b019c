"""Output files: atomic writes, in which a path holds either its old contents
or the complete new ones, never a partial write; and a typed error when an
output cannot be created."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


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
