"""Atomic file writes: a path holds either its old contents or the complete
new ones, never a partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary file opened on a temp file beside `path`. On a clean
    exit the temp file replaces `path` (`os.replace`); on an exception it is
    deleted and `path` is left as it was. There is no fsync: this guards
    against a writer that fails or is killed, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
