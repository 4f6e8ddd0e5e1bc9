"""Atomic replacement of run artifacts.

Checkpoints, prediction files, metrics and manifests are written to a
temporary file in the target's directory, which then replaces the
target in one ``os.replace``.  A write that fails part-way leaves the
old file as it was, and no temporary file behind.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, binary: bool = False):
    """Open ``path`` for writing, as UTF-8 text or as bytes, through a
    temporary sibling that replaces it when the block exits cleanly and
    is removed when the block raises.

    Nothing is fsynced: this guards against a failing or killed
    process, not against a machine losing power.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        # exclusive create: never write into a file another writer holds
        with open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
