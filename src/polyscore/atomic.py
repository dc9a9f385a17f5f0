"""Artifact writes that never leave a half-written file behind."""
from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing and rename it over ``path`` on success.

    Each writer gets its own temp name, ``<path>.<12 random hex digits>.tmp``,
    so two writers of one path never share a file: the last to rename wins. If the
    write fails, the temp file is removed and a previous file at ``path`` is
    left as it was.
    """
    tmp = f"{os.fspath(path)}.{secrets.token_hex(6)}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
