"""Artifact files written whole or not at all."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path):
    """Open path for text writing, with "\\n" line ends, through a temporary
    file in the same directory that replaces path only when the block
    finishes.  If the block raises, the temporary file is removed and path
    is left as it was, so a failed write leaves no truncated artifact."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
