"""Output files that appear under their final name only once complete."""

from __future__ import annotations

import contextlib
import os
import tempfile


def atomic_write(path, chunks) -> None:
    """Write ``chunks`` (a string or an iterable of strings) to ``path`` through a
    uniquely named file in the same directory.

    The file only appears under its final name once complete, and concurrent
    writers never share a temporary file.  The temporary file is removed when
    the write fails.
    """
    path = os.fspath(path)
    if isinstance(chunks, str):
        chunks = (chunks,)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep open()'s default mode
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
