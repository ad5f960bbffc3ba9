"""Output files that appear under their final name only once complete."""

from __future__ import annotations

import contextlib
import os
import tempfile

# bytes per read when a file is appended to an AtomicFile
_COPY_BYTES = 1 << 16


class AtomicFile:
    """A file written through a uniquely named file in the directory of
    ``path``, which appears under ``path`` only at :meth:`commit`.  Text is
    written as UTF-8, with no newline translation.

    Concurrent writers never share a temporary file.  Leaving the ``with``
    block without a commit, or calling :meth:`discard`, removes the temporary
    file; after a commit both do nothing.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        fd, self._tmp = tempfile.mkstemp(dir=os.path.dirname(self.path) or ".",
                                         prefix=os.path.basename(self.path) + ".", suffix=".tmp")
        try:
            self._fh = os.fdopen(fd, "wb")
        except BaseException:
            os.close(fd)
            os.unlink(self._tmp)
            raise

    def write(self, data: str | bytes) -> None:
        self._fh.write(data.encode("utf-8") if isinstance(data, str) else data)

    def append(self, src, start: int, size: int) -> None:
        """Write the ``size`` bytes of ``src``, a binary file open for reading,
        from offset ``start``, through one buffer of at most ``_COPY_BYTES``;
        raises ``OSError`` if ``src`` ends before them."""
        src.seek(start)
        buf = memoryview(bytearray(min(size, _COPY_BYTES)))
        while size:
            n = src.readinto(buf[:size])
            if not n:
                raise OSError(f"{src.name}: ends {size} bytes before the range to append")
            self._fh.write(buf[:n])
            size -= n

    def commit(self) -> None:
        self._fh.close()
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(self._tmp, 0o666 & ~umask)  # mkstemp creates 0600; keep open()'s default mode
        os.replace(self._tmp, self.path)
        self._tmp = None

    def discard(self) -> None:
        if self._tmp is not None:
            try:
                self._fh.close()
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self._tmp)
                self._tmp = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.discard()


def atomic_write(path, chunks) -> None:
    """Write ``chunks`` (a string or an iterable of strings) to ``path`` through
    an :class:`AtomicFile`; the temporary file is removed when the write fails."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    with AtomicFile(path) as fh:
        for chunk in chunks:
            fh.write(chunk)
        fh.commit()
