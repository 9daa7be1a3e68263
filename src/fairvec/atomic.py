"""The one atomic file writer behind every file the toolkit emits."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w"):
    """Yield a file opened for writing ("w" for UTF-8 text, "wb" for bytes)
    that replaces path only once the block has completed.

    The data goes to a fresh mkstemp file in path's directory, so concurrent
    writers never share a temp name and a stray file or directory named like
    one is never in the way. On any failure the temp file is removed and path
    is left as it was. The result gets the mode open() gives a new file,
    0o666 minus the umask, rather than mkstemp's 0o600.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    fd, tmp = tempfile.mkstemp(dir=head or ".", prefix=f".{tail}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it; restore at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
