"""The one atomic file writer behind every file the toolkit emits, and the
one place where a failed write becomes an error."""

from __future__ import annotations

import contextlib
import os
import tempfile

from .errors import IoFailure


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w"):
    """Yield a file opened for writing ("w" for UTF-8 text, "wb" for bytes)
    that replaces path only once the block has completed.

    The data goes to a fresh mkstemp file in path's directory, so concurrent
    writers never share a temp name and a stray file or directory named like
    one is never in the way. On any failure the temp file is removed and path
    is left as it was. An OSError from creating, writing, chmod-ing or
    replacing the temp file becomes IoFailure naming path; any other
    exception passes through. The result gets the mode open() gives a new
    file, 0o666 minus the umask, rather than mkstemp's 0o600.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=head or ".", prefix=f".{tail}.", suffix=".tmp")
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        umask = os.umask(0)  # reading the umask means setting it; restore at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            # strerror, not str(exc), which names the temp file
            raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
