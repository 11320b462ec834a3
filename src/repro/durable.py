"""Small state files: the one read path and the one write path.

Result-cache entries, cache leases, sweep-service job specs and
statuses, and chunked-trace manifests are all small files that other
processes read while they may be rewritten. They are read with
:func:`read_bytes` and written with :func:`atomic_write_text` (a
lease, which must not replace a live one, is created with
:func:`create_exclusive`), all on raw file descriptors: a warm cache
hit is one ``open``/``read``/``close`` with no buffered I/O objects.
The module lives outside :mod:`repro.sim` so :mod:`repro.workloads`
can use it without importing the simulation stack.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Optional, TypeVar, Union

PathLike = Union[str, Path]
T = TypeVar("T")

#: ``O_BINARY`` keeps Windows from translating line ends; elsewhere 0.
_BINARY = getattr(os, "O_BINARY", 0)
_READ_FLAGS = os.O_RDONLY | _BINARY
_CREATE_FLAGS = os.O_CREAT | os.O_EXCL | os.O_WRONLY | _BINARY
#: Bytes asked of one ``os.read``; a state file fits in one.
_READ_CHUNK = 1 << 16


def read_bytes(path: PathLike) -> Optional[bytes]:
    """The whole content of ``path``, or None when it cannot be read.

    Any :class:`OSError` (a missing file or directory, a directory at
    ``path``, a permission error) reads as None, so callers treat an
    unreadable state file like an absent one.
    """
    try:
        fd = os.open(path, _READ_FLAGS)
    except OSError:
        return None
    try:
        chunks = []
        while True:
            chunk = os.read(fd, _READ_CHUNK)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    except OSError:  # EISDIR: a directory opens, but does not read
        return None
    finally:
        os.close(fd)


def _in_parent(parent: str, create: Callable[[], T]) -> T:
    """``create()``, making ``parent`` first only if it is missing."""
    try:
        return create()
    except FileNotFoundError:
        os.makedirs(parent, exist_ok=True)
        return create()


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until all of ``data`` is out (one call, in practice)."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def atomic_write_text(path: PathLike, text: str) -> None:
    """Publish ``text`` (UTF-8) at ``path`` whole or not at all.

    The text goes to a temp file in ``path``'s own directory, which is
    then moved into place with :func:`os.replace`: a same-filesystem
    rename, atomic on POSIX and Windows. A kill or an error at any
    instant leaves either the previous file or the new one, never a
    truncated mix; on an error the temp file is removed. Two writers
    racing on one path each publish a whole file, and the last rename
    wins. The parent directory is created only when the temp file
    cannot be made without it.
    """
    path = os.fspath(path)
    parent, name = os.path.split(path)
    parent = parent or os.curdir
    fd, tmp_name = _in_parent(parent, lambda: tempfile.mkstemp(
        prefix=f".{name}.", suffix=".tmp", dir=parent
    ))
    try:
        try:
            _write_all(fd, text.encode())
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def create_exclusive(path: PathLike, text: str) -> bool:
    """Create ``path`` holding ``text`` (UTF-8) unless it exists.

    True when this call created the file, False when one was already
    there. The ``O_CREAT | O_EXCL`` create is atomic; the content
    follows in one ``os.write``, so a reader can, for that instant,
    find the file empty (a holder killed in between leaves it so).
    The parent directory is created only when the create fails for
    want of it.
    """
    data = text.encode()
    parent = os.path.dirname(os.fspath(path)) or os.curdir
    try:
        fd = _in_parent(parent, lambda: os.open(path, _CREATE_FLAGS))
    except FileExistsError:
        return False
    try:
        _write_all(fd, data)
    finally:
        os.close(fd)
    return True
