"""Durable file publication shared by every on-disk writer.

:func:`atomic_write_text` is the one write path for files other
processes read while they may be rewritten: result-cache entries,
sweep-service job specs and statuses, and chunked-trace manifests.
It lives outside :mod:`repro.sim` so :mod:`repro.workloads` can use it
without importing the simulation stack.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Publish ``text`` at ``path`` whole or not at all.

    The text goes to a temp file in ``path``'s own directory, which is
    then moved into place with :func:`os.replace`: a same-filesystem
    rename, atomic on POSIX and Windows. A kill or an error at any
    instant leaves either the previous file or the new one, never a
    truncated mix; on an error the temp file is removed. Two writers
    racing on one path each publish a whole file, and the last rename
    wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
