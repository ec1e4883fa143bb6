"""The one file writer: every output goes through a temp file and a rename."""

from __future__ import annotations

import contextlib
import os


def write_atomic(path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (str is written as UTF-8).  A reader
    sees the old file or the new one, never a partial write; a failed write
    leaves the old file and no temp file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
