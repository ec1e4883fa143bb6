"""The one file writer: every output goes through a temp file and a rename."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterable


def write_atomic(path, data: str | bytes | Iterable[str]) -> None:
    """Replace ``path`` with ``data``: bytes, or str or str chunks written as
    UTF-8, one chunk at a time.  A reader sees the old file or the new one,
    never a partial write; a failed write leaves the old file and no temp
    file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in [data] if isinstance(data, (str, bytes)) else data:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
