"""Atomic file writes shared by every artifact writer.

Data goes to a temp file in the destination directory, then replaces the
destination by rename, so a reader sees the old file or the new one and
never a partial write. Missing parent directories are created.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Write bytes, or str as UTF-8 with no newline translation, to path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path, data) -> None:
    """JSON with indent 2, sorted keys and a trailing newline."""
    write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
