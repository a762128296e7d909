"""Output writing shared by every command."""

from __future__ import annotations

import uuid
from pathlib import Path


def atomic_write(path, text: str) -> None:
    """Write text to path so that readers see the old file or the new one,
    never a partial write: the text goes to a uniquely named temporary
    file in the same directory, which is then renamed over path. The
    temporary file is removed if any step fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
