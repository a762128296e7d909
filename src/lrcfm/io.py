"""Output writing shared by every command: tables go through `write_csv`
(float columns formatted by `cells`), reports through `write_json`, and
both through `atomic_write`."""

from __future__ import annotations

import json
import uuid
from pathlib import Path

import numpy as np


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


def cells(values) -> list[str]:
    """The text cells of a float column: each value as its repr(), which
    reads back to the same float, and NaN as an empty cell."""
    return ["" if v != v else repr(v)
            for v in np.asarray(values, dtype=float).tolist()]


def write_csv(path, header, columns) -> None:
    """A CSV table: the header names, then one row per cell of the
    equal-length text columns."""
    rows = map(",".join, zip(*columns))
    atomic_write(path, "\n".join([",".join(header), *rows]) + "\n")


def write_json(path, obj) -> None:
    """A JSON report, indented by 2 with a trailing newline; numpy arrays
    and scalars are written as their tolist()."""
    atomic_write(path, json.dumps(obj, indent=2,
                                  default=lambda value: value.tolist()) + "\n")
