"""Atomic artifact writes: a reader sees the previous file or the whole new
one, never a partial write."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path):
    """Text handle on a temp file beside `path`.

    On a clean exit the temp file replaces `path` (`os.replace`); if the
    body raises, the temp file is removed and `path` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """`Path.write_text(text, encoding="utf-8")`, atomically."""
    with atomic_open(path) as fh:
        fh.write(text)
