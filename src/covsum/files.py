"""Whole-file replacement for every file covsum writes."""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def written(path: str | Path) -> Iterator[Path]:
    """Yield ``path.part`` to write; rename it onto ``path`` on success and
    unlink it on an error, so a failed write leaves no half-written file.

    ``path`` is replaced, never truncated, so a process that has it mapped
    (:func:`covsum.embedding.load_model`) keeps the old file's pages."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        yield part
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    part.replace(path)
