"""Atomic file writes (temp + rename) so reruns never leave partial
artifacts, and the one failure rule for every file a stage reads."""

from __future__ import annotations

import os
import struct
import tempfile
from contextlib import contextmanager

from .errors import MissingArtifact


@contextmanager
def atomic_writer(path: str):
    """A binary file for the block, written at a temporary path beside
    `path` and renamed to it only if the block completes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with atomic_writer(path) as fh:
        fh.write(data)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@contextmanager
def reading(path: str, what: str, mode: str = "rb"):
    """`path` opened for the block, which parses it as a `what`. A missing
    file, any other OSError, and a struct.error, KeyError, TypeError or
    ValueError raised in the block (the file is truncated or corrupt) each
    become a MissingArtifact naming `path`; other errors pass through."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise MissingArtifact(f"required artifact missing: {path} (run the "
                              "earlier pipeline stage first)") from None
    except OSError as exc:
        raise MissingArtifact(f"{path}: {exc.strerror}") from None
    except (struct.error, KeyError, TypeError, ValueError) as exc:
        raise MissingArtifact(
            f"{path}: truncated or corrupt {what} ({exc})") from exc
