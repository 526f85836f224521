"""The one file layer: a strict sequential reader for the binary formats (IDX
inputs, the dataset cache, checkpoints) and an atomic writer for every
artifact the package writes."""
from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np


class Reader:
    """Reads a whole binary file front to back.

    The file must start with ``magic``, every read must fit in what is left
    and the last read must end at the last byte; any other file raises
    ``error`` (the caller's own exception type) with the offending offset.
    """

    def __init__(self, path, magic: bytes, error: type[Exception]):
        self.path, self.error = path, error
        self.data = Path(path).read_bytes()
        found = self.data[: len(magic)]
        if found != magic:
            raise error(f"{path}: bad magic 0x{found.hex()} at offset 0")
        self.pos = len(magic)

    def _take(self, nbytes: int) -> int:
        """Offset of the next ``nbytes``; raises when the file ends first."""
        end = self.pos + nbytes
        if end > len(self.data):
            raise self.error(f"{self.path}: truncated: file ends at offset {len(self.data)}, need {end}")
        self.pos = end
        return end - nbytes

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self._take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """The next ``count`` values of ``dtype`` as a fresh array."""
        offset = self._take(np.dtype(dtype).itemsize * count)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=offset).copy()

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"{self.path}: trailing bytes at offset {self.pos}")


def write_atomic(path, payload: bytes | str) -> None:
    """Write ``payload`` (text as UTF-8) to a temporary file beside ``path``,
    then rename it over ``path``: a reader or a later run sees the old file
    or the new one, never part of one, even if this process is killed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload.encode() if isinstance(payload, str) else payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
