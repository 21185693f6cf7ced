"""Binary tensor snapshots and named-tensor checkpoint files.

Single-tensor block layout (little-endian throughout):

    magic   4 bytes  b"SLNK"
    dtype   u8       0 = float64 (the only tag)
    rank    u8
    dims    rank * u64
    data    raw little-endian scalars, row-major

A block holds one Tensor, so its data must be finite.  A checkpoint file is
a sequence of (name, block) records preceded by a count, so model parameters
round-trip byte-identically.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, ParseError
from .tensor import Tensor

_MAGIC = b"SLNK"
_CKPT_MAGIC = b"SLNKCKPT"
_DTYPE_REAL = 0


def tensor_to_bytes(t: Tensor) -> bytes:
    if not isinstance(t, Tensor):
        raise TypeError(f"cannot snapshot {type(t).__name__}")
    arr = np.asarray(t.data, dtype="<f8", order="C")
    head = _MAGIC + struct.pack("<BB", _DTYPE_REAL, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + dims + arr.tobytes()


def tensor_from_bytes(buf: bytes, offset: int = 0):
    """Decode one snapshot block; returns (Tensor, next_offset).

    A block cut short anywhere, or whose dims numpy cannot hold, raises
    ParseError; non-finite data raises NonFiniteError.
    """
    if buf[offset : offset + 4] != _MAGIC:
        raise ParseError("bad tensor snapshot magic")
    try:
        tag, rank = struct.unpack_from("<BB", buf, offset + 4)
        dims = struct.unpack_from(f"<{rank}Q", buf, offset + 6)
    except struct.error as exc:
        raise ParseError(f"truncated tensor snapshot header ({exc})") from exc
    if tag != _DTYPE_REAL:
        raise ParseError(f"unknown snapshot dtype tag {tag}")
    pos = offset + 6 + 8 * rank
    count = math.prod(dims)
    end = pos + 8 * count
    if end > len(buf):
        raise ParseError(f"truncated tensor snapshot data: needs {end} bytes, has {len(buf)}")
    try:
        arr = np.frombuffer(buf, dtype="<f8", count=count, offset=pos).reshape(dims).copy()
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"tensor snapshot dims no array can hold ({exc})") from exc
    return Tensor(arr), end


def save_tensors(path, tensors: dict) -> None:
    """Write named tensors to one checkpoint file (names sorted for
    byte-stable output)."""
    parts = [_CKPT_MAGIC, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(tensor_to_bytes(tensors[name]))
    Path(path).write_bytes(b"".join(parts))


def load_tensors(path) -> dict:
    """Read a checkpoint file; a truncated or corrupt file raises ParseError
    (NonFiniteError for non-finite data), naming the tensor whose block failed."""
    buf = Path(path).read_bytes()
    if buf[:8] != _CKPT_MAGIC:
        raise ParseError(f"{path}: not a checkpoint file")
    out = {}
    try:
        (count,) = struct.unpack_from("<I", buf, 8)
        pos = 12
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos : pos + nlen].decode("utf-8")
            pos += nlen
            try:
                out[name], pos = tensor_from_bytes(buf, pos)
            except (ParseError, NonFiniteError) as exc:
                raise type(exc)(f"{path}: tensor {name}: {exc}") from exc
    except (struct.error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    return out
