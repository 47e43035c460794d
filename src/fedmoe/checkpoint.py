"""Named-tensor checkpoint container, its binary wire format, and the one
layout check and loader for named arrays.

Layout (all little-endian): a header of format version (u32) and
parameter count (u32), then per parameter: name length (u32), name
bytes (utf-8), rank (u32), one u32 per dimension, and the values as
32-bit floats in row-major order. Serialization round-trips byte for
byte; input that does not follow the layout raises ValueError.

``check_layout`` compares name -> array with name -> shape for the server
cache, FedAvg and ``load_into_params``, which checks encoder downloads and
restored client states before it writes any parameter.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1


class ExpertCheckpoint:
    """Immutable ordered list of (name, float32 array).

    Every array is copied on construction, so a checkpoint never shares
    memory with the parameters it was taken from.
    """

    def __init__(self, entries: list[tuple[str, np.ndarray]]):
        names = [n for n, _ in entries]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in checkpoint")
        self.entries = [(n, np.array(a, dtype="<f4", order="C")) for n, a in entries]
        for _, a in self.entries:
            a.flags.writeable = False

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.entries]

    def get(self, name: str) -> np.ndarray:
        for n, a in self.entries:
            if n == name:
                return a
        raise KeyError(name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpertCheckpoint):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self):
        return hash(self.to_bytes())

    def to_bytes(self) -> bytes:
        chunks = [struct.pack("<II", FORMAT_VERSION, len(self.entries))]
        for name, arr in self.entries:
            raw = name.encode("utf-8")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
            chunks.append(struct.pack("<I", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            chunks.append(arr.tobytes())
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ExpertCheckpoint":
        view = memoryview(blob)
        offset = 0

        def take(n: int, what: str) -> memoryview:
            nonlocal offset
            if n > len(view) - offset:
                raise ValueError(f"truncated checkpoint: {what} needs {n} bytes at "
                                 f"offset {offset}, {len(view) - offset} left")
            offset += n
            return view[offset - n:offset]

        version, count = struct.unpack("<II", take(8, "header"))
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        entries = []
        for i in range(count):
            (name_len,) = struct.unpack("<I", take(4, f"entry {i} name length"))
            try:
                name = bytes(take(name_len, f"entry {i} name")).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"malformed checkpoint: entry {i} name is not utf-8") from exc
            (rank,) = struct.unpack("<I", take(4, f"{name!r} rank"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name!r} shape"))
            values = take(4 * math.prod(dims), f"{name!r} values")
            entries.append((name, np.frombuffer(values, dtype="<f4").reshape(dims)))
        if offset != len(view):
            raise ValueError(f"trailing bytes in checkpoint ({len(view) - offset})")
        return cls(entries)

    def save(self, path) -> None:
        Path(path).write_bytes(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ExpertCheckpoint":
        return cls.from_bytes(Path(path).read_bytes())


def checkpoint_from_params(params) -> ExpertCheckpoint:
    """Snapshot parameters (e.g. an encoder) into a checkpoint."""
    return ExpertCheckpoint([(p.name, p.data) for p in params])


def check_layout(arrays: dict, shapes: dict, what: str) -> None:
    """Raise ValueError naming the first entry, in name order, that arrays
    lacks, has beyond shapes, or holds at another shape than shapes gives."""
    for name in sorted(arrays.keys() | shapes.keys()):
        if name not in arrays:
            raise ValueError(f"{what} has no entry {name!r}")
        if name not in shapes:
            raise ValueError(f"{what} has an unexpected entry {name!r}")
        if np.shape(arrays[name]) != shapes[name]:
            raise ValueError(f"{what} entry {name!r} has shape {np.shape(arrays[name])}, "
                             f"expected {shapes[name]}")


def load_into_params(arrays: dict, params: dict, what: str) -> None:
    """Write name -> array into name -> Parameter, each at its parameter's
    width. The layout is checked first, so arrays that do not fit raise
    ValueError naming the entry and change nothing."""
    check_layout(arrays, {name: p.data.shape for name, p in params.items()}, what)
    for name, p in params.items():
        p.tensor.data = arrays[name].astype(p.data.dtype)
