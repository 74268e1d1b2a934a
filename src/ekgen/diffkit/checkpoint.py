"""Binary parameter checkpoints: JSON manifest + little-endian float32 blob."""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"EKGC1"
EMBED_MAGIC = b"EKGE1"


class CheckpointError(IOError):
    pass


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a file beside `path` for writing; when the block ends without an
    exception it replaces `path` in one step, otherwise it is removed. So
    `path` holds its previous content or all of the new one, never part.
    The parent directory is created if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_arrays(path, arrays: dict[str, np.ndarray], magic: bytes = MAGIC,
                extra: dict | None = None):
    """Write named float arrays plus an optional JSON `extra` section."""
    entries = []
    offset = 0
    blob = bytearray()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype="<f4")
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        raw = a.tobytes()
        blob.extend(raw)
        offset += len(raw)
    manifest = json.dumps({"params": entries, "extra": extra or {}},
                          sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(manifest)))
        fh.write(manifest)
        fh.write(bytes(blob))


def load_arrays(path, magic: bytes = MAGIC) -> tuple[dict[str, np.ndarray], dict]:
    """Read a file written by `save_arrays`. A wrong magic, a manifest that is
    not JSON or lacks a field of the right type, or a manifest or array that
    runs past the bytes actually read raises `CheckpointError`."""
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    head = data[:len(magic)]
    if head != magic:
        raise CheckpointError(f"{path}: bad magic {head!r}, expected {magic!r}")
    start = len(magic) + 4
    if len(data) < start:
        raise CheckpointError(f"{path}: truncated header")
    (mlen,) = struct.unpack_from("<I", data, len(magic))
    if len(data) < start + mlen:
        raise CheckpointError(f"{path}: truncated manifest ({len(data) - start} "
                              f"of {mlen} bytes)")
    try:
        manifest = json.loads(data[start:start + mlen].decode("utf-8"))
    except ValueError as e:        # undecodable bytes or malformed JSON
        raise CheckpointError(f"{path}: unreadable manifest: {e}") from e
    blob = data[start + mlen:]
    arrays = {}
    try:
        for entry in manifest["params"]:
            name, shape, offset = entry["name"], tuple(entry["shape"]), entry["offset"]
            if not all(type(n) is int and n >= 0 for n in (*shape, offset)):
                raise ValueError(f"array {name!r} has shape {list(shape)} "
                                 f"and offset {offset!r}")
            count = math.prod(shape)
            if offset + 4 * count > len(blob):
                raise CheckpointError(
                    f"{path}: array {name!r} ends at byte {offset + 4 * count} "
                    f"of a {len(blob)}-byte data section; the file is truncated")
            arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
            arrays[name] = arr.reshape(shape).astype(np.float32)
        extra = manifest.get("extra", {})
        if not isinstance(extra, dict):
            raise TypeError(f"extra {extra!r} is not a JSON object")
        return arrays, extra
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: malformed manifest: {e!r}") from e
