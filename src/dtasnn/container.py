"""The binary container that checkpoints are written in.

Layout: the magic ``DTASNN02``, a little-endian u32 length and a sorted-key
JSON header, then float32 runs, each a little-endian u32 element count and
that many little-endian float32 values, then the little-endian u32 CRC32 of
every preceding byte; any other magic is refused. The header is a spec
dataclass as ``asdict`` writes it, which ``decode`` rebuilds; the caller picks
the runs that follow. Any fault in a file raises ``CheckpointError``.
"""

from __future__ import annotations

import json
import os
import struct
import typing
import zlib
from dataclasses import fields, is_dataclass

import numpy as np

MAGIC = b"DTASNN02"


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint container."""


def require_int(name: str, value) -> None:
    """Raise ``ValueError`` unless *value* is an int; a bool or float is not.

    The spec stored in a header checks its counts with this, so a JSON
    ``2.0`` or ``2.7`` is refused instead of truncated or used as a shape.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def write(path, header: dict, arrays) -> None:
    """Write *header* and *arrays* to *path*, replacing any file there only once complete.

    The bytes go to ``<path>.tmp`` in the same directory, which then replaces
    *path*, so a write that fails or is killed midway leaves the previous file
    as it was. The temporary file is fsynced before the replace and the
    directory after it, so after a power loss *path* names either the old
    file or the complete new one. *arrays* is consumed as it is written, so
    it may be a generator.
    """
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = os.fspath(path) + ".tmp"
    fh = open(tmp, "wb")
    crc = 0

    def put(chunk: bytes) -> None:
        nonlocal crc
        crc = zlib.crc32(chunk, crc)
        fh.write(chunk)

    try:
        with fh:
            put(MAGIC)
            put(struct.pack("<I", len(payload)))
            put(payload)
            for arr in arrays:
                flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
                put(struct.pack("<I", flat.size))
                put(flat.tobytes())
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror and exc.filename is None:
            exc.filename = os.fspath(path)  # a failed write() names no file
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read(path) -> tuple[dict, list[np.ndarray]]:
    """The JSON header and every float32 run of the container at *path*.

    A file that cannot be read, and any fault in its bytes (magic, CRC, a
    length that points past the end, a header that is not a JSON object),
    raises ``CheckpointError``; the runs are read-only views of its bytes.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc.strerror}") from exc
    if blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad container magic {blob[:8]!r}")
    if len(blob) < 12:
        raise CheckpointError(f"{path}: truncated: {len(blob)} bytes, no CRC trailer")
    (stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
    blob = blob[:-4]
    crc = zlib.crc32(blob)
    if crc != stored:
        raise CheckpointError(f"{path}: CRC32 mismatch: stored {stored:#010x}, "
                              f"contents {crc:#010x}")
    off = 8

    def take(nbytes, what) -> int:
        """Offset of the next *nbytes*, which must lie inside the file."""
        nonlocal off
        if off + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated in {what}: {nbytes} bytes "
                                  f"needed at offset {off}, file has {len(blob)}")
        off += nbytes
        return off - nbytes

    (jlen,) = struct.unpack_from("<I", blob, take(4, "header length"))
    start = take(jlen, "header")
    try:
        header = json.loads(blob[start:off].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    runs = []
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, take(4, "run length"))
        runs.append(np.frombuffer(blob, dtype="<f4", count=n, offset=take(4 * n, "run")))
    return header, runs


def _tuples(value):
    """*value* with every JSON array in it, at any depth, made a tuple."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def decode(cls, header: dict, path: str = ""):
    """The spec dataclass *cls* rebuilt from *header*, the JSON object that
    ``asdict`` wrote of one. Every field is required, a dataclass field is
    decoded from its own object (*path* is then its dotted prefix), and JSON
    arrays become tuples. A missing field, or a value the spec's own
    ``__post_init__`` refuses, raises ``CheckpointError`` naming the field's
    dotted path."""
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        name = path + f.name
        if f.name not in header:
            raise CheckpointError(f"header is missing field {name!r}")
        value = header[f.name]
        if is_dataclass(hints[f.name]):
            if not isinstance(value, dict):
                raise CheckpointError(f"header field {name!r} is not a JSON object")
            value = decode(hints[f.name], value, name + ".")
        values[f.name] = _tuples(value)
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid header: {path}{exc}") from exc
