"""The one binary container behind checkpoints and synthetic fixtures.

Layout: the magic ``DTASNN02``, a little-endian u32 length and a sorted-key
JSON header, then float32 runs, each a little-endian u32 element count and
that many little-endian float32 values, then the little-endian u32 CRC32 of
every preceding byte. ``DTASNN01`` files have the same layout without the
trailer and still load. What the header holds and which runs follow it is
the caller's business; this module only writes and checks the bytes.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

MAGIC = b"DTASNN02"
MAGIC_V1 = b"DTASNN01"


def require_int(name: str, value) -> None:
    """Raise ValueError unless *value* is an integer; a bool or a float is not.

    The specs stored in headers check their counts with this, so a JSON
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
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read(path, error: type[Exception]) -> tuple[dict, list[np.ndarray]]:
    """The JSON header and every float32 run of the container at *path*.

    A file that cannot be read, and any fault in its bytes (magic, CRC, a
    length that points past the end, a header that is not a JSON object),
    raises *error*; the runs are read-only views into the file's bytes.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    if blob[:8] == MAGIC:
        if len(blob) < 12:
            raise error(f"{path}: truncated: {len(blob)} bytes, no CRC trailer")
        (stored,) = struct.unpack_from("<I", blob, len(blob) - 4)
        blob = blob[:-4]
        crc = zlib.crc32(blob)
        if crc != stored:
            raise error(f"{path}: CRC32 mismatch: stored {stored:#010x}, "
                        f"contents {crc:#010x}")
    elif blob[:8] != MAGIC_V1:
        raise error(f"{path}: bad container magic {blob[:8]!r}")
    off = 8

    def take(nbytes, what) -> int:
        """Offset of the next *nbytes*, which must lie inside the file."""
        nonlocal off
        if off + nbytes > len(blob):
            raise error(f"{path}: truncated in {what}: {nbytes} bytes "
                        f"needed at offset {off}, file has {len(blob)}")
        off += nbytes
        return off - nbytes

    (jlen,) = struct.unpack_from("<I", blob, take(4, "header length"))
    start = take(jlen, "header")
    try:
        header = json.loads(blob[start:off].decode("utf-8"))
    except ValueError as exc:
        raise error(f"{path}: invalid header: {exc}") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: header is not a JSON object")
    runs = []
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, take(4, "run length"))
        runs.append(np.frombuffer(blob, dtype="<f4", count=n, offset=take(4 * n, "run")))
    return header, runs
