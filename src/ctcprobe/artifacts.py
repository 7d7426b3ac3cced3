"""The on-disk layouts every stage shares: atomic writes, and the binary
artifact format of the corpus, the checkpoint and the `.fds` files."""

import contextlib
import json
import os
import struct
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kw):
    """File handle (text unless ``mode`` is "wb") whose content replaces
    ``path`` only once the block exits cleanly.  It writes ``path`` + ".tmp"
    beside it and removes that on an exception, so no partial or temp file
    is left to read or hash."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# -- binary artifacts: magic | <BQ version, header length> | JSON | payload --

_PREFIX = struct.Struct("<BQ")


def artifact_header(magic, version, header):
    """Everything of an artifact file up to its payload, which the writer
    appends."""
    blob = json.dumps(header, sort_keys=True).encode()
    return magic + _PREFIX.pack(version, len(blob)) + blob


def read_artifact(path, magic, version, kind, payload_bytes, parse):
    """``parse(header, payload)`` of a file that starts with
    `artifact_header`.

    ``payload_bytes(header)`` is the payload length the header implies.  A
    foreign magic, another version, a short read, trailing bytes, a header
    lacking a key (or holding a mistyped one) that ``payload_bytes`` or
    ``parse`` reads, or a ValueError of either raise ValueError naming
    ``path``, so their own messages leave the path out.
    """
    data = Path(path).read_bytes()
    if data[:len(magic)] != magic:
        raise ValueError(f"{path} is not a {kind}")
    start = len(magic) + _PREFIX.size
    if len(data) < start:
        raise ValueError(f"{path}: truncated {kind} ({len(data)} bytes)")
    found, header_len = _PREFIX.unpack_from(data, len(magic))
    if found != version:
        raise ValueError(f"{path}: unsupported {kind} version {found}")
    if len(data) < start + header_len:
        raise ValueError(f"{path}: truncated {kind} ({len(data)} bytes)")
    try:
        header = json.loads(data[start:start + header_len])
    except ValueError as exc:  # JSON or UTF-8 decoding
        raise ValueError(f"{path}: corrupt {kind} header ({exc})") from exc
    payload = memoryview(data)[start + header_len:]
    try:
        expected = payload_bytes(header)
        if len(payload) != expected:
            raise ValueError(f"{kind} payload is {len(payload)} bytes, its "
                             f"header describes {expected}")
        return parse(header, payload)
    except (KeyError, TypeError) as exc:  # a missing or mistyped key
        raise ValueError(f"{path}: malformed {kind} header ({exc!r})") from exc
    except ValueError as exc:  # a value the header or payload may not hold
        raise ValueError(f"{path}: {exc}") from exc
