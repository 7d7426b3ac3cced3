"""The on-disk conventions every stage shares: atomic writes, errors that
name a bad file, and the binary format of the corpus, checkpoint and `.fds`."""

import contextlib
import json
import os
import struct
from pathlib import Path

TEMP_SUFFIX = ".tmp"


@contextlib.contextmanager
def atomic_write(path, mode="w", **open_kw):
    """File handle (text unless ``mode`` is "wb") whose content replaces
    ``path`` only once the block exits cleanly.  It writes ``path`` +
    `TEMP_SUFFIX` beside it and removes that on an exception, so no partial
    or temp file is left to read or hash."""
    tmp = f"{path}{TEMP_SUFFIX}"
    try:
        with open(tmp, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def remove_temps(directory):
    """Remove every `atomic_write` temp file under ``directory``: one process
    writes a directory at a time, so a temp file present between stages is
    that of a killed stage, which ran no handler to remove it."""
    for root, _dirs, names in os.walk(directory):
        for name in names:
            if name.endswith(TEMP_SUFFIX):
                os.remove(os.path.join(root, name))


@contextlib.contextmanager
def named_errors(path, what):
    """A block whose errors of a bad ``path`` become ValueErrors naming it:
    "corrupt ``what``" for JSON or UTF-8 that does not decode, "malformed
    ``what``" for a key missing or mistyped; a ValueError keeps its text."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: corrupt {what} ({exc})") from exc
    except (KeyError, TypeError) as exc:  # a missing or mistyped key
        raise ValueError(f"{path}: malformed {what} ({exc!r})") from exc
    except ValueError as exc:  # a value the file may not hold
        raise ValueError(f"{path}: {exc}") from exc


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
    foreign magic, another version, a short read, trailing bytes, and what
    `named_errors` maps of the header and the two functions raise
    ValueError naming ``path``, so their own messages leave the path out.
    """
    data = Path(path).read_bytes()
    if data[:len(magic)] != magic:
        raise ValueError(f"{path} is not a {kind}")
    start = len(magic) + _PREFIX.size
    with named_errors(path, f"{kind} header"):
        if len(data) < start:
            raise ValueError(f"truncated {kind} ({len(data)} bytes)")
        found, header_len = _PREFIX.unpack_from(data, len(magic))
        if found != version:
            raise ValueError(f"unsupported {kind} version {found}")
        if len(data) < start + header_len:
            raise ValueError(f"truncated {kind} ({len(data)} bytes)")
        header = json.loads(data[start:start + header_len])
        payload = memoryview(data)[start + header_len:]
        expected = payload_bytes(header)
        if len(payload) != expected:
            raise ValueError(f"{kind} payload is {len(payload)} bytes, its "
                             f"header describes {expected}")
        return parse(header, payload)
