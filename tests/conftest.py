import json
import struct

from ctcprobe.artifacts import _PREFIX, artifact_header

# Damage applied to every binary artifact (corpus, checkpoint, `.fds`): a
# cut inside the payload or the header, junk appended to the payload, and
# a float32 NaN over the payload's last 4 bytes.  Each must fail to load
# with an error naming the file.
DAMAGE = {
    "short_payload": lambda data: data[:-100],
    "short_header": lambda data: data[:40],
    "trailing_bytes": lambda data: data + b"junk",
    "non_finite_payload":
        lambda data: data[:-4] + struct.pack("<f", float("nan")),
}


def edit_header(path, magic, edit):
    """Rewrite the binary artifact at ``path`` with ``edit`` applied to its
    parsed header, leaving its version and payload as they were."""
    data = path.read_bytes()
    version, header_len = _PREFIX.unpack_from(data, len(magic))
    start = len(magic) + _PREFIX.size
    header = json.loads(data[start:start + header_len])
    edit(header)
    path.write_bytes(artifact_header(magic, version, header)
                     + data[start + header_len:])


def drop_header_key(path, magic, key_path):
    """`edit_header` deleting the key at ``key_path`` (dict keys and list
    indices from the root)."""
    def drop(header):
        for key in key_path[:-1]:
            header = header[key]
        del header[key_path[-1]]

    edit_header(path, magic, drop)


def key_id(key_path):
    return ".".join(map(str, key_path))
