# Damage applied to every binary artifact (corpus, checkpoint, `.fds`): a
# cut inside the payload or the header, and junk appended to the payload.
# Each must fail to load with an error naming the file.
DAMAGE = {
    "short_payload": lambda data: data[:-100],
    "short_header": lambda data: data[:40],
    "trailing_bytes": lambda data: data + b"junk",
}
