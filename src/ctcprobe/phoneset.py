"""Phone inventories, label reductions, and the majority baseline.

The TIMIT table (60 phones, 48-phone folding, six coarse sound classes)
ships as an editable data file; synthetic corpora carry their own
miniature inventory with a round-robin class map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources

SOUND_CLASSES = ("affricates", "fricatives", "nasals",
                 "semivowels/glides", "stops", "vowels")

SCHEMES = ("full", "reduced48", "sound_class")


@dataclass
class PhoneInventory:
    phones: list[str]
    reduced_map: dict[str, str]       # phone -> reduced-set phone
    class_map: dict[str, str]         # phone -> coarse sound class

    def __post_init__(self):
        for phone in self.phones:
            if phone not in self.reduced_map:
                raise ValueError(f"reduced map missing phone {phone!r}")
            if phone not in self.class_map:
                raise ValueError(f"class map missing phone {phone!r}")
            if self.class_map[phone] not in SOUND_CLASSES:
                raise ValueError(
                    f"unknown sound class {self.class_map[phone]!r} "
                    f"for {phone!r}")

    def reduce(self, label: str, scheme: str = "full") -> str:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown reduction scheme {scheme!r}")
        if label not in self.reduced_map:
            raise ValueError(f"unknown phone label {label!r}")
        if scheme == "full":
            return label
        if scheme == "reduced48":
            return self.reduced_map[label]
        return self.class_map[label]

    def labels_for_scheme(self, scheme):
        """Sorted label set the scheme maps onto."""
        return sorted({self.reduce(p, scheme) for p in self.phones})


def load_table(lines):
    """The inventory of tab-separated "phone, reduced phone, sound class"
    rows; a further column (the data file's review flag) is ignored."""
    phones, reduced, classes = [], {}, {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ValueError(f"malformed inventory row: {line!r}")
        phone, red, cls = parts[0], parts[1], parts[2]
        phones.append(phone)
        reduced[phone] = red
        classes[phone] = cls
    return PhoneInventory(phones, reduced, classes)


def timit_inventory() -> PhoneInventory:
    text = resources.files("ctcprobe.data").joinpath("timit60.tsv").read_text()
    return load_table(text.splitlines())


def synthetic_inventory(phones) -> PhoneInventory:
    """Miniature inventory for synthetic corpora: each phone is its own
    reduced phone, and the six sound classes are assigned round-robin
    (metrics only need a total map, not phonetic truth)."""
    phones = list(phones)
    return PhoneInventory(phones, {p: p for p in phones},
                          {p: SOUND_CLASSES[i % len(SOUND_CLASSES)]
                           for i, p in enumerate(phones)})


def majority_baseline(labels):
    """Most frequent of the label names ``labels`` and its relative
    frequency; ties go to the smallest name."""
    counts = Counter(labels)
    if not counts:
        raise ValueError("no labels")
    top_count = max(counts.values())
    label = min(lbl for lbl, n in counts.items() if n == top_count)
    return label, top_count / counts.total()
