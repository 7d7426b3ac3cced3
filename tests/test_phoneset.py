import pytest

from ctcprobe import phoneset
from ctcprobe.phoneset import (SOUND_CLASSES, load_table, majority_baseline,
                               synthetic_inventory, timit_inventory)


@pytest.fixture(scope="module")
def timit():
    return timit_inventory()


class TestTimitInventory:
    def test_sixty_phones_without_edge_silence(self, timit):
        assert len(timit.phones) == 60
        assert "h#" not in timit.phones

    def test_reduced_set_has_48_labels(self, timit):
        assert len(timit.labels_for_scheme("reduced48")) == 48

    def test_class_codomain_is_the_six_classes(self, timit):
        assert set(timit.class_map.values()) <= set(SOUND_CLASSES)
        assert set(timit.labels_for_scheme("sound_class")) == set(SOUND_CLASSES)

    def test_affricates(self, timit):
        assert timit.reduce("jh", "sound_class") == "affricates"
        assert timit.reduce("ch", "sound_class") == "affricates"

    def test_s_is_fricative(self, timit):
        assert timit.reduce("s", "sound_class") == "fricatives"

    def test_full_scheme_is_identity(self, timit):
        for phone in timit.phones:
            assert timit.reduce(phone, "full") == phone

    def test_folding_examples(self, timit):
        assert timit.reduce("axr", "reduced48") == "er"
        assert timit.reduce("ux", "reduced48") == "uw"
        assert timit.reduce("pcl", "reduced48") == "cl"
        assert timit.reduce("bcl", "reduced48") == "vcl"

    def test_phones_folded_together_share_sound_class(self, timit):
        by_reduced = {}
        for phone in timit.phones:
            by_reduced.setdefault(timit.reduce(phone, "reduced48"),
                                  set()).add(timit.class_map[phone])
        for reduced, classes in by_reduced.items():
            assert len(classes) == 1, (reduced, classes)

    def test_unknown_phone_rejected(self, timit):
        with pytest.raises(ValueError):
            timit.reduce("zz", "full")

    def test_unknown_scheme_rejected(self, timit):
        with pytest.raises(ValueError):
            timit.reduce("s", "classes")


class TestSyntheticInventory:
    def test_round_robin_class_map(self):
        inv = synthetic_inventory([f"p{i:02d}" for i in range(8)])
        assert inv.reduce("p00", "sound_class") == SOUND_CLASSES[0]
        assert inv.reduce("p06", "sound_class") == SOUND_CLASSES[0]
        assert inv.reduce("p01", "sound_class") == SOUND_CLASSES[1]

    def test_reduced_is_identity(self):
        inv = synthetic_inventory(["p00", "p01"])
        assert inv.reduce("p01", "reduced48") == "p01"


class TestLoadTable:
    def test_malformed_row_rejected(self):
        with pytest.raises(ValueError):
            load_table(["aa\tonly-two-columns"])

    def test_comments_and_blanks_ignored(self):
        inv = load_table(["# comment", "", "aa\taa\tvowels"])
        assert inv.phones == ["aa"]

    def test_review_flag_column_ignored(self):
        inv = load_table(["q\tq\tstops\treview", "aa\taa\tvowels"])
        assert inv.phones == ["q", "aa"]
        assert inv.reduce("q", "sound_class") == "stops"

    def test_unknown_sound_class_rejected(self):
        with pytest.raises(ValueError, match="unknown sound class 'clicks'"):
            load_table(["aa\taa\tclicks"])


class TestMajorityBaseline:
    def test_single_label(self):
        assert majority_baseline(["aa"] * 7) == ("aa", 1.0)

    def test_three_one_one(self):
        label, acc = majority_baseline(["s", "s", "s", "aa", "iy"])
        assert label == "s" and acc == pytest.approx(0.6)

    def test_tie_breaks_lexicographically(self):
        label, _ = majority_baseline(["b", "a", "a", "b"])
        assert label == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_baseline([])

    def test_accepts_a_generator(self):
        assert majority_baseline(p for p in ["aa", "iy", "iy", "iy"]) == (
            "iy", 0.75)

    def test_matches_brute_force_count(self):
        import collections
        import numpy as np
        rng = np.random.default_rng(0)
        labels = [f"p{int(i)}" for i in rng.integers(0, 5, size=200)]
        label, acc = majority_baseline(labels)
        counts = collections.Counter(labels)
        assert counts[label] == max(counts.values())
        assert acc == counts[label] / len(labels)
