"""Stemmer conformance against the bundled reference vocabulary."""

from pathlib import Path

import pytest

from polyrep.porter import _measure, porter_stem

PAIRS_FILE = Path(__file__).parent / "data" / "porter_pairs.txt"


def load_pairs():
    pairs = []
    for line in PAIRS_FILE.read_text().splitlines():
        word, stem = line.split()
        pairs.append((word, stem))
    return pairs


def test_reference_vocabulary_is_large_enough():
    assert len(load_pairs()) >= 100


@pytest.mark.parametrize("word,expected", load_pairs())
def test_reference_pair(word, expected):
    assert porter_stem(word) == expected


class TestSpecialCases:
    def test_spec_examples(self):
        assert porter_stem("caresses") == "caress"
        assert porter_stem("ponies") == "poni"
        assert porter_stem("sky") == "sky"

    @pytest.mark.parametrize("short", ["", "a", "as", "is", "be", "by"])
    def test_short_tokens_pass_through(self, short):
        assert porter_stem(short) == short

    @pytest.mark.parametrize("token", ["2010", "h2o", "alpha-particle", "e=mc2"])
    def test_non_alphabetic_tokens_pass_through(self, token):
        assert porter_stem(token) == token

    def test_longest_suffix_blocks_shorter_ones(self):
        # "nation" ends in a step-2 suffix whose measure condition fails;
        # no shorter suffix may be tried afterwards.
        assert porter_stem("nation") == "nation"

    def test_double_consonant_undoubling_is_letter_aware(self):
        assert porter_stem("hopping") == "hop"
        assert porter_stem("falling") == "fall"  # l is exempt
        assert porter_stem("hissing") == "hiss"  # s is exempt
        assert porter_stem("fizzing") == "fizz"  # z is exempt

    def test_e_restoration_after_stripping(self):
        assert porter_stem("conflated") == "conflat"
        assert porter_stem("filing") == "file"
        assert porter_stem("sized") == "size"


@pytest.mark.parametrize(
    "stem,m",
    [
        # Porter (1980)'s examples of the measure m, y included
        *[(stem, 0) for stem in ("tr", "ee", "tree", "y", "by")],
        *[(stem, 1) for stem in ("trouble", "oats", "trees", "ivy")],
        *[(stem, 2) for stem in ("troubles", "private", "oaten", "orrery")],
    ],
)
def test_measure_of_the_paper_examples(stem, m):
    assert _measure(stem) == m
