"""Stemmer conformance against the bundled reference vocabulary."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep import porter
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


_TABLES = [
    (porter._STEP_2_RULES, 0),
    (porter._STEP_3_RULES, 0),
    (porter._STEP_4_RULES, 1),
]
_SUFFIXES = sorted({suffix for rules, _ in _TABLES for suffix in rules})


def _longest_n_scan(word, rules, minimum_measure):
    """The suffix search as a scan of the word's last n letters, longest n first."""
    for n in range(max(map(len, _SUFFIXES)), 1, -1):
        suffix = word[-n:]  # the whole word when it is shorter than n
        if suffix in rules:
            stem = word[: len(word) - len(suffix)]
            if (suffix != "ion" or stem.endswith(("s", "t"))) and _measure(stem) > minimum_measure:
                return stem + rules[suffix]
            return word
    return word


_letters = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=10)
_words = st.one_of(
    _letters,
    st.tuples(_letters, st.sampled_from(_SUFFIXES)).map("".join),
)


_LISTED = [
    # every suffix itself ("ation", "ness", "ion", ...) and words shorter than the suffixes they end
    *_SUFFIXES, "on", "n", "ess", "tion", "ti", "i", "",
    # stems that pass or fail the measure and the s/t condition of "ion"
    "relational", "rational", "adoption", "conversion", "nation", "hopefulness",
    "electrical", "formalize", "adjustment", "revival", "communism",
    # last letters that end no suffix
    "jazz", "quick", "sky", "hop", "b", "x", "awkward",
]


class TestSuffixLookupOracle:
    @pytest.mark.parametrize("rules, minimum_measure", _TABLES)
    def test_listed_words(self, rules, minimum_measure):
        for word in _LISTED:
            assert porter._apply_table(word, rules, minimum_measure) == _longest_n_scan(
                word, rules, minimum_measure
            ), word

    @settings(max_examples=500)
    @given(_words)
    def test_random_words(self, word):
        for rules, minimum_measure in _TABLES:
            assert porter._apply_table(word, rules, minimum_measure) == _longest_n_scan(
                word, rules, minimum_measure
            )
