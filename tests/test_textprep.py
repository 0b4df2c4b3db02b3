"""Tokenization levels, stopword membership, the bundled stoplist file and the line reader."""

import os
import re
import unicodedata
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrep import textprep
from polyrep.porter import porter_stem
from polyrep.textprep import PrepLevel, term_sets, tokenize

# The bundled stoplist read directly, apart from the set textprep builds from it.
_STOPLIST = sorted(
    (resources.files("polyrep") / "data" / "smart_stopwords.txt").read_text().split()
)
_STOPSET = frozenset(_STOPLIST)

texts = st.text(
    alphabet=st.characters(codec="ascii", categories=["L", "N", "P", "Z"]),
    max_size=80,
)


class TestLevels:
    def test_raw_splits_on_whitespace_only(self):
        assert tokenize("The quark-gluon Plasma.", PrepLevel.RAW) == {
            "The",
            "quark-gluon",
            "Plasma.",
        }

    def test_case_punct(self):
        assert tokenize("The quark-gluon Plasma.", PrepLevel.CASE_PUNCT) == {
            "the",
            "quark",
            "gluon",
            "plasma",
        }

    def test_stopword_removal(self):
        assert tokenize("The quark-gluon Plasma.", PrepLevel.STOP) == {
            "quark",
            "gluon",
            "plasma",
        }

    def test_stemming(self):
        assert tokenize("Colliding ponies stemmed the tide.", PrepLevel.STEM) == {
            "collid",
            "poni",
            "stem",
            "tide",
        }

    def test_empty_text(self):
        for level in PrepLevel:
            assert tokenize("", level) == frozenset()

    def test_digits_survive_and_skip_stemming(self):
        assert tokenize("Run 42 trials (42%).", PrepLevel.STEM) == {"run", "42", "trial"}

    def test_level_codes(self):
        assert PrepLevel.from_code("I") is PrepLevel.RAW
        assert PrepLevel.from_code("IV") is PrepLevel.STEM
        assert PrepLevel.from_code("case_punct") is PrepLevel.CASE_PUNCT
        assert PrepLevel.from_code(" II") is PrepLevel.CASE_PUNCT
        with pytest.raises(ValueError):
            PrepLevel.from_code("V")


class TestStopwords:
    def test_the_is_a_stopword(self):
        assert "the" in _STOPSET
        assert tokenize("the", PrepLevel.STOP) == frozenset()

    def test_quark_is_not(self):
        assert "quark" not in _STOPSET
        assert tokenize("quark", PrepLevel.STOP) == {"quark"}

    def test_empty_string_is_not(self):
        assert "" not in textprep._STOPWORDS

    def test_membership_is_case_sensitive_by_contract(self):
        # level II lowercases first; the list itself stores lowercase forms
        assert "The" not in _STOPSET
        assert tokenize("The", PrepLevel.STOP) == frozenset()

    def test_bundled_file_is_sorted_lowercase_and_deduplicated(self):
        lines = (
            (resources.files("polyrep") / "data" / "smart_stopwords.txt")
            .read_text()
            .splitlines()
        )
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines))
        assert all(line == line.lower() and line.strip() == line for line in lines)
        assert len(lines) > 500


class TestProperties:
    @given(texts)
    def test_never_contains_empty_string(self, text):
        for level in PrepLevel:
            assert "" not in tokenize(text, level)

    @given(texts)
    def test_deterministic(self, text):
        for level in PrepLevel:
            assert tokenize(text, level) == tokenize(text, level)

    @given(texts)
    def test_stop_level_is_subset_of_case_punct(self, text):
        assert tokenize(text, PrepLevel.STOP) <= tokenize(text, PrepLevel.CASE_PUNCT)

    @given(texts)
    @pytest.mark.parametrize("level", [PrepLevel.CASE_PUNCT, PrepLevel.STOP])
    def test_idempotent_below_stemming(self, level, text):
        once = tokenize(text, level)
        again = tokenize(" ".join(sorted(once)), level)
        assert again == once

    def test_stemming_is_not_a_fixpoint(self):
        # Re-tokenizing stemmed output can stem further (the suffix passes
        # run once), so idempotence is only guaranteed for levels II-III.
        once = tokenize("experimental", PrepLevel.STEM)
        assert once == {"experiment"}
        assert tokenize(" ".join(once), PrepLevel.STEM) == {"experi"}


# Stopwords in mixed case (some stem to non-stopwords: "was" -> "wa"), words
# that stem, letters and digits from any script, punctuation, underscores
# and whitespace.
_pieces = st.one_of(
    st.sampled_from(_STOPLIST).flatmap(
        lambda word: st.sampled_from([word, word.upper(), word.capitalize()])
    ),
    st.sampled_from(["running", "Ponies", "generalizations", "HOPING", "caresses"]),
    st.text(alphabet=st.characters(categories=["L", "N"]), min_size=1, max_size=6),
    st.text(alphabet=st.characters(categories=["P", "S", "Z"], include_characters="_\t"),
            min_size=1, max_size=3),
)
cascade_texts = st.lists(_pieces, max_size=12).map("".join)


def _token_list_pipeline(text, level):
    """The levels as one pass over the token list: split, drop stopwords, stem."""
    if level is PrepLevel.RAW:
        return frozenset(text.split())
    terms = textprep._alnum_tokens(text.lower())
    if level is not PrepLevel.CASE_PUNCT:
        terms = [term for term in terms if term not in _STOPSET]
    if level is PrepLevel.STEM:
        terms = [porter_stem(term) for term in terms]
    return frozenset(terms)


class TestCascade:
    @settings(max_examples=300)
    @given(cascade_texts)
    def test_each_level_builds_on_the_one_below(self, text):
        case_punct = tokenize(text, PrepLevel.CASE_PUNCT)
        stop = tokenize(text, PrepLevel.STOP)
        assert tokenize(text, PrepLevel.STOP, case_punct) == stop
        assert tokenize(text, PrepLevel.STEM, stop) == tokenize(text, PrepLevel.STEM)
        for level in PrepLevel:
            assert tokenize(text, level) == _token_list_pipeline(text, level)
        assert term_sets(text, list(PrepLevel)) == {
            level: _token_list_pipeline(text, level) for level in PrepLevel
        }

    @pytest.mark.parametrize(
        "levels, built",
        [
            ([PrepLevel.RAW], [PrepLevel.RAW]),
            ([PrepLevel.CASE_PUNCT, PrepLevel.RAW], [PrepLevel.RAW, PrepLevel.CASE_PUNCT]),
            ([PrepLevel.STOP], [PrepLevel.CASE_PUNCT, PrepLevel.STOP]),
            ([PrepLevel.STEM], [PrepLevel.CASE_PUNCT, PrepLevel.STOP, PrepLevel.STEM]),
            ([PrepLevel.STEM, PrepLevel.RAW], list(PrepLevel)),
        ],
    )
    def test_builds_up_to_the_highest_level_only(self, levels, built, monkeypatch):
        text = "Colliding ponies stemmed the tide, and the ponies ran."
        calls = []
        monkeypatch.setattr(textprep, "tokenize",
                            lambda *args: calls.append(args[1]) or tokenize(*args))
        stems = []
        monkeypatch.setattr(textprep, "porter_stem",
                            lambda word: stems.append(word) or porter_stem(word))
        sets = term_sets(text, levels)
        assert calls == built
        assert list(sets) == built
        # Stemming reads the deduplicated level-III set, not the token list.
        assert sorted(stems) == (
            sorted(sets[PrepLevel.STOP]) if PrepLevel.STEM in levels else []
        )

    @pytest.mark.parametrize("level", [PrepLevel.RAW, PrepLevel.CASE_PUNCT])
    def test_levels_that_read_the_text_refuse_a_set_from_below(self, level):
        with pytest.raises(ValueError, match=f"level {level.value} reads the text"):
            tokenize("a b", level, frozenset({"a"}))

    @pytest.mark.parametrize("call", [
        lambda level: tokenize("The Cats", level),
        lambda level: tokenize("x", level, frozenset({"running"})),
        lambda level: term_sets("The Cats", [level]),
        lambda level: term_sets("The Cats", [PrepLevel.STEM, level]),
    ], ids=["tokenize", "tokenize-below", "term_sets", "term_sets-mixed"])
    @pytest.mark.parametrize("level", ["I", "II", "IV", None])
    def test_a_level_that_is_not_a_prep_level_is_rejected(self, call, level):
        with pytest.raises(ValueError, match=rf"^level {re.escape(repr(level))} is not a PrepLevel$"):
            call(level)


def _alnum_runs(text):
    """Level II one character at a time: the maximal runs of letters and digits."""
    runs, run = [], ""
    for char in text.lower():
        if char.isalpha() or char.isdigit():
            run += char
        elif run:
            runs.append(run)
            run = ""
    return frozenset(runs + [run] if run else runs)


class TestCasePunctOracle:
    @settings(max_examples=500)
    @given(st.text())
    @example("Café½x² ٣٤_naïve Ⅻ〇 über\u3000end")
    @example("a\u0085b\u3000c\x1cd\x1de\x1ff\x1eg_h")
    def test_matches_the_per_character_reference(self, text):
        assert tokenize(text, PrepLevel.CASE_PUNCT) == _alnum_runs(text)
        # the table answers code points past ASCII without storing them
        assert len(textprep._SEPARATORS) == 128


def test_level_ii_follows_the_interpreters_unicode_version():
    # U+0870 ARABIC LETTER ALEF WITH ATTACHED FATHA is a letter from Unicode 14.0 on
    text = "sea\u0870shell"
    if tuple(map(int, unicodedata.unidata_version.split("."))) >= (14, 0):
        expected = {"sea\u0870shell"}
    else:
        expected = {"sea", "shell"}
    assert tokenize(text, PrepLevel.CASE_PUNCT) == expected


def test_reading_names_a_file_replaced_after_its_bad_bytes_were_read(tmp_path):
    # the open handle decodes the old bytes; the re-read that looks for them sees the new file
    path, valid = tmp_path / "lines.txt", tmp_path / "valid.txt"
    path.write_bytes(b"ok\n\xff\n")
    valid.write_bytes(b"ok\nok\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid UTF-8 when first read$"):
        with textprep.reading(path, ValueError) as lines:
            os.replace(valid, path)
            list(lines)
