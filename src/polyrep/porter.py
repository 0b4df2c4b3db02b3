"""Porter suffix-stripping stemmer (the classic 1980 formulation).

The stemmer reduces inflected English word forms to a common stem by
applying five ordered suffix-rewriting steps.  Rule applicability is
governed by the measure m of the candidate stem, i.e. the number of
vowel-consonant sequences in its [C](VC)^m[V] decomposition, plus a few
letter-shape conditions (*v* contains a vowel, *d ends in a double
consonant, *o ends consonant-vowel-consonant where the final consonant is
not w, x or y).

Within each step the longest matching suffix decides the rule; if that
rule's condition fails, no shorter suffix is tried.  Words of one or two
letters are returned unchanged, and so is anything containing a
non-alphabetic character (digit-bearing tokens are outside the algorithm's
domain).  Input is expected to be lowercase.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel exactly when it follows a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    m = 0
    previous_was_vowel = False
    for i in range(len(stem)):
        consonant = _is_consonant(stem, i)
        if consonant and previous_was_vowel:
            m += 1
        previous_was_vowel = not consonant
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _apply_table(word: str, rules, minimum_measure: int) -> str:
    """Rewrite by the longest matching suffix, gated on the stem's measure.

    The suffix "ion" (step 4) also needs a stem that ends in s or t.
    """
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if (suffix != "ion" or stem.endswith(("s", "t"))) and _measure(stem) > minimum_measure:
                return stem + replacement
            return word
    return word


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # post-removal repair of the truncated stem
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP_2_RULES = (
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP_3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ness", ""),
    ("ful", ""),
)

_STEP_4_RULES = (
    ("ement", ""),
    ("ance", ""),
    ("ence", ""),
    ("able", ""),
    ("ible", ""),
    ("ment", ""),
    ("ant", ""),
    ("ent", ""),
    ("ism", ""),
    ("ate", ""),
    ("iti", ""),
    ("ous", ""),
    ("ive", ""),
    ("ize", ""),
    ("ion", ""),  # the stem must also end in s or t
    ("al", ""),
    ("er", ""),
    ("ic", ""),
    ("ou", ""),
)


def _step_5a(word: str) -> str:
    if not word.endswith("e"):
        return word
    stem = word[:-1]
    m = _measure(stem)
    if m > 1:
        return stem
    if m == 1 and not _ends_cvc(stem):
        return stem
    return word


def _step_5b(word: str) -> str:
    if (
        _measure(word) > 1
        and _ends_double_consonant(word)
        and word.endswith("l")
    ):
        return word[:-1]
    return word


def porter_stem(word: str) -> str:
    """Stem one lowercase word; short or non-alphabetic tokens pass through."""
    if len(word) <= 2 or not word.isalpha():
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _apply_table(word, _STEP_2_RULES, 0)
    word = _apply_table(word, _STEP_3_RULES, 0)
    word = _apply_table(word, _STEP_4_RULES, 1)
    word = _step_5a(word)
    word = _step_5b(word)
    return word
