"""Porter suffix-stripping stemmer (the classic 1980 formulation).

The stemmer reduces inflected English word forms to a common stem by
applying five ordered suffix-rewriting steps.  Rule applicability is
governed by the measure m of the candidate stem, i.e. the number of
vowel-consonant sequences in its [C](VC)^m[V] decomposition, plus a few
letter-shape conditions (*v* contains a vowel, *d ends in a double
consonant, *o ends consonant-vowel-consonant where the final consonant is
not w, x or y).

All of these read one string, the word's shape: a "c" or "v" per letter,
where y is a vowel exactly when it follows a consonant.  m is the number
of "vc" in the stem's shape, *v* is a "v" in it, *d is a doubled last
letter whose shape is "c", and *o is a shape ending in "cvc".

Steps 2-4 map each suffix to its replacement in a dict.  A word's last n
letters are looked up for each length n of the suffixes ending in its last
letter, longest first, so the first hit is the longest matching suffix
and decides the rule; if that rule's condition fails, no shorter suffix is
tried.  Words of one or two letters are returned unchanged, and so is
anything containing a non-alphabetic character (digit-bearing tokens are
outside the algorithm's domain).  Input is expected to be lowercase.
"""

from __future__ import annotations


def _shape(word: str) -> str:
    """One "c" (consonant) or "v" (vowel) per letter of ``word``.

    y is a vowel exactly when it follows a consonant, so a prefix of a word
    has the matching prefix of the word's shape.
    """
    shape = ""
    for letter in word:
        shape += "v" if letter in "aeiou" or (letter == "y" and shape[-1:] == "c") else "c"
    return shape


def _measure(stem: str) -> int:
    return _shape(stem).count("vc")


def _ends_cvc(word: str) -> bool:
    return _shape(word).endswith("cvc") and word[-1] not in "wxy"


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
    if word.endswith("ed") and "v" in _shape(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and "v" in _shape(word[:-3]):
        word = word[:-3]
    else:
        return word
    # post-removal repair of the truncated stem
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if word[-2:] == 2 * word[-1] and _shape(word).endswith("c") and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step_1c(word: str) -> str:
    if word.endswith("y") and "v" in _shape(word[:-1]):
        return word[:-1] + "i"
    return word


class _Rules(dict[str, str]):
    """Suffix -> replacement; ``lengths``: last letter -> its suffixes' lengths, longest first."""

    def __init__(self, rules: dict[str, str]) -> None:
        super().__init__(rules)
        ends = {suffix[-1] for suffix in rules}
        self.lengths = {e: sorted({len(s) for s in rules if s[-1] == e})[::-1] for e in ends}


_STEP_2_RULES = _Rules({
    "ational": "ate",
    "ization": "ize",
    "iveness": "ive",
    "fulness": "ful",
    "ousness": "ous",
    "tional": "tion",
    "biliti": "ble",
    "ation": "ate",
    "alism": "al",
    "aliti": "al",
    "iviti": "ive",
    "entli": "ent",
    "ousli": "ous",
    "enci": "ence",
    "anci": "ance",
    "izer": "ize",
    "abli": "able",
    "alli": "al",
    "ator": "ate",
    "eli": "e",
})

_STEP_3_RULES = _Rules({
    "icate": "ic",
    "ative": "",
    "alize": "al",
    "iciti": "ic",
    "ical": "ic",
    "ness": "",
    "ful": "",
})

_STEP_4_RULES = _Rules({
    "ement": "",
    "ance": "",
    "ence": "",
    "able": "",
    "ible": "",
    "ment": "",
    "ant": "",
    "ent": "",
    "ism": "",
    "ate": "",
    "iti": "",
    "ous": "",
    "ive": "",
    "ize": "",
    "ion": "",  # the stem must also end in s or t
    "al": "",
    "er": "",
    "ic": "",
    "ou": "",
})


def _apply_table(word: str, rules: _Rules, minimum_measure: int) -> str:
    """Rewrite by the longest matching suffix, gated on the stem's measure.

    The suffix "ion" (step 4) also needs a stem that ends in s or t.
    """
    for n in rules.lengths.get(word[-1:], ()):
        suffix = word[-n:]  # the whole word when it is shorter than n
        if suffix in rules:
            stem = word[: len(word) - len(suffix)]
            if (suffix != "ion" or stem.endswith(("s", "t"))) and _measure(stem) > minimum_measure:
                return stem + rules[suffix]
            return word
    return word


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
    if word.endswith("ll") and _measure(word) > 1:
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
