"""Tokenization at four cumulative preprocessing levels.

Level I keeps whitespace-separated tokens verbatim.  Level II lowercases
and splits on every character that is neither letter nor digit.  Level III
additionally drops members of the bundled SMART stopword list, and level
IV Porter-stems the survivors.  Every level returns a deduplicated term
set; term frequency and order are discarded deliberately.

:func:`undecodable` names the line of an input file that is not UTF-8.
"""

from __future__ import annotations

import enum
import re
from importlib import resources
from itertools import groupby
from pathlib import Path

from .porter import porter_stem

TermSet = frozenset[str]


class PrepLevel(enum.Enum):
    """The cumulative preprocessing levels, labelled I through IV."""

    RAW = "I"
    CASE_PUNCT = "II"
    STOP = "III"
    STEM = "IV"

    @classmethod
    def from_code(cls, code: str) -> "PrepLevel":
        """Accept a roman-numeral label ("II") or a member name ("CASE_PUNCT")."""
        code = code.strip()
        for level in cls:
            if code == level.value or code.upper() == level.name:
                return level
        raise ValueError(f"unknown preprocessing level {code!r}")


_STOPWORDS: frozenset[str] = frozenset(
    (resources.files(__package__) / "data" / "smart_stopwords.txt")
    .read_text(encoding="utf-8")
    .split()
)


def is_stopword(term: str) -> bool:
    """True iff the (already lowercased) term is in the SMART stopword list."""
    return term in _STOPWORDS


def _alnum_tokens(text: str) -> list[str]:
    # A token is a maximal run of letters/digits; everything else separates.
    return [
        "".join(run)
        for is_word, run in groupby(text, key=lambda ch: ch.isalpha() or ch.isdigit())
        if is_word
    ]


def tokenize(text: str, level: PrepLevel) -> TermSet:
    """Produce the deduplicated term set of ``text`` at a preprocessing level."""
    if level is PrepLevel.RAW:
        return frozenset(text.split())
    terms = _alnum_tokens(text.lower())
    if level is PrepLevel.CASE_PUNCT:
        return frozenset(terms)
    terms = [term for term in terms if term not in _STOPWORDS]
    if level is PrepLevel.STOP:
        return frozenset(terms)
    return frozenset(porter_stem(term) for term in terms)


def undecodable(path: str | Path) -> str:
    """Where the file at ``path`` stops being UTF-8: the path, its 1-based line and the byte.

    Lines end as in text-mode reading, at \\n, \\r or \\r\\n.  The file is read
    again as bytes, so this is for after a text-mode read of it has failed.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(re.findall(rb"\r\n?|\n", data[: exc.start])) + 1
        return f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not valid UTF-8"
    return f"{path}: not valid UTF-8 when first read"
