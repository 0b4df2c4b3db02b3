"""Tokenization at four cumulative preprocessing levels.

Level I keeps whitespace-separated tokens verbatim.  Level II lowercases
and splits on every character that is neither letter nor digit in any
script (``str.isalpha`` or ``str.isdigit``): one ``str.translate`` turns
each such character into a space and ``str.split`` cuts there.  Level III
additionally drops members of the bundled SMART stopword list, and level
IV Porter-stems the survivors.  Every level returns a deduplicated term
set; term frequency and order are discarded deliberately.  Levels III and
IV are built from the set one level down: :func:`term_sets` builds a
text's levels in that cascade, so a text is split once however many
levels are asked for, and :func:`tokenize` given no set from below builds
the levels under the one asked for itself.  A caller that builds the sets
of many texts passes one :class:`Stems` memo down the cascade, so each
distinct word is stemmed once for as long as the caller keeps the memo.
A level that is not a :class:`PrepLevel` is rejected.

:func:`reading` opens every input file the package reads (topics, runs,
judgments and config files), and ``_decimal`` reads run scores and ``--alpha``.
"""

from __future__ import annotations

import enum
import os
import re
from contextlib import contextmanager
from typing import Callable, Collection, Iterable, Iterator

from .porter import porter_stem

TermSet = frozenset[str]

#: What :func:`reading` reads: a path (a ``str`` or any ``os.PathLike``) or the lines themselves.
Source = str | os.PathLike | Iterable[str]


class PrepLevel(enum.Enum):
    """The cumulative preprocessing levels, labelled I through IV."""

    RAW = "I"
    CASE_PUNCT = "II"
    STOP = "III"
    STEM = "IV"

    @classmethod
    def from_code(cls, code: str) -> "PrepLevel":
        """Accept a roman-numeral label ("II") or a member name ("CASE_PUNCT"), in ASCII only.

        ``str.upper`` maps some other letters to ASCII ones (``"ſtem"`` to ``"STEM"``).
        """
        ascii_only, code = code.isascii(), code.strip()
        for level in cls:
            if ascii_only and (code == level.value or code.upper() == level.name):
                return level
        raise ValueError(f"unknown preprocessing level {code!r}")


# a plain file beside this module, so the package cannot run from inside a zip archive
with open(os.path.join(os.path.dirname(__file__), "data", "smart_stopwords.txt"),
          encoding="utf-8") as _fh:
    _STOPWORDS: frozenset[str] = frozenset(_fh.read().split())


class _Separators(dict):
    """``str.translate`` table: a letter or digit stays, anything else becomes a space."""

    def __missing__(self, point: int) -> int | str:  # past ASCII; stores nothing
        return point if chr(point).isalpha() or chr(point).isdigit() else " "


_SEPARATORS = _Separators()
_SEPARATORS.update((point, _SEPARATORS[point]) for point in range(128))


def _alnum_tokens(text: str) -> list[str]:
    # A token is a maximal run of letters/digits; everything else separates.
    return text.translate(_SEPARATORS).split()


class Stems(dict):
    """A memo from level-III word to its Porter stem: a word is stemmed on its first lookup.

    It is unbounded, so its owner keeps it for one command's texts and then drops it.
    """

    def __missing__(self, word: str) -> str:
        stem = self[word] = porter_stem(word)
        return stem


_CASCADE = (PrepLevel.CASE_PUNCT, PrepLevel.STOP, PrepLevel.STEM)


def _check_level(level: object) -> None:
    if not isinstance(level, PrepLevel):
        raise ValueError(f"level {level!r} is not a PrepLevel")


def tokenize(text: str, level: PrepLevel, below: TermSet | None = None,
             stems: Stems | None = None) -> TermSet:
    """Produce the deduplicated term set of ``text`` at a preprocessing level.

    ``below``, if given, is the term set of the same ``text`` one level
    down; level III is then ``below`` minus the stopwords and level IV the
    stems of ``below``, so the text is not split again.  Levels I and II
    read the text and take no ``below``.  Level IV looks its words up in
    ``stems`` if given; the other levels do not use it.
    """
    _check_level(level)
    if level in (PrepLevel.RAW, PrepLevel.CASE_PUNCT):
        if below is not None:
            raise ValueError(f"level {level.value} reads the text, not a term set from below")
        return frozenset(text.split() if level is PrepLevel.RAW else _alnum_tokens(text.lower()))
    if below is None:  # build level II, and level III under level IV
        below = frozenset(_alnum_tokens(text.lower()))
        if level is PrepLevel.STEM:
            below -= _STOPWORDS
    if level is PrepLevel.STOP:
        return below - _STOPWORDS
    return frozenset(map(porter_stem if stems is None else stems.__getitem__, below))


def term_sets(text: str, levels: Collection[PrepLevel],
              stems: Stems | None = None) -> dict[PrepLevel, TermSet]:
    """The term sets of ``text`` at each of ``levels``, each built from the level below.

    Levels II up to the highest one asked for are built once each, on the
    way; level I only when asked for, and nothing above the highest.
    Level IV looks its words up in ``stems`` if given.
    """
    for level in levels:
        _check_level(level)
    sets = {PrepLevel.RAW: tokenize(text, PrepLevel.RAW)} if PrepLevel.RAW in levels else {}
    top = max((_CASCADE.index(level) + 1 for level in levels if level in _CASCADE), default=0)
    below = None
    for level in _CASCADE[:top]:
        below = sets[level] = tokenize(text, level, below, stems)
    return sets


@contextmanager
def reading(source: Source, error: Callable[[str], Exception]) -> Iterator[Iterable[str]]:
    """The lines of ``source``: a path is opened as UTF-8, other lines come back unchanged.

    A leading byte order mark is dropped and lines end at \\n, \\r or \\r\\n.
    Bytes that are not UTF-8, met while the caller iterates in its ``with``
    body, raise ``error`` with the path, the 1-based line and the byte.
    """
    if not isinstance(source, (str, os.PathLike)):
        yield source
        return
    source = os.fspath(source)  # so a message names the path, not the object
    with open(source, encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # each byte that is not UTF-8 becomes one lone surrogate, U+DC80..U+DCFF
            with open(source, "rb") as raw:
                text = raw.read().decode("utf-8", "surrogateescape")
            bad = re.search("[\udc80-\udcff]", text)
            if bad is None:
                raise error(f"{source}: not valid UTF-8 when first read") from None
            line = len(re.findall(r"\r\n?|\n", text[: bad.start()])) + 1
            raise error(f"{source}: line {line}: byte 0x{ord(bad.group()) - 0xDC00:02x} "
                        "is not valid UTF-8") from None


def _decimal(text: str) -> float:
    """``float(text)`` for plain ASCII only: ``float`` alone reads ``1_0`` as 10 and ``٣`` as 3."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII decimal: {text!r}")
    return float(text)
