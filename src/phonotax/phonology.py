"""Phoneme inventories, transcriptions, and stress patterns.

Transcription text is whitespace-separated fields. Each field is a
phoneme symbol, optionally followed by a single stress digit on vowels
(1 primary, 2 secondary, 0 unstressed), e.g. ``k ae1 n d @0 l``. A bare
``+`` field marks the boundary between the two halves of a compound;
at most one is allowed. Symbols themselves are free-form UTF-8 (IPA or
ASCII schemes both work) as long as they are declared in the inventory.

A word's stress pattern is a string of the letters a constituent label
carries, one per nucleus: ``s`` strong, ``w`` weak. So ``k æ1 n ə0``
reads ``sw``, as its labels ``Osi`` ... ``Rwf`` do.

An inventory is its classes, an ordered map of symbol to ``V`` or
``C``; ``PhonemeInventory`` checks them when it is built and derives
its digest and field table from them. ``is_symbol`` is the one rule for
every symbol the package reads or writes, in an inventory, a model or a
model file: one field, not a notation mark (``∅``, ``+``, ``;``, ``:``),
not ending in a digit (stress), not opening with ``#`` (a comment) and
holding no lone surrogate (UTF-8 cannot write one).
Inventory documents are line-oriented: ``symbol<TAB>V|C`` per line,
``#`` comments and blank lines ignored.
"""

from __future__ import annotations

import hashlib
from itertools import product
from typing import NamedTuple

from .errors import (
    BadStressDigit,
    DuplicateSymbol,
    EmptyDocument,
    EmptyTranscription,
    MissingStress,
    NoNucleus,
    OutOfScope,
    ReservedSymbol,
    TooManyBoundaries,
    UnknownClass,
    UnknownSymbol,
)

VOWEL = "V"
CONSONANT = "C"

BOUNDARY_MARK = "+"
NULL_TERMINAL = "∅"  # the empty onset in all textual output
# marks of the transcription, path and model notation, never phoneme symbols
RESERVED_SYMBOLS = frozenset((NULL_TERMINAL, BOUNDARY_MARK, ";", ":"))


class _InventoryFields(NamedTuple):
    classes: dict[str, str]  # each symbol's class, V or C, in the inventory's order


class PhonemeInventory(_InventoryFields):
    """An inventory is its classes: an ordered map of phoneme symbol to ``V`` or ``C``.

    Building one checks each entry as ``load_inventory`` checks a line
    (``_check_entry``) and raises EmptyDocument for an empty map. Two
    values are derived once, when it is built, and left out of the repr:
    ``digest``, a sha256 over the ``symbol<TAB>class`` lines in order,
    and ``fields``, which maps each field text tokenize reads as a
    phoneme to (symbol, stress digit or None, is_vowel): every symbol
    bare, and every vowel also with 0, 1 and 2. They live in the
    instance's ``__dict__``, which is why this class declares no slots.
    Equality is the digest's, so symbol order counts, as it does in a
    model file's name for the inventory.
    """

    def __new__(cls, classes: dict[str, str]) -> PhonemeInventory:
        if not classes:
            raise EmptyDocument("inventory declares no symbols")
        for symbol, kind in classes.items():
            _check_entry(symbol, kind)
        self = super().__new__(cls, classes)
        canon = "\n".join([f"{symbol}\t{kind}" for symbol, kind in classes.items()])
        self.digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        self.fields: dict[str, tuple[str, int | None, bool]] = {s: (s, None, k == VOWEL) for s, k in classes.items()}
        self.fields.update({s + d: (s, stress, True)
                            for s, k in classes.items() if k == VOWEL for stress, d in enumerate("012")})
        return self

    @classmethod
    def _make(cls, iterable) -> PhonemeInventory:  # so that _replace checks and derives too
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PhonemeInventory) and self.digest == other.digest

    def __ne__(self, other: object) -> bool:
        return not self == other

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.classes)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.classes

    def is_vowel(self, symbol: str) -> bool:
        return self.classes[symbol] == VOWEL


class Transcription(NamedTuple):
    """A word as the grammar reads it: its symbols, nuclei and their stress digits.

    ``nuclei`` are the indices of the vowel symbols in ``symbols``,
    across both words of a compound, and ``stresses`` holds each
    nucleus's stress digit (0, 1 or 2), or None where the text gave
    none. ``boundary`` is the index of the first symbol of the second
    phonological word, or None for a single word.
    """

    symbols: tuple[str, ...]
    nuclei: tuple[int, ...]
    stresses: tuple[int | None, ...]
    boundary: int | None = None


def split_lines(document: str) -> list[str]:
    r"""A document's lines, cut at ``\n``, ``\r\n`` or ``\r`` and nowhere else.

    This is ``str.splitlines`` on text that holds none of the other
    characters it cuts at (``\v``, ``\f``, ``\x1c``-``\x1e``, ``\x85``,
    ``\u2028``, ``\u2029``); inside a line each of those is whitespace.
    The inventory, lexicon, stimuli and Mitton readers cut lines here.
    """
    lines = document.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:  # the empty text after the last line end, or an empty document
        lines.pop()
    return lines


def is_symbol(text: str) -> bool:
    """Whether ``text`` may be a phoneme symbol: one field, no notation mark, no final digit, no opening ``#``.

    Nor may it hold a lone surrogate, which no UTF-8 file can carry (``isprintable`` is the fast pass: none prints).
    """
    return (text.split() == [text] and text not in RESERVED_SYMBOLS and not text[-1].isdigit() and text[0] != "#"
            and (text.isprintable() or not any("\ud800" <= c <= "\udfff" for c in text)))


def _check_entry(symbol: str, kind: str, where: str = "") -> None:
    """Raise unless an inventory may hold ``symbol`` with class ``kind``; ``where`` opens the message."""
    if kind not in (VOWEL, CONSONANT):
        raise UnknownClass(f"{where}class must be V or C, got {kind!r}")
    if not is_symbol(symbol):
        raise ReservedSymbol(f"{where}symbol {symbol!r} collides with the notation")


def load_inventory(document: str) -> PhonemeInventory:
    """Parse an inventory document into a PhonemeInventory.

    Each line's entry is checked as ``PhonemeInventory`` checks it, its
    message opened by the line number. Raises UnknownClass, also for a
    line that is not two fields, ReservedSymbol, DuplicateSymbol, or
    EmptyDocument. Comments and blank lines do not reach the digest.
    """
    classes: dict[str, str] = {}
    for lineno, line in enumerate(split_lines(document), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UnknownClass(f"line {lineno}: expected 'symbol<TAB>V|C', got {line!r}")
        symbol, kind = parts
        _check_entry(symbol, kind, f"line {lineno}: ")
        if symbol in classes:
            raise DuplicateSymbol(f"line {lineno}: symbol {symbol!r} declared twice")
        classes[symbol] = kind
    if not classes:
        raise EmptyDocument("inventory document declares no symbols")
    return PhonemeInventory(classes)


def packaged_inventory() -> PhonemeInventory:
    """The IPA inventory the package ships, ``data/inventory_ipa.tsv``."""
    from importlib import resources  # here, not at the top: `import phonotax` would pay for it
    return load_inventory(resources.files(__package__).joinpath("data/inventory_ipa.tsv").read_text("utf-8"))


def _field_error(text: str, inv: PhonemeInventory) -> BadStressDigit | UnknownSymbol:
    """What tokenize raises for a field that is neither ``+`` nor in ``inv.fields``."""
    symbol, digit = (text[:-1], text[-1]) if text[-1].isdigit() else (text, "")
    if digit and digit not in "012":
        return BadStressDigit(f"stress digit must be 0, 1, or 2: {text!r}")
    if symbol not in inv:
        return UnknownSymbol(f"symbol {symbol!r} not in inventory")
    return BadStressDigit(f"stress digit on consonant: {text!r}")


def tokenize(raw: str, inv: PhonemeInventory) -> Transcription:
    """Parse transcription text against an inventory.

    A trailing digit on a field is its stress digit and must sit on a
    vowel; a bare ``+`` marks the compound boundary. Every other field
    is read from ``inv.fields``.
    """
    fields = raw.split()
    if not fields:
        raise EmptyTranscription("empty transcription text")
    table = inv.fields
    symbols: list[str] = []
    nuclei: list[int] = []
    stresses: list[int | None] = []
    boundary: int | None = None
    for text in fields:
        read = table.get(text)
        if read is None:
            if text != BOUNDARY_MARK:
                raise _field_error(text, inv)
            if boundary is not None:
                raise TooManyBoundaries(f"more than one {BOUNDARY_MARK!r} in {raw!r}")
            if not symbols:
                raise EmptyTranscription(f"boundary at start of {raw!r}")
            boundary = len(symbols)
            continue
        if read[2]:  # a vowel
            nuclei.append(len(symbols))
            stresses.append(read[1])
        symbols.append(read[0])
    if boundary is not None and boundary == len(symbols):
        raise EmptyTranscription(f"boundary at end of {raw!r}")
    return Transcription(tuple(symbols), tuple(nuclei), tuple(stresses), boundary)


def _word_pattern(digits: tuple[int | None, ...]) -> str | None:
    """The stress letters of one phonological word's nucleus digits; None if a polysyllable lacks one."""
    if digits == (None,):
        # dictionaries leave monosyllables unmarked; they carry main stress
        return "s"
    if None in digits:
        return None
    return "".join(["w" if d == 0 else "s" for d in digits])


# (nucleus digits, compound) -> stress pattern, or None where a digit is
# missing, for every in-scope word whose digits tokenize can give; no
# other key reaches a pattern
_DIGITS = (None, 0, 1, 2)
_PATTERNS = {
    **{(digits, False): _word_pattern(digits) for digits in [*product(_DIGITS), *product(_DIGITS, repeat=2)]},
    **{((a, b), True): _word_pattern((a,)) + _word_pattern((b,)) for a, b in product(_DIGITS, repeat=2)},
}


def stress_pattern(t: Transcription) -> str:
    """Per-syllable stress, one letter per nucleus; the scope check of both commands.

    The word structure is checked before any stress digit is read: a
    phonological word with no vowel raises NoNucleus, then more than two
    nuclei raise OutOfScope. Digits 1 and 2 map to ``s``, 0 to ``w``. A
    word with a single undigited vowel defaults to ``s``; a polysyllabic
    word with any undigited vowel raises MissingStress. Rules apply word
    by word, so both halves of an unmarked compound default
    independently. Past the structure checks a pattern depends only on
    the digits and the boundary, so every pattern and every stress error
    is read from a table built at import: a digit outside 0-2 raises
    BadStressDigit.
    """
    nuclei, boundary = t.nuclei, t.boundary
    if not nuclei or boundary is not None and not nuclei[0] < boundary <= nuclei[-1]:
        raise NoNucleus("phonological word has no vowel")
    if len(nuclei) > 2:
        raise OutOfScope(f"{len(nuclei)} syllables; only one or two are supported")
    pattern = _PATTERNS.get((t.stresses, boundary is not None), "")
    if pattern:
        return pattern
    if pattern is None:
        vowel = t.symbols[nuclei[t.stresses.index(None)]]
        raise MissingStress(f"vowel {vowel!r} lacks a stress digit")
    # only a hand-built Transcription holds digits that tokenize never gives
    raise BadStressDigit(f"stress digits must be 0, 1, or 2: {t.stresses!r}")
