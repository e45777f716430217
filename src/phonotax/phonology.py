"""Phoneme inventories, transcriptions, and stress patterns.

Transcription text is whitespace-separated tokens. Each token is a
phoneme symbol, optionally followed by a single stress digit on vowels
(1 primary, 2 secondary, 0 unstressed), e.g. ``k ae1 n d @0 l``. A bare
``+`` token marks the boundary between the two halves of a compound;
at most one is allowed. Symbols themselves are free-form UTF-8 (IPA or
ASCII schemes both work) as long as they are declared in the inventory.

Inventory documents are line-oriented: ``symbol<TAB>V|C`` per line,
``#`` comments and blank lines ignored. A symbol may not be one of the
notation marks (``∅``, ``+``, ``;``, ``:``) nor end in a digit, which
would read as a stress digit.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from .errors import (
    BadStressDigit,
    DuplicateSymbol,
    EmptyDocument,
    EmptyTranscription,
    MissingStress,
    NoNucleus,
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


class Stress(enum.Enum):
    STRONG = "s"
    WEAK = "w"


@dataclass(frozen=True)
class PhonemeInventory:
    """Ordered phoneme set with a V/C class per symbol."""

    symbols: tuple[str, ...]
    classes: dict[str, str]
    digest: str
    # field text -> its Token, filled by tokenize with valid fields only, so
    # it holds at most four entries per vowel (bare, 0, 1, 2) and one per consonant
    tokens: dict[str, Token] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.classes

    def is_vowel(self, symbol: str) -> bool:
        return self.classes[symbol] == VOWEL

    @property
    def vowels(self) -> tuple[str, ...]:
        return tuple(s for s in self.symbols if self.classes[s] == VOWEL)

    @property
    def consonants(self) -> tuple[str, ...]:
        return tuple(s for s in self.symbols if self.classes[s] == CONSONANT)


@dataclass(frozen=True, slots=True)
class Token:
    """One transcription token: a symbol plus an optional stress digit."""

    symbol: str
    stress: int | None
    is_vowel: bool


@dataclass(frozen=True, slots=True)
class Transcription:
    """Token sequence with an optional compound boundary.

    ``boundary`` is the index of the first token of the second
    phonological word, or None for a single word.
    """

    tokens: tuple[Token, ...]
    boundary: int | None = None

    def words(self) -> tuple[tuple[Token, ...], ...]:
        """Token runs per phonological word (one or two)."""
        if self.boundary is None:
            return (self.tokens,)
        return (self.tokens[: self.boundary], self.tokens[self.boundary :])


def is_reserved(symbol: str) -> bool:
    """Whether a symbol collides with the notation: a mark, or a trailing stress digit."""
    return symbol in RESERVED_SYMBOLS or symbol[-1].isdigit()


def load_inventory(document: str) -> PhonemeInventory:
    """Parse an inventory document into a PhonemeInventory.

    Raises DuplicateSymbol, ReservedSymbol, UnknownClass, or
    EmptyDocument. The digest is a sha256 over the canonical
    symbol/class pairs, so comments and blank lines do not affect it.
    """
    symbols: list[str] = []
    classes: dict[str, str] = {}
    for lineno, line in enumerate(document.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise UnknownClass(f"line {lineno}: expected 'symbol<TAB>V|C', got {line!r}")
        symbol, cls = parts
        if cls not in (VOWEL, CONSONANT):
            raise UnknownClass(f"line {lineno}: class must be V or C, got {cls!r}")
        if is_reserved(symbol):
            raise ReservedSymbol(f"line {lineno}: symbol {symbol!r} collides with the notation")
        if symbol in classes:
            raise DuplicateSymbol(f"line {lineno}: symbol {symbol!r} declared twice")
        symbols.append(symbol)
        classes[symbol] = cls
    if not symbols:
        raise EmptyDocument("inventory document declares no symbols")
    canon = "\n".join(f"{s}\t{classes[s]}" for s in symbols)
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return PhonemeInventory(tuple(symbols), classes, digest)


def _read_field(text: str, inv: PhonemeInventory) -> Token:
    """The Token one field spells; raises on anything invalid."""
    stress: int | None = None
    symbol = text
    if text[-1].isdigit():
        symbol, digit = text[:-1], text[-1]
        if digit not in "012":
            raise BadStressDigit(f"stress digit must be 0, 1, or 2: {text!r}")
        stress = int(digit)
    if symbol not in inv:
        raise UnknownSymbol(f"symbol {symbol!r} not in inventory")
    is_vowel = inv.is_vowel(symbol)
    if stress is not None and not is_vowel:
        raise BadStressDigit(f"stress digit on consonant: {text!r}")
    return Token(symbol, stress, is_vowel)


def tokenize(raw: str, inv: PhonemeInventory) -> Transcription:
    """Parse transcription text against an inventory.

    A trailing digit on a token is its stress digit and must sit on a
    vowel; a bare ``+`` marks the compound boundary. Each valid field is
    read once per inventory and its Token reused after that.
    """
    fields = raw.split()
    if not fields:
        raise EmptyTranscription("empty transcription text")
    memo = inv.tokens
    tokens: list[Token] = []
    boundary: int | None = None
    for text in fields:
        tok = memo.get(text)
        if tok is None:
            if text == BOUNDARY_MARK:
                if boundary is not None:
                    raise TooManyBoundaries(f"more than one {BOUNDARY_MARK!r} in {raw!r}")
                if not tokens:
                    raise EmptyTranscription(f"boundary at start of {raw!r}")
                boundary = len(tokens)
                continue
            tok = memo[text] = _read_field(text, inv)
        tokens.append(tok)
    if boundary is not None and boundary == len(tokens):
        raise EmptyTranscription(f"boundary at end of {raw!r}")
    return Transcription(tuple(tokens), boundary)


def format_transcription(t: Transcription) -> str:
    """Inverse of tokenize: canonical whitespace-separated text."""
    fields = []
    for i, tok in enumerate(t.tokens):
        if t.boundary is not None and i == t.boundary:
            fields.append(BOUNDARY_MARK)
        fields.append(tok.symbol if tok.stress is None else f"{tok.symbol}{tok.stress}")
    return " ".join(fields)


def nuclei_stresses(nuclei: list[Token]) -> list[Stress]:
    """Per-syllable stress of one phonological word, from its vowel tokens."""
    if not nuclei:
        raise NoNucleus("phonological word has no vowel")
    if len(nuclei) == 1 and nuclei[0].stress is None:
        # dictionaries leave monosyllables unmarked; they carry main stress
        return [Stress.STRONG]
    out = []
    for tok in nuclei:
        if tok.stress is None:
            raise MissingStress(f"vowel {tok.symbol!r} lacks a stress digit")
        out.append(Stress.WEAK if tok.stress == 0 else Stress.STRONG)
    return out


def stress_pattern(t: Transcription) -> tuple[Stress, ...]:
    """Per-syllable stress, one entry per vowel token.

    Digits 1 and 2 map to STRONG, 0 to WEAK. A word with a single
    undigited vowel defaults to STRONG; a polysyllabic word with any
    undigited vowel raises MissingStress. Rules apply per phonological
    word, so both halves of an unmarked compound default independently.
    """
    pattern: list[Stress] = []
    for word in t.words():
        pattern.extend(nuclei_stresses([tok for tok in word if tok.is_vowel]))
    return tuple(pattern)
