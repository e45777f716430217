"""Best-effort importer for Mitton-style dictionary files (text710.dat).

The source format is line-oriented: headword, pronunciation, then
grammatical tag fields, space-separated. Pronunciations use an ASCII
phone alphabet with ``'`` marking primary and ``,`` secondary stress
before the syllable. This converter maps that alphabet onto the
package's IPA inventory and emits standard lexicon lines
(``orthography<TAB>transcription``).

The mapping is deliberately conservative and fully documented here:

- orthography = first field, pronunciation = second field; anything a
  greedy phone tokenizer cannot consume skips the line with a reason
  (this also sheds multi-word heads, whose second field is orthography
  and fails to tokenize as phones);
- ``'`` and ``,`` attach stress 1 / 2 to the next vowel; remaining
  vowels get 0 when the word has two or more nuclei, and monosyllables
  stay undigited;
- a final obstruent + l/m/n with no vowel after the last nucleus is
  read as a syllabic consonant and gains an inserted schwa (candle
  'k&ndl -> k æ1 n d ə0 l), while liquid-final clusters are left alone
  (film stays one syllable);
- a head with exactly one hyphen whose pronunciation carries exactly
  one ``,`` is split there into a compound: both halves keep primary
  stress and a ``+`` boundary joins them;
- ``x`` (loch) is approximated as k and counted in the notes.

Counts from the original study are not expected to reproduce exactly;
the conversion is versioned by this module and every skip is reported.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import NamedTuple

from .phonology import packaged_inventory, split_lines

# ASCII phone -> inventory symbol; multi-character phones first
MITTON_PHONES: dict[str, str] = {
    "tS": "tʃ", "dZ": "dʒ",
    "i:": "iː", "A:": "ɑː", "O:": "ɔː", "u:": "uː", "3:": "ɜː",
    "eI": "eɪ", "@U": "əʊ", "aI": "aɪ", "aU": "aʊ", "OI": "ɔɪ",
    "I@": "ɪə", "e@": "eə", "U@": "ʊə",
    "p": "p", "b": "b", "t": "t", "d": "d", "k": "k", "g": "g",
    "f": "f", "v": "v", "T": "θ", "D": "ð", "s": "s", "z": "z",
    "S": "ʃ", "Z": "ʒ", "h": "h", "m": "m", "n": "n", "N": "ŋ",
    "l": "l", "r": "r", "R": "r", "j": "j", "w": "w", "x": "k",
    "I": "ɪ", "e": "e", "&": "æ", "Q": "ɒ", "U": "ʊ", "V": "ʌ",
    "@": "ə", "i": "i", "u": "u",
}

_PHONE_KEYS = sorted(MITTON_PHONES, key=len, reverse=True)


@functools.cache
def _vowels() -> frozenset[str]:
    """The packaged inventory's vowels; every MITTON_PHONES value is one of its symbols."""
    inv = packaged_inventory()
    return frozenset(s for s in inv.symbols if inv.is_vowel(s))


_OBSTRUENTS = {"p", "b", "t", "d", "k", "g", "tʃ", "dʒ",
               "f", "v", "θ", "ð", "s", "z", "ʃ", "ʒ", "h"}

_APPROXIMATED = {"x", "R"}


class PhoneError(ValueError):
    pass


def _tokenize_phones(pron: str) -> list[tuple[str, int | None]]:
    """Greedy longest-match over the phone alphabet.

    Returns (symbol, stress) pairs where stress is set on the vowel a
    preceding mark applies to. Raises PhoneError on anything else.
    """
    out: list[tuple[str, int | None]] = []
    pending: int | None = None
    i = 0
    while i < len(pron):
        ch = pron[i]
        if ch in "'\"":
            pending = 1
            i += 1
            continue
        if ch == ",":
            pending = 2
            i += 1
            continue
        for key in _PHONE_KEYS:
            if pron.startswith(key, i):
                symbol = MITTON_PHONES[key]
                if symbol in _vowels():
                    out.append((symbol, pending))
                    pending = None
                else:
                    out.append((symbol, None))
                i += len(key)
                break
        else:
            raise PhoneError(f"unknown phone at {pron[i:]!r}")
    return out


def _restore_syllabic(phones: list[tuple[str, int | None]]) -> tuple[list[tuple[str, int | None]], bool]:
    """Insert a schwa before a final syllabic l/m/n after an obstruent."""
    last_vowel = max((i for i, (s, _) in enumerate(phones) if s in _vowels()), default=-1)
    run = phones[last_vowel + 1 :]
    if len(run) >= 2 and run[-1][0] in ("l", "m", "n") and run[-2][0] in _OBSTRUENTS:
        return phones[:-1] + [("ə", None), phones[-1]], True
    return phones, False


def _render_word(phones: list[tuple[str, int | None]], force_primary: bool) -> str:
    """Format one phonological word, assigning default stress digits."""
    vowels = _vowels()
    nuclei = [i for i, (s, _) in enumerate(phones) if s in vowels]
    if not nuclei:
        raise PhoneError("no vowel")
    fields = []
    primary_used = False
    for i, (symbol, stress) in enumerate(phones):
        if symbol not in vowels:
            fields.append(symbol)
            continue
        if stress is None:
            if force_primary and not primary_used and i == nuclei[0]:
                stress = 1
            elif len(nuclei) > 1:
                stress = 0
        if stress == 1:
            primary_used = True
        fields.append(symbol if stress is None else f"{symbol}{stress}")
    return " ".join(fields)


class MittonImport(NamedTuple):
    lexicon_text: str
    converted: int
    skipped: list[tuple[int, str, str]]  # (lineno, reason, headword or line)
    notes: Counter


def convert_mitton(document: str) -> MittonImport:
    """Convert a whole dictionary document to lexicon format."""
    lines_out: list[str] = []
    skipped: list[tuple[int, str, str]] = []
    notes: Counter = Counter()
    converted = 0
    for lineno, line in enumerate(split_lines(document), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            skipped.append((lineno, "short-line", line.strip()))
            continue
        head, pron = fields[0], fields[1]
        compound = head.count("-") == 1 and pron.count(",") == 1
        halves = pron.split(",") if compound else [pron]
        try:
            # tokenize every half before rendering any: an unknown phone in either half,
            # not a vowel-less first half, is the reason a line is skipped
            words = [_restore_syllabic(_tokenize_phones(half)) for half in halves]
            # each compound half is its own word and keeps main stress
            rendered = " + ".join(_render_word(phones, force_primary=compound) for phones, _ in words)
        except PhoneError as err:
            skipped.append((lineno, "unmappable-pronunciation", f"{head}: {err}"))
            continue
        if any(ch in pron for ch in _APPROXIMATED):
            notes["approximated-phones"] += 1
        if any(fixed for _, fixed in words):
            notes["syllabic-consonant-schwa"] += 1
        lines_out.append(f"{head}\t{rendered}")
        converted += 1
    return MittonImport("\n".join(lines_out) + ("\n" if lines_out else ""), converted, skipped, notes)
