"""Seeded, stdlib-only generator of lexicons and stimuli for the benchmark.

Every symbol is drawn from the packaged IPA inventory. Onsets and codas
come from ranked lists with Zipf-like weights, so frequent clusters fill
the model cells and rare ones stay sparse. Each workload's shape mix is
fixed (see ``LEXICON_MIX`` and ``WIDE_MIX``); the same seed gives
byte-identical files.

The shape shares, the cluster rankings and ``ZIPF`` are not taken from
any dictionary count and are unverified. They were tuned to reach the
sizes of a model trained on a 50k-word dictionary: about 154k paths and
5.7k model records from 50k lexicon lines, and 2.6 parses per word on
the score-mix stimuli.

Some lines are planted to be rejected (three syllables, no vowel, an
unknown symbol). Their ids go to a sidecar file with the error the
program is expected to report, so the checker can tell a correct
rejection from a failure. Shapes that expose known defects, such as a
secondary stress next to the primary, are kept on purpose.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# Not in the inventory: planted to be rejected as UnknownSymbol.
UNKNOWN_SYMBOLS = ("q", "x", "c")

# Ranked onsets and codas; weight of rank r is 1 / (r + 1) ** ZIPF.
ONSETS = (
    "", "k", "s", "b", "p", "t", "m", "d", "f", "h", "l", "r", "w", "g", "n",
    "ʃ", "v", "dʒ", "tʃ", "j", "θ", "z", "ð", "ʒ",
    "s t", "p r", "t r", "k r", "b r", "f l", "g r", "p l", "k l", "s p", "b l",
    "d r", "f r", "s k", "s l", "s w", "g l", "k w", "s m", "s n", "s t r",
    "s p r", "s k r", "t w", "θ r", "ʃ r", "s p l", "s k w", "p j", "b j", "k j",
    "m j", "n j", "f j", "h j", "v j", "t j", "d j", "g j", "l j", "s j", "d w",
    "g w", "θ w", "s f", "s k l",
)
STRONG_CODAS = (
    "", "t", "n", "d", "s", "k", "l", "m", "z", "p", "ŋ", "v", "f", "ʃ", "tʃ",
    "dʒ", "θ", "b", "g", "ð", "ʒ",
    "n t", "n d", "s t", "k s", "t s", "n z", "l t", "l d", "m p", "ŋ k", "k t",
    "p s", "s k", "f t", "p t", "l z", "d z", "m z", "ŋ z", "v z", "l f", "l k",
    "l m", "l p", "n s", "n θ", "n tʃ", "n dʒ", "ŋ θ", "s p", "t θ", "l v",
    "l tʃ", "l dʒ", "f s", "θ s", "m f", "k s t", "n t s", "n s t", "m p t",
    "ŋ k s", "l t s", "l v z", "n d z", "s t s", "s k s", "k s θ", "m p s",
)
WEAK_CODAS = ("", "n", "l", "t", "d", "s", "z", "m", "k", "n t", "n s", "n z", "s t", "l z")
STRONG_VOWELS = (
    "æ", "ɪ", "e", "ɒ", "ʌ", "iː", "eɪ", "aɪ", "ɑː", "ɔː", "əʊ", "uː", "ʊ",
    "ɜː", "aʊ", "ɪə", "eə", "ɔɪ", "ʊə",
)
WEAK_VOWELS = ("ə", "ɪ", "i", "əʊ", "u", "ʊ", "eɪ", "ɒ", "æ")
ZIPF = 0.85

# Valid shapes; each name maps to (stress digits per syllable, compound?).
# A digit of None leaves a monosyllable unmarked, as dictionaries do.
VALID_SHAPES = {
    "mono": ((1,), False),
    "mono_unmarked": ((None,), False),
    "mono_weak": ((0,), False),
    "trochee": ((1, 0), False),
    "iamb": ((0, 1), False),
    "primary_secondary": ((1, 2), False),   # 2 next to 1: training downgrades it
    "secondary_primary": ((2, 1), False),
    "secondary_weak": ((2, 0), False),      # 2 with no primary: stays strong
    "spondee": ((1, 1), False),
    "double_secondary": ((2, 2), False),    # no primary: both stay strong
    "compound": ((1, 1), True),
    "compound_unmarked": ((None, None), True),
}
# Planted shapes and the error class the program must report for each.
PLANTED_SHAPES = {
    "three_syllables": "OutOfScope",
    "no_vowel": "NoNucleus",
    "unknown_symbol": "UnknownSymbol",
}

# Share of each shape in the lexicon and in the score-mix stimuli.
LEXICON_MIX = {
    "mono": 0.23, "mono_unmarked": 0.10, "mono_weak": 0.01,
    "trochee": 0.38, "iamb": 0.12,
    "primary_secondary": 0.03, "secondary_primary": 0.03, "secondary_weak": 0.01,
    "compound": 0.02, "compound_unmarked": 0.01,
    "three_syllables": 0.02, "no_vowel": 0.02, "unknown_symbol": 0.02,
}
# score-wide: disyllables with 2 to 4 medial consonants, mostly strong-strong.
# The strong-strong shapes have no 2 next to a 1, so they keep both
# templates whether or not scoring learns training's downgrade.
WIDE_MIX = {"spondee": 0.40, "double_secondary": 0.35, "trochee": 0.15, "iamb": 0.10}
WIDE_MEDIAL = (2, 4)

LEXICON_SIZE = 50_000
STIMULI_SIZE = 20_000


class Ranked:
    """Items with Zipf-like weights by rank: rank r weighs 1 / (r + 1) ** ZIPF."""

    def __init__(self, items: tuple[str, ...]) -> None:
        self.items = items
        self.cum_weights = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF for r in range(len(items))))

    def extended(self, pool: list[str]) -> "Ranked":
        """The same ranking with unlisted pool members appended at the tail."""
        return Ranked(self.items + tuple(s for s in pool if s not in self.items))

    def nonempty(self) -> "Ranked":
        return Ranked(tuple(s for s in self.items if s))

    def pick(self, rng: random.Random) -> list[str]:
        (choice,) = rng.choices(self.items, cum_weights=self.cum_weights)
        return choice.split()


def read_inventory(text: str) -> dict[str, str]:
    """Symbol -> 'V' or 'C' from an inventory document."""
    classes: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            symbol, cls = line.split()
            classes[symbol] = cls
    return classes


class Generator:
    """Draws words of a given shape; all randomness comes from one seeded RNG."""

    def __init__(self, inventory: dict[str, str], seed: str) -> None:
        consonants = [s for s, c in inventory.items() if c == "C"]
        vowels = [s for s, c in inventory.items() if c == "V"]
        for table in (ONSETS, STRONG_CODAS, WEAK_CODAS):
            for cluster in table:
                for sym in cluster.split():
                    if inventory.get(sym) != "C":
                        raise ValueError(f"cluster symbol {sym!r} is not an inventory consonant")
        for sym in STRONG_VOWELS + WEAK_VOWELS:
            if inventory.get(sym) != "V":
                raise ValueError(f"vowel {sym!r} is not an inventory vowel")
        for sym in UNKNOWN_SYMBOLS:
            if sym in inventory:
                raise ValueError(f"planted unknown symbol {sym!r} is in the inventory")
        # every inventory symbol can occur: unlisted ones join at the tail
        self.onsets = Ranked(ONSETS).extended([c for c in consonants if c != "ŋ"])
        self.strong_codas = Ranked(STRONG_CODAS).extended([c for c in consonants if c not in ("h", "j", "w", "r")])
        self.weak_codas = Ranked(WEAK_CODAS)
        self.strong_vowels = Ranked(STRONG_VOWELS).extended([v for v in vowels if v not in WEAK_VOWELS])
        self.weak_vowels = Ranked(WEAK_VOWELS).extended(vowels)
        self.consonants = frozenset(consonants)
        self.rng = random.Random(seed)

    def syllable(self, digit: int | None) -> tuple[list[str], str, list[str]]:
        """Onset, nucleus text with its stress digit, and coda of one syllable."""
        weak = digit == 0
        vowel = (self.weak_vowels if weak else self.strong_vowels).pick(self.rng)[0]
        coda = (self.weak_codas if weak else self.strong_codas).pick(self.rng)
        nucleus = vowel if digit is None else f"{vowel}{digit}"
        return self.onsets.pick(self.rng), nucleus, coda

    def word(self, digits: tuple[int | None, ...], compound: bool, medial: tuple[int, int] | None = None) -> str:
        """One word; for a disyllable, ``medial`` bounds the medial cluster length."""
        if compound:
            return " + ".join(self.word((d,), False) for d in digits)
        while True:
            sylls = [self.syllable(d) for d in digits]
            if medial is None or len(digits) != 2:
                break
            if medial[0] <= len(sylls[0][2]) + len(sylls[1][0]) <= medial[1]:
                break
        return " ".join(" ".join(onset + [nucleus] + coda) for onset, nucleus, coda in sylls)

    def planted(self, shape: str) -> str:
        if shape == "three_syllables":
            return self.word((1, 0, 0), False)
        if shape == "no_vowel":
            return " ".join(self.onsets.nonempty().pick(self.rng) + self.strong_codas.nonempty().pick(self.rng))
        # unknown_symbol: a valid trochee with one consonant swapped out
        symbols = self.word((1, 0), False).split()
        slots = [i for i, s in enumerate(symbols) if s in self.consonants] or [0]
        symbols[self.rng.choice(slots)] = self.rng.choice(UNKNOWN_SYMBOLS)
        return " ".join(symbols)

    def entries(self, n: int, mix: dict[str, float], medial: tuple[int, int] | None = None):
        """Yield n (shape, transcription) pairs drawn from the mix."""
        shapes = list(mix)
        for shape in self.rng.choices(shapes, weights=[mix[s] for s in shapes], k=n):
            if shape in PLANTED_SHAPES:
                yield shape, self.planted(shape)
            else:
                digits, compound = VALID_SHAPES[shape]
                yield shape, self.word(digits, compound, medial)


def write_table(path: Path, prefix: str, drawn) -> dict[str, int]:
    """Write ``id<TAB>transcription`` lines plus a ``.planted.tsv`` sidecar.

    Returns the number of lines per shape.
    """
    lines, planted, shares = [], [], {}
    for i, (shape, text) in enumerate(drawn, start=1):
        word_id = f"{prefix}{i:06d}"
        lines.append(f"{word_id}\t{text}\n")
        shares[shape] = shares.get(shape, 0) + 1
        if shape in PLANTED_SHAPES:
            planted.append(f"{i}\t{word_id}\t{PLANTED_SHAPES[shape]}\n")
    path.write_text("".join(lines), encoding="utf-8")
    planted_path(path).write_text("".join(planted), encoding="utf-8")
    return shares


def planted_path(path: Path) -> Path:
    return path.with_name(path.stem + ".planted.tsv")


def read_planted(path: Path) -> dict[str, str]:
    """Planted word id -> expected error class, from a sidecar file."""
    out = {}
    for line in planted_path(path).read_text("utf-8").splitlines():
        _, word_id, reason = line.split("\t")
        out[word_id] = reason
    return out


def write_lexicon(path: Path, inventory: dict[str, str], seed: int, n: int = LEXICON_SIZE) -> dict[str, int]:
    gen = Generator(inventory, f"lexicon-{seed}")
    return write_table(path, "w", gen.entries(n, LEXICON_MIX))


def write_stimuli(
    path: Path, inventory: dict[str, str], seed: int, wide: bool, n: int = STIMULI_SIZE
) -> dict[str, int]:
    gen = Generator(inventory, f"stimuli-{'wide' if wide else 'mix'}-{seed}")
    drawn = gen.entries(n, WIDE_MIX, WIDE_MEDIAL) if wide else gen.entries(n, LEXICON_MIX)
    return write_table(path, "s", drawn)
