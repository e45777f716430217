"""Independent reference machinery for the tests.

The parser oracle below re-derives stress, templates, segmentations,
probabilities, and the argmax from scratch with its own control flow,
so agreement with the package is evidence rather than tautology. The
random generators build toy lexica and inputs inside the supported
shape envelope (at most 2 nuclei per word, at most 4 medial
consonants).
"""

from __future__ import annotations

import random
from functools import reduce
from operator import mul

from hypothesis import strategies as st

from phonotax.grammar import PathType, format_path
from phonotax.phonology import BOUNDARY_MARK, PhonemeInventory, Transcription

# one transcription field as the oracle reads it: (symbol, stress digit or None, is_vowel)
Field = tuple[str, int | None, bool]


def read_fields(raw: str, inv: PhonemeInventory) -> list[list[Field]]:
    """The oracle's own reading of valid transcription text, per phonological word.

    Each field is split into its symbol and trailing stress digit, and
    the symbol's class is looked up in the inventory's table.
    """
    words: list[list[Field]] = [[]]
    for text in raw.split():
        if text == BOUNDARY_MARK:
            words.append([])
            continue
        stress = int(text[-1]) if text[-1].isdigit() else None
        symbol = text if stress is None else text[:-1]
        words[-1].append((symbol, stress, inv.classes[symbol] == "V"))
    return words


def word_runs(t: Transcription) -> tuple[tuple[str, ...], ...]:
    """Symbol runs per phonological word (one or two)."""
    if t.boundary is None:
        return (t.symbols,)
    return (t.symbols[: t.boundary], t.symbols[t.boundary :])


def format_transcription(t: Transcription) -> str:
    """Inverse of tokenize: canonical whitespace-separated text."""
    digits = dict(zip(t.nuclei, t.stresses))
    fields = []
    for i, symbol in enumerate(t.symbols):
        if i == t.boundary:
            fields.append(BOUNDARY_MARK)
        digit = digits.get(i)
        fields.append(symbol if digit is None else f"{symbol}{digit}")
    return " ".join(fields)

# (word count, flattened syllable categories) per stress pattern; literal tables
ORACLE_TEMPLATES = {
    ("s",): [(1, ["Ssif"])],
    ("w",): [(1, ["Swif"])],
    ("w", "s"): [(1, ["Swi", "Ssf"])],
    ("s", "w"): [(1, ["Ssi", "Swf"])],
    ("s", "s"): [
        (1, ["Ssi", "Ssf"]),
        (2, ["Ssif", "Ssif"]),
    ],
}


def _oracle_stress(word: list[Field]) -> list[str]:
    digits = [stress for _, stress, is_vowel in word if is_vowel]
    assert digits, "oracle fed a vowel-less word"
    if digits == [None]:
        return ["s"]
    out = []
    for stress in digits:
        assert stress is not None, "oracle fed an undigited polysyllable"
        out.append("w" if stress == 0 else "s")
    return out


def _oracle_word_splits(word: list[Field]) -> list[list[tuple[tuple, tuple]]]:
    vowel_at = [i for i, (_, _, is_vowel) in enumerate(word) if is_vowel]
    if len(vowel_at) == 1:
        n = vowel_at[0]
        return [[(tuple(word[:n]), tuple(word[n:]))]]
    n0, n1 = vowel_at
    splits = []
    # j = where the second syllable's onset begins
    for j in range(n0 + 1, n1 + 1):
        splits.append([
            (tuple(word[:n0]), tuple(word[n0:j])),
            (tuple(word[j:n1]), tuple(word[n1:])),
        ])
    return splits


def _oracle_prob(model, cell: str, terminal) -> float:
    """A path's probability by the simple-mode rule, from the model's counts and config alone."""
    assert model.config.gt_mode == "simple", "oracle fed a model smoothed in another mode"
    counts = model.counts.get(cell, {})
    n = sum(counts.values())
    if n == 0:
        return model.config.epsilon
    p0 = min(max(sum(1 for c in counts.values() if c == 1) / n, 1 / (2 * n)), 0.5)
    return (1 - p0) * counts[terminal] / n if terminal in counts else p0


def oracle_best(raw: str, inv: PhonemeInventory, model) -> tuple[float, list[str]]:
    """Exhaustive best parse of valid text: (product, rendered path texts)."""
    words = read_fields(raw, inv)
    pattern = tuple(s for w in words for s in _oracle_stress(w))
    templates = ORACLE_TEMPLATES[pattern]
    if len(words) == 2:
        templates = [tpl for tpl in templates if tpl[0] == 2]
    assert templates, "oracle fed an unsupported shape"

    word_splits = [_oracle_word_splits(w) for w in words]
    combos = [[]]
    for options in word_splits:
        combos = [prefix + option for prefix in combos for option in options]

    best_product = None
    best_texts = None
    for _, cats in templates:
        for syllables in combos:
            assert len(cats) == len(syllables)
            probs = []
            texts = []
            for cat, (onset, rhyme) in zip(cats, syllables):
                for kind, run in (("O", onset), ("R", rhyme)):
                    cell = kind + cat[1:]  # the cell label, e.g. 'O' + 'si'
                    terminal = tuple(symbol for symbol, _, _ in run)
                    probs.append(_oracle_prob(model, cell, terminal))
                    texts.append(format_path(PathType(cell, terminal)))
            product = reduce(mul, probs, 1.0)
            text = " ; ".join(texts)
            if (
                best_product is None
                or product > best_product
                or (product == best_product and text < best_texts)
            ):
                best_product = product
                best_texts = text
    return best_product, best_texts.split(" ; ")


# ---------------------------------------------------------------- generators

GEN_CONSONANTS = ["p", "t", "k", "s", "m", "l", "n", "d", "b"]
GEN_VOWELS = ["æ", "ɪ", "ʌ", "ə", "iː", "aɪ"]


def _consonants(rng: random.Random, lo: int, hi: int) -> list[str]:
    return [rng.choice(GEN_CONSONANTS) for _ in range(rng.randint(lo, hi))]


def random_monosyllable(rng: random.Random, digited: bool | None = None) -> str:
    if digited is None:
        digited = rng.random() < 0.5
    vowel = rng.choice(GEN_VOWELS) + ("1" if digited else "")
    return " ".join(_consonants(rng, 0, 3) + [vowel] + _consonants(rng, 0, 2))


def random_disyllable(rng: random.Random, medial_max: int = 4) -> str:
    d1, d2 = rng.choice([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
    fields = (
        _consonants(rng, 0, 2)
        + [rng.choice(GEN_VOWELS) + str(d1)]
        + _consonants(rng, 0, medial_max)
        + [rng.choice(GEN_VOWELS) + str(d2)]
        + _consonants(rng, 0, 2)
    )
    return " ".join(fields)


def random_compound(rng: random.Random) -> str:
    return f"{random_monosyllable(rng)} + {random_monosyllable(rng)}"


def random_transcription_text(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.4:
        return random_monosyllable(rng)
    if roll < 0.85:
        return random_disyllable(rng)
    return random_compound(rng)


def random_lexicon(rng: random.Random, n_entries: int) -> str:
    lines = []
    for i in range(n_entries):
        lines.append(f"w{i}\t{random_transcription_text(rng)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ edge documents

# text that lands on a parser's edges: notation marks, signs and huge or
# non-finite numbers, control and line-separator characters, free text
EDGE_TEXT = st.one_of(
    st.sampled_from(["", " ", "\t", ",", "#", "+", ";", ":", "∅", "0", "-1", "1e309", "nan", "inf",
                     "9" * 40, "9" * 400, "1.5", "a1", "'", "\"", "\x00", "\r", "\x0b", "\u2028", "\ufeff"]),
    st.text(max_size=6),
)


@st.composite
def edited_documents(draw, document: str, sep: str = "\t") -> str:
    """``document`` after one to four edits: lines dropped, doubled, swapped or
    spliced with edge text, or one ``sep``-separated field replaced by it."""
    lines = document.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(EDGE_TEXT))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "double", "swap", "splice", "field"]))
        if edit == "drop":
            del lines[i]
        elif edit == "double":
            lines.insert(i, lines[i])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "splice":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(EDGE_TEXT) + lines[i][at:]
        else:
            fields = lines[i].split(sep)
            fields[draw(st.integers(0, len(fields) - 1))] = draw(EDGE_TEXT)
            lines[i] = sep.join(fields)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def documents(valid: str, sep: str = "\t") -> st.SearchStrategy[str]:
    """Edited copies of a valid document, and arbitrary text."""
    return st.one_of(edited_documents(valid, sep), st.text())
