"""Deterministic syllabification of one- and two-syllable words.

Every syllable is one onset (zero or more consonants) plus one rhyme
(the nucleus and everything after it up to the next nucleus or the
word edge). For a disyllable the only open question is how to split
the medial consonant cluster; the default policy hands the longest
cluster suffix attested as a word onset in the training corpus to the
second syllable. Tokens are carried through whole, so segments are
conserved and stress digits survive into the output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import NoNucleus, ThreePlusNuclei
from .phonology import Stress, Token, Transcription, stress_pattern

logger = logging.getLogger(__name__)

# onsets attested word-initially, as tuples of symbols; () is always a member
WordOnsetSet = frozenset


class MedialSplitPolicy(Enum):
    MAX_ONSET = "max-onset"
    ALWAYS_SPLIT_CC = "always-split-cc"


@dataclass(frozen=True)
class Syllable:
    onset: tuple[Token, ...]
    rhyme: tuple[Token, ...]
    stress: Stress

    @property
    def onset_symbols(self) -> tuple[str, ...]:
        return tuple(t.symbol for t in self.onset)

    @property
    def rhyme_symbols(self) -> tuple[str, ...]:
        return tuple(t.symbol for t in self.rhyme)


def collect_word_onsets(corpus: Iterable[Transcription]) -> WordOnsetSet:
    """Gather every word-initial consonant run in the corpus.

    Each phonological word contributes its prefix up to the first
    vowel; vowel-initial words contribute the empty onset. Words with
    no vowel at all are skipped (and logged), never guessed at.
    """
    onsets: set[tuple[str, ...]] = {()}
    skipped = 0
    for t in corpus:
        for word in t.words():
            prefix: list[str] = []
            for tok in word:
                if tok.is_vowel:
                    onsets.add(tuple(prefix))
                    break
                prefix.append(tok.symbol)
            else:
                skipped += 1
    if skipped:
        logger.warning("skipped %d vowel-less words while collecting onsets", skipped)
    return frozenset(onsets)


def _split_cluster(
    symbols: tuple[str, ...], onsets: WordOnsetSet, policy: MedialSplitPolicy
) -> int:
    """How many trailing cluster consonants open the second syllable."""
    m = len(symbols)
    if policy is MedialSplitPolicy.MAX_ONSET:
        for k in range(m, 0, -1):
            if symbols[m - k :] in onsets:
                return k
        return 0
    # always-split-cc: a cluster of two or more is broken unless it is an
    # attested onset opening with s; otherwise at least its first consonant
    # closes the first syllable and the rest splits by attestation.
    if m <= 1:
        return m if symbols in onsets else 0
    if symbols[0] == "s" and symbols in onsets:
        return m
    for k in range(m - 1, 0, -1):
        if symbols[m - k :] in onsets:
            return k
    return 0


def cut_points(
    t: Transcription, onsets: WordOnsetSet, policy: MedialSplitPolicy
) -> list[int]:
    """Where each onset and rhyme run starts in ``t.tokens``, plus the end.

    Runs alternate onset, rhyme per syllable across both words, so run i
    is ``t.tokens[cuts[i]:cuts[i + 1]]``. Raises NoNucleus for a
    vowel-less word and ThreePlusNuclei past two vowels in one word.
    """
    cuts: list[int] = []
    start = 0
    for word in t.words():
        nuclei = [start + i for i, tok in enumerate(word) if tok.is_vowel]
        if not nuclei:
            raise NoNucleus("word has no vowel")
        if len(nuclei) > 2:
            raise ThreePlusNuclei(f"word has {len(nuclei)} nuclei; at most two are supported")
        cuts.append(start)
        if len(nuclei) == 1:
            cuts.append(nuclei[0])
        else:
            n0, n1 = nuclei
            cluster = tuple([tok.symbol for tok in t.tokens[n0 + 1 : n1]])
            cuts += (n0, n1 - _split_cluster(cluster, onsets, policy), n1)
        start += len(word)
    cuts.append(start)
    return cuts


def syllabify(
    t: Transcription,
    onsets: WordOnsetSet,
    policy: MedialSplitPolicy = MedialSplitPolicy.MAX_ONSET,
) -> tuple[tuple[Syllable, ...], ...]:
    """Split a transcription into syllables, one tuple per word.

    Raises NoNucleus for a vowel-less word and ThreePlusNuclei past two
    vowels in one word. The output conserves the input tokens exactly:
    concatenating onset+rhyme across syllables and words restores them.
    """
    pattern = stress_pattern(t)
    cuts = cut_points(t, onsets, policy)
    runs = [t.tokens[a:b] for a, b in zip(cuts, cuts[1:])]
    syllables = tuple(map(Syllable, runs[::2], runs[1::2], pattern))
    if t.boundary is None:
        return (syllables,)
    first = sum(1 for tok in t.tokens[: t.boundary] if tok.is_vowel)
    return (syllables[:first], syllables[first:])
