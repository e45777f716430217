"""Deterministic syllabification of one- and two-syllable words.

Every syllable is one onset (zero or more consonants) plus one rhyme
(the nucleus and everything after it up to the next nucleus or the
word edge). For a disyllable the only open question is how to split
the medial consonant cluster. A policy is named by its string in
``MEDIAL_SPLITS``: the default, ``max-onset``, hands the longest
cluster suffix attested as a word onset in the training corpus to the
second syllable, and ``always-split-cc`` keeps the first of two or more
consonants back unless it is ``s``. Scoring tries every candidate cut
(``parse.enumerate_segmentations``); training tallies each
disyllable's medial part, and ``split_medial`` cuts each distinct one
where the policy picks. ``cut_runs`` slices a word at one cut. The
runs are the transcription's own symbols, so segments are conserved.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .errors import BadConfig
from .phonology import Transcription, stress_pattern

# onsets attested word-initially, as tuples of symbols; () is always a member
WordOnsetSet = frozenset
# a disyllable's medial part as training tallies it: (first rhyme label,
# second onset label, its symbols from the first nucleus up to the second)
MedialPart = tuple[str, str, tuple[str, ...]]


class Syllable(NamedTuple):
    onset: tuple[str, ...]
    rhyme: tuple[str, ...]
    stress: str  # the syllable's letter of its word's stress pattern, s or w


def collect_word_onsets(transcriptions: Iterable[Transcription]) -> WordOnsetSet:
    """Gather every word-initial consonant run of the transcriptions.

    Each phonological word contributes its symbols up to its first
    nucleus; a compound's two onsets are the runs ``cut_runs`` slices at
    its boundary. Vowel-initial words contribute the empty onset.
    """
    onsets: set[tuple[str, ...]] = {()}
    for t in transcriptions:
        if t.boundary is None:
            onsets.add(t.symbols[: t.nuclei[0]])
        else:
            onsets.update(cut_runs(t.symbols, t.nuclei, t.boundary)[::2])
    return frozenset(onsets)


# the medial split policies, as --medial-split and the model file spell them;
# the first is the default
MEDIAL_SPLITS = ("max-onset", "always-split-cc")


def _split_cluster(symbols: tuple[str, ...], onsets: WordOnsetSet, policy: str) -> int:
    """How many trailing cluster consonants open the second syllable: the longest attested onset.

    Raises BadConfig for a policy outside ``MEDIAL_SPLITS``.
    """
    if policy not in MEDIAL_SPLITS:
        raise BadConfig(f"medial_split must be one of {MEDIAL_SPLITS}")
    m = len(symbols)
    longest = m  # always-split-cc keeps the first of two or more consonants back, unless it is s
    if policy == "always-split-cc" and m > 1 and symbols[0] != "s":
        longest = m - 1
    for k in range(longest, 0, -1):
        if symbols[m - k :] in onsets:
            return k
    return 0


def split_medial(
    parts: Mapping[MedialPart, int], onsets: WordOnsetSet, policy: str
) -> dict[tuple[str, tuple[str, ...]], int]:
    """The (cell label, terminal) counts of tallied medial parts, each cut where the policy cuts.

    A part's symbols are its first nucleus and the medial cluster: the
    trailing consonants ``_split_cluster`` picks open the second onset,
    and the rest close the first rhyme. Each distinct cluster is split
    once.
    """
    paths: dict[tuple[str, tuple[str, ...]], int] = {}
    splits: dict[tuple[str, ...], int] = {}  # cluster -> consonants it hands the second onset
    for (rhyme, onset, run), count in parts.items():
        cluster = run[1:]
        k = splits.get(cluster)
        if k is None:
            k = splits[cluster] = _split_cluster(cluster, onsets, policy)
        cut = len(run) - k
        for path in (rhyme, run[:cut]), (onset, run[cut:]):
            paths[path] = paths.get(path, 0) + count
    return paths


def cut_runs(seq: tuple, nuclei: tuple[int, ...], cut: int | None) -> tuple[tuple, ...]:
    """Slice a sequence into onset, rhyme (, onset, rhyme) runs at a cut."""
    if cut is None:
        n = nuclei[0]
        return (seq[:n], seq[n:])
    n0, n1 = nuclei
    return (seq[:n0], seq[n0:cut], seq[cut:n1], seq[n1:])


def syllabify(
    t: Transcription, onsets: WordOnsetSet, policy: str = MEDIAL_SPLITS[0]
) -> tuple[tuple[Syllable, ...], ...]:
    """Split a transcription into syllables, one tuple per word.

    Raises what ``stress_pattern`` raises, the scope check of both
    commands: NoNucleus for a vowel-less word, then OutOfScope past two
    nuclei. The output conserves the input symbols exactly:
    concatenating onset+rhyme across syllables and words restores them.
    """
    pattern = stress_pattern(t)
    cut = t.boundary
    if len(t.nuclei) == 2 and cut is None:
        n0, n1 = t.nuclei
        cut = n1 - _split_cluster(t.symbols[n0 + 1 : n1], onsets, policy)
    runs = cut_runs(t.symbols, t.nuclei, cut)
    syllables = tuple(map(Syllable, runs[::2], runs[1::2], pattern))
    if t.boundary is None:
        return (syllables,)
    return (syllables[:1], syllables[1:])
