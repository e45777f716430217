"""Parse novel transcriptions against a trained model.

A novel word does not announce its syllable boundaries, so every legal
split of the medial cluster is a candidate segmentation. Each
segmentation is scored under every word template its stress pattern
generates; the parse probability is the product of its path
probabilities, and the forest is ordered best first. Exact product
ties break on the rendered path text so the ordering is reproducible;
path text is rendered only to break such ties.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter

from .errors import NoNucleus, ThreePlusNuclei, UnsupportedStressPattern
from .grammar import PathType, UnifiedParse, WordTemplate, format_path, templates_for
from .phonology import Token, Transcription, stress_pattern
from .train import TrainedModel

# one word's candidate split: (onset, rhyme) token runs per syllable
Segmentation = tuple[tuple[tuple[Token, ...], tuple[Token, ...]], ...]


def enumerate_segmentations(t: Transcription) -> list[Segmentation]:
    """All candidate onset/rhyme splits, flattened across words.

    A monosyllabic word has exactly one split. A disyllabic word with m
    medial consonants has m+1, ordered by how many of them the second
    onset takes: all of them first, none last. Words combine by cross
    product, so a marked compound of two monosyllables still yields one
    candidate.
    """
    per_word: list[list[Segmentation]] = []
    for word in t.words():
        nuclei = [i for i, tok in enumerate(word) if tok.is_vowel]
        if not nuclei:
            raise NoNucleus("word has no vowel")
        if len(nuclei) > 2:
            raise ThreePlusNuclei(f"word has {len(nuclei)} nuclei; at most two are supported")
        if len(nuclei) == 1:
            n = nuclei[0]
            per_word.append([((word[:n], word[n:]),)])
            continue
        n0, n1 = nuclei
        cluster = word[n0 + 1 : n1]
        candidates: list[Segmentation] = []
        for keep in range(len(cluster) + 1):  # consonants kept by the first rhyme
            first = (word[:n0], word[n0 : n0 + 1 + keep])
            second = (cluster[keep:], word[n1:])
            candidates.append((first, second))
        per_word.append(candidates)
    return [tuple(itertools.chain.from_iterable(combo)) for combo in itertools.product(*per_word)]


@dataclass(frozen=True)
class ScoredParse:
    """A unified parse with its per-path probabilities and their product."""

    parse: UnifiedParse
    probabilities: tuple[float, ...]
    seen: tuple[bool, ...]
    product: float

    @property
    def paths(self) -> tuple[PathType, ...]:
        return self.parse.paths

    @property
    def path_text(self) -> str:
        return " ; ".join(map(format_path, self.paths))


# symbol runs of one segmentation: onset, rhyme, onset, rhyme ...
Runs = tuple[tuple[str, ...], ...]


def _runs(seg: Segmentation) -> Runs:
    return tuple(tuple([tok.symbol for tok in run]) for syllable in seg for run in syllable)


def _score(template: WordTemplate, runs: Runs, model: TrainedModel) -> ScoredParse:
    paths = tuple([PathType(cat, kind, run) for (cat, kind), run in zip(template.slots, runs)])
    parse = UnifiedParse(template, paths)  # checks the paths fill the slots in order
    probs, seen = zip(*map(model.prob_by_label, template.labels, runs))
    return ScoredParse(parse, probs, seen, math.prod(probs))


_PRODUCT = attrgetter("product")
_PATH_TEXT = attrgetter("path_text")


def parse_all(t: Transcription, model: TrainedModel) -> list[ScoredParse]:
    """Score every (template, segmentation) pair, best first.

    An explicit compound boundary commits the parse to a two-word
    template; unmarked input is tried under every template its stress
    pattern generates, so an unmarked strong-strong word competes as
    one word and as a closed compound. Raises UnsupportedStressPattern
    and OutOfScope as the stress pattern dictates. The order is that of
    the key (-product, path_text).
    """
    pattern = stress_pattern(t)
    templates = templates_for(pattern)
    if t.boundary is not None:
        templates = tuple(tpl for tpl in templates if len(tpl.words) == 2)
        if not templates:
            raise UnsupportedStressPattern(
                "a compound boundary needs two strong monosyllables"
            )
    segmentations = [_runs(seg) for seg in enumerate_segmentations(t)]
    forest = [
        _score(template, runs, model)
        for template in templates
        for runs in segmentations
    ]
    forest.sort(key=_PRODUCT, reverse=True)
    ranked: list[ScoredParse] = []
    for _, group in itertools.groupby(forest, key=_PRODUCT):
        tied = list(group)
        if len(tied) > 1:
            tied.sort(key=_PATH_TEXT)
        ranked += tied
    return ranked


def best_parse(forest: list[ScoredParse]) -> ScoredParse:
    if not forest:
        raise ValueError("empty parse forest")
    return forest[0]
