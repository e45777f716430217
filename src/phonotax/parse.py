"""Parse novel transcriptions against a trained model.

A novel word does not announce its syllable boundaries, so every legal
split of the medial cluster is a candidate segmentation. Each
segmentation is scored under every word template its stress pattern
generates; the parse probability is the product of its path
probabilities, and the forest is ordered best first. Exact product
ties break on the rendered path text so the ordering is reproducible.

A forest entry stores only numbers: the template, the symbol runs, the
per-path probabilities and their product. Paths, the unified parse,
the seen flags and the path text are built when they are read, so
scoring builds them only for the winner and to break exact ties.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
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


# symbol runs of one segmentation: onset, rhyme, onset, rhyme ...
Runs = tuple[tuple[str, ...], ...]
# per path slot: the cell's seen-terminal probabilities and its unseen answer
Tables = tuple[tuple[dict[tuple[str, ...], float], float], ...]


@dataclass(frozen=True)
class ScoredParse:
    """One (template, segmentation) pair: per-path probabilities and their product.

    Only the numbers are stored; ``paths``, ``parse``, ``seen`` and
    ``path_text`` are built on every read. ``tables`` is the template's
    per-slot lookup, shared by every parse under that template.
    """

    template: WordTemplate
    runs: Runs
    probabilities: tuple[float, ...]
    product: float
    tables: Tables = field(repr=False, compare=False)

    @property
    def paths(self) -> tuple[PathType, ...]:
        return tuple([PathType(cat, kind, run)
                      for (cat, kind), run in zip(self.template.slots, self.runs, strict=True)])

    @property
    def parse(self) -> UnifiedParse:
        return UnifiedParse(self.template, self.paths)  # checks the paths fill the slots in order

    @property
    def seen(self) -> tuple[bool, ...]:
        return tuple([run in table for (table, _), run in zip(self.tables, self.runs, strict=True)])

    @property
    def path_text(self) -> str:
        return " ; ".join(map(format_path, self.paths))


def _runs(seg: Segmentation) -> Runs:
    return tuple(tuple([tok.symbol for tok in run]) for syllable in seg for run in syllable)


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
    forest: list[ScoredParse] = []
    for template in templates:
        tables = tuple([model.lookup[label] for label in template.labels])
        for runs in segmentations:
            probs = tuple([table.get(run, unseen)
                           for (table, unseen), run in zip(tables, runs, strict=True)])
            forest.append(ScoredParse(template, runs, probs, math.prod(probs), tables))
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
