"""Parse novel transcriptions against a trained model.

A novel word does not announce its syllable boundaries, so every legal
split of the medial cluster is a candidate segmentation. Each
segmentation is scored under every word template its stress pattern
generates; the parse probability is the product of its path
probabilities, and the forest is ordered best first. Exact product
ties break on the rendered path text so the ordering is reproducible.

``parse_all`` makes one pass that stores each parse as a plain tuple of
numbers and returns a ``Forest``. Its first entry, the winner, is built
from the parses tied at the highest product alone; any other read ranks
the whole forest once. A forest entry stores only the template, the
symbol runs, the per-path probabilities and their product; paths, the
unified parse, the seen flags and the path text are built when they are
read, so scoring renders path text only for the winner and its ties.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .errors import UnsupportedStressPattern
from .grammar import PathType, UnifiedParse, WordTemplate, format_terminal, templates_for
from .phonology import Transcription, nucleus_indices, stress_pattern
from .syllabify import candidate_cuts, cut_runs
from .train import TrainedModel

# symbol runs of one segmentation: onset, rhyme, onset, rhyme ...
Runs = tuple[tuple[str, ...], ...]
# per path slot: the cell's seen-terminal probabilities and its unseen answer
Tables = tuple[tuple[dict[tuple[str, ...], float], float], ...]


def enumerate_segmentations(t: Transcription, nuclei: tuple[int, ...]) -> list[Runs]:
    """All candidate onset/rhyme splits of an in-scope word as symbol runs.

    ``nuclei`` is ``nucleus_indices(t)``. A monosyllable and a marked
    compound of two monosyllables have one split each. A disyllable
    with m medial consonants has m+1, ordered by how many of them the
    second onset takes: all of them first, none last.
    """
    symbols = tuple([tok.symbol for tok in t.tokens])
    return [cut_runs(symbols, nuclei, cut) for cut in candidate_cuts(t, nuclei)]


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
        return tuple([PathType(label, run)
                      for label, run in zip(self.template.labels, self.runs, strict=True)])

    @property
    def parse(self) -> UnifiedParse:
        return UnifiedParse(self.template, self.paths)  # checks the paths fill the slots in order

    @property
    def seen(self) -> tuple[bool, ...]:
        return tuple([run in table for (table, _), run in zip(self.tables, self.runs, strict=True)])

    @property
    def path_text(self) -> str:
        return " ; ".join([prefix + format_terminal(run)
                           for prefix, run in zip(self.template.prefixes, self.runs, strict=True)])


_PRODUCT = itemgetter(3)  # of a parse tuple, laid out as ScoredParse's fields
_PATH_TEXT = attrgetter("path_text")


class Forest(Sequence):
    """A word's parses, best first by the key (-product, path_text).

    ``forest[0]`` builds only the parses tied at the highest product.
    Any other index, a slice or iteration ranks the whole forest once
    and keeps that ranking. A forest equals any sequence holding the
    same parses in the same order.
    """

    __slots__ = ("_parses", "_ranked")

    def __init__(self, parses: list[tuple]) -> None:
        self._parses = parses  # (template, runs, probabilities, product, tables)
        self._ranked: list[ScoredParse] | None = None

    def __len__(self) -> int:
        return len(self._parses)

    def __getitem__(self, index: int | slice) -> ScoredParse | list[ScoredParse]:
        if index == 0 and self._ranked is None and self._parses:
            best = max(map(_PRODUCT, self._parses))
            tied = [ScoredParse(*p) for p in self._parses if p[3] == best]
            return tied[0] if len(tied) == 1 else min(tied, key=_PATH_TEXT)
        return self._rank()[index]

    def __iter__(self) -> Iterator[ScoredParse]:
        return iter(self._rank())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def _rank(self) -> list[ScoredParse]:
        if self._ranked is None:
            ranked: list[ScoredParse] = []
            for _, group in itertools.groupby(sorted(self._parses, key=_PRODUCT, reverse=True),
                                              key=_PRODUCT):
                tied = [ScoredParse(*p) for p in group]
                if len(tied) > 1:
                    tied.sort(key=_PATH_TEXT)
                ranked += tied
            self._ranked = ranked
        return self._ranked


def parse_all(t: Transcription, model: TrainedModel) -> Forest:
    """Score every (template, segmentation) pair, best first.

    An explicit compound boundary commits the parse to a two-word
    template; unmarked input is tried under every template its stress
    pattern generates, so an unmarked strong-strong word competes as
    one word and as a closed compound. Raises what ``stress_pattern``
    and ``templates_for`` raise, and UnsupportedStressPattern for a
    boundary without two strong monosyllables. The order is that of
    the key (-product, path_text).
    """
    nuclei = nucleus_indices(t)
    templates = templates_for(stress_pattern(t, nuclei))  # the scope check, before any cut
    if t.boundary is not None:
        templates = tuple(tpl for tpl in templates if len(tpl.words) == 2)
        if not templates:
            raise UnsupportedStressPattern(
                "a compound boundary needs two strong monosyllables"
            )
    segmentations = enumerate_segmentations(t, nuclei)
    parses: list[tuple] = []
    for template in templates:
        tables = tuple([model.lookup[label] for label in template.labels])
        for runs in segmentations:
            probs = tuple([table.get(run, unseen)
                           for (table, unseen), run in zip(tables, runs, strict=True)])
            parses.append((template, runs, probs, math.prod(probs), tables))
    return Forest(parses)
