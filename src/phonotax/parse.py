"""Parse novel transcriptions against a trained model.

A novel word does not announce its syllable boundaries, so every legal
split of the medial cluster is a candidate segmentation. Each
segmentation is scored under every word template its stress pattern
generates; the parse probability is the product of its path
probabilities, and the forest is ordered best first. Exact product
ties keep build order: ``templates_for``'s order (the one-word reading
before the compound), then ``enumerate_segmentations``' (the cut whose
second onset takes the most medial consonants first). The order reads
no spelling, so it is reproducible and renders no text.

``parse_all`` reads each template's per-slot tables from the model,
which builds them once for every stress pattern in scope
(``TrainedModel.templates``), and returns a ``Forest``, which finds
its winner in one scan of plain floats over template x segmentation
while it is built. The scan keeps the first best parse in local
variables and only the winner becomes a ``ScoredParse``, so scoring
pays for the winner alone. Reading any other entry builds and ranks
the whole forest once. A forest entry is a
value: the template, the symbol runs, the per-path probabilities and
their product, and nothing of the model. Its paths, unified parse and
path text are built when they are read; whether a terminal was seen in
its cell is the model's to say (``model.lookup``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from .grammar import PathType, UnifiedParse, WordTemplate, format_terminal, templates_for
from .phonology import Transcription, stress_pattern
from .syllabify import cut_runs
from .train import TrainedModel

# symbol runs of one segmentation: onset, rhyme, onset, rhyme ...
Runs = tuple[tuple[str, ...], ...]
# per path slot: the cell's seen-terminal probabilities and its unseen answer
Tables = tuple[tuple[dict[tuple[str, ...], float], float], ...]


def enumerate_segmentations(t: Transcription) -> list[Runs]:
    """All candidate onset/rhyme splits of an in-scope word as symbol runs.

    A monosyllable and a marked compound of two monosyllables have one
    split each. A disyllable with m medial consonants has m+1, ordered
    by how many of them the second onset takes: all of them first, none
    last. This is the one place the candidate cuts are decided. The
    caller has checked the scope: one or two nuclei, one per compound
    half.
    """
    symbols, nuclei = t.symbols, t.nuclei
    if len(nuclei) == 1 or t.boundary is not None:
        return [cut_runs(symbols, nuclei, t.boundary)]
    # the second syllable starts anywhere from just after the first nucleus to the second
    n0, n1 = nuclei
    head, tail = symbols[:n0], symbols[n1:]
    return [(head, symbols[n0:cut], symbols[cut:n1], tail) for cut in range(n0 + 1, n1 + 1)]


class ScoredParse(NamedTuple):
    """One (template, segmentation) pair: per-path probabilities and their product.

    Only these four values are stored, so a parse hashes, pickles and
    compares like the tuple it is; ``paths``, ``parse`` and
    ``path_text`` are built on every read.
    """

    template: WordTemplate
    runs: Runs
    probabilities: tuple[float, ...]
    product: float

    @property
    def paths(self) -> tuple[PathType, ...]:
        return tuple([PathType(label, run)
                      for label, run in zip(self.template.labels, self.runs, strict=True)])

    @property
    def parse(self) -> UnifiedParse:
        return UnifiedParse(self.template, self.paths)  # checks the paths fill the slots in order

    @property
    def path_text(self) -> str:
        return self.template.text % tuple(map(format_terminal, self.runs))


class Forest(Sequence):
    """A word's parses, best first by product, exact ties in build order.

    The forest holds each template with its per-slot tables and the
    word's segmentations; ``len`` is their product. The winner is found
    when the forest is built, by one scan of plain floats that builds a
    ``ScoredParse`` for the winner alone, so ``forest[0]`` costs nothing
    more. Any other index, a slice or iteration builds and ranks every
    parse once and keeps that ranking.
    """

    __slots__ = ("_templates", "_segmentations", "_best", "_ranked")

    def __init__(self, templates: list[tuple[WordTemplate, Tables]], segmentations: list[Runs]) -> None:
        self._templates = templates
        self._segmentations = segmentations
        self._ranked: list[ScoredParse] | None = None
        self._best = self._scan()

    def _scan(self) -> ScoredParse:
        # Every segmentation shares the first onset and the last rhyme, so
        # those are looked up once per template. Products multiply in slot
        # order, as math.prod does, so they carry the same bits as _rank's.
        # Only a strictly higher product replaces the best parse so far, so
        # of exact ties the first built wins, as in _rank's stable sort.
        segmentations = self._segmentations
        first = segmentations[0]
        top = -1.0
        for template, tables in self._templates:
            onsets, unseen_onset = tables[0]
            rhymes, unseen_rhyme = tables[-1]
            head = onsets.get(first[0], unseen_onset)
            tail = rhymes.get(first[-1], unseen_rhyme)
            if len(tables) == 2:
                ((_, _),) = segmentations  # ValueError unless one segmentation of two runs
                product = head * tail
                if product > top:
                    top, best = product, (template, first, (head, tail))
                continue
            (rhymes1, unseen1), (onsets2, unseen2) = tables[1], tables[2]
            for runs in segmentations:
                _, run1, run2, _ = runs  # ValueError unless four runs fill the four slots
                p1 = rhymes1.get(run1, unseen1)
                p2 = onsets2.get(run2, unseen2)
                product = head * p1 * p2 * tail
                if product > top:
                    top, best = product, (template, runs, (head, p1, p2, tail))
        return ScoredParse(*best, top)

    def __len__(self) -> int:
        return len(self._templates) * len(self._segmentations)

    def __getitem__(self, index: int | slice) -> ScoredParse | list[ScoredParse]:
        if index == 0:
            return self._best
        return self._rank()[index]

    def __iter__(self) -> Iterator[ScoredParse]:
        return iter(self._rank())

    def _rank(self) -> list[ScoredParse]:
        if self._ranked is None:
            parses = []
            for template, tables in self._templates:
                for runs in self._segmentations:
                    probs = tuple([table.get(run, unseen)
                                   for (table, unseen), run in zip(tables, runs, strict=True)])
                    parses.append(ScoredParse(template, runs, probs, math.prod(probs)))
            # the sort is stable, and stays so reversed: exact ties keep build order
            self._ranked = sorted(parses, key=lambda parse: parse.product, reverse=True)
        return self._ranked


def parse_all(t: Transcription, model: TrainedModel) -> Forest:
    """Score every (template, segmentation) pair, best first.

    The word is tried under every template ``templates_for`` gives for
    its stress pattern and boundary, so an unmarked strong-strong word
    competes as one word and as a closed compound. Raises what
    ``stress_pattern`` and ``templates_for`` raise. The order is product
    descending, exact ties in the order the pairs are built: template by
    template, each over the segmentations in their order.
    """
    key = stress_pattern(t), t.boundary is not None  # stress_pattern is the scope check, before any cut
    templates = model.templates.get(key)
    if templates is None:  # the model holds every key templates_for accepts: let it raise
        templates_for(*key)
    return Forest(templates, enumerate_segmentations(t))
