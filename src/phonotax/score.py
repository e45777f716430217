"""Acceptability scores for novel words.

Four numbers summarize a word's best parse: the parse probability
(product over paths), its natural log, and the probabilities of the
worst and best single path inside that parse. The worst part often
carries the judgment: one terrible onset sinks a word whose rhymes are
all fine. A report also carries the best parse itself, a value that
holds nothing of the model; its path text is rendered only where it is
read.

Stimulus lines are read lazily (``stimulus_rows``), so a command can
hand each process its share of the lines and read them as it scores.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

from .errors import PhonotaxError
from .parse import ScoredParse, parse_all
from .phonology import PhonemeInventory, Transcription, split_lines, tokenize
from .train import TrainedModel


class ScoreReport(NamedTuple):
    """A word's four scores and the parse they come from, ``winner``."""

    p_word: float
    ln_p_word: float
    p_worst: float
    p_best: float
    winner: ScoredParse


def score_word(model: TrainedModel, t: Transcription) -> ScoreReport:
    """Score a transcription by its best parse."""
    best = parse_all(t, model)[0]
    probs = best.probabilities
    return ScoreReport(best.product, math.log(best.product), min(probs), max(probs), best)


class BatchRow(NamedTuple):
    word_id: str
    report: ScoreReport | None
    error: str | None


def stimulus_rows(lines: Iterable[str]) -> Iterator[tuple[str, str]]:
    """The rows of stimulus lines, ``word_id<TAB>transcription-text``, read as they are asked for.

    ``#`` comments and blank lines are ignored. A line without a tab
    becomes a row with an empty transcription, which then fails per-row
    downstream rather than aborting the batch. The id is everything
    before the first tab, stripped, so a line opening with a tab has an
    empty id. Uniqueness is the caller's concern.
    """
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        word_id, _, raw = line.partition("\t")
        yield word_id.strip(), raw.rstrip()


def parse_stimuli(document: str) -> list[tuple[str, str]]:
    """Every row of a stimuli document, as ``stimulus_rows`` reads its lines.

    An empty document is an empty batch, not an error.
    """
    return list(stimulus_rows(split_lines(document)))


def score_batch(
    model: TrainedModel, rows: Iterable[tuple[str, str]], inv: PhonemeInventory
) -> list[BatchRow]:
    """Score many stimuli; a bad row reports its error, never aborts the batch."""
    out: list[BatchRow] = []
    for word_id, raw in rows:
        try:
            report = score_word(model, tokenize(raw, inv))
        except PhonotaxError as err:
            out.append(BatchRow(word_id, None, f"{type(err).__name__}: {err}"))
            continue
        out.append(BatchRow(word_id, report, None))
    return out
