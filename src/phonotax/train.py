"""Train path probabilities from a pronunciation lexicon.

The pipeline reads the lexicon once, block by block: it ingests the
entries, collects their word onsets and counts each entry's (cell label,
terminal) paths under its stress template. Every one of those rules
reads an entry only through its shape, the classes of its fields, so
the first line of each shape goes through them and every later line of
that shape is cut where they cut it. Only a disyllable's medial split
depends on the onsets of the whole lexicon, so its medial part is
tallied instead, and ``split_medial`` cuts each distinct one once at
the end. The counts are tabulated per cell label; a model is those
counts and its config, and building it smooths each cell into a
probability table. Every cell is keyed by its constituent label
(``Osi`` ... ``Rwif``), as the paper names it and the model file writes
it. The lines may be cut into contiguous chunks, a process each.
Probability mass is reserved for unseen terminals per cell: a cell
with N tokens of which N1 are singletons keeps p0 = N1/N (clamped to
[1/(2N), 0.5]) aside, and every unseen terminal in that cell is quoted
p0 whole, not a share of it; a cell with no counts answers the config's
epsilon for every terminal.

Lexicon documents are line-oriented: ``orthography<TAB>transcription``,
with ``#`` comments and blank lines ignored. Bad entries are skipped
and reported, never repaired.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable
from itertools import chain, islice
from typing import NamedTuple

from .chunks import ROWS_PER_SLICE, paused, run_chunks
from .errors import (
    BadConfig,
    EmptyCorpus,
    ModelFormatError,
    PhonotaxError,
    UnsupportedStressPattern,
    VersionMismatch,
)
from .grammar import LABELS, NULL_TERMINAL, TEMPLATE_KEYS, format_terminal, templates_for
from .phonology import (BOUNDARY_MARK, PhonemeInventory, Transcription, is_reserved, split_lines, stress_pattern,
                        tokenize)
from .syllabify import (MEDIAL_SPLITS, MedialPart, WordOnsetSet, collect_word_onsets, cut_runs,
                        split_medial)

PathPair = tuple[str, tuple[str, ...]]  # (cell label, terminal), e.g. ('Osi', ('s', 't'))
# per cell label: the seen terminals' probabilities and the unseen answer
Lookup = dict[str, tuple[dict[tuple[str, ...], float], float]]

GT_MODES = ("simple", "full")
# No cell answers below EPSILON_MIN: an all-unseen cell answers epsilon,
# and load_model rejects counts that smooth below it. The four paths of a
# parse then multiply to a normal float (1e-300), so ln p(word) is finite.
EPSILON_MIN, EPSILON_MAX = 1e-75, 1e-3
NO_ENTRIES = "no usable lexicon entries"


class _ConfigFields(NamedTuple):
    inventory_digest: str
    medial_split: str = MEDIAL_SPLITS[0]
    gt_mode: str = "simple"
    epsilon: float = 1e-9


class ModelConfig(_ConfigFields):
    """How a model was trained; checked when it is built.

    The field defaults are training's: train_model and the CLI read
    them as ``ModelConfig._field_defaults``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ModelConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not self.inventory_digest.isprintable():  # a tab or a line break would cut its model-file line
            raise BadConfig(f"inventory_digest {self.inventory_digest!r} is not printable")
        if self.medial_split not in MEDIAL_SPLITS:
            raise BadConfig(f"medial_split must be one of {MEDIAL_SPLITS}")
        if self.gt_mode not in GT_MODES:
            raise BadConfig(f"gt_mode must be one of {GT_MODES}")
        if not EPSILON_MIN <= self.epsilon <= EPSILON_MAX:
            raise BadConfig(f"epsilon must lie in [{EPSILON_MIN:g}, {EPSILON_MAX:g}]")
        return self

    @classmethod
    def _make(cls, iterable) -> ModelConfig:  # so that _replace checks the config too
        return cls(*iterable)


class LexiconEntry(NamedTuple):
    orthography: str
    transcription: Transcription
    lineno: int
    pattern: str  # stress_pattern(transcription), read once at ingest


class IngestResult(NamedTuple):
    entries: list[LexiconEntry]
    skipped: list[tuple[int, str, str]]  # (lineno, reason, orthography or raw line)
    downgraded: int  # entries whose secondary stress was folded into weak


def ingest_lexicon(document: str | Iterable[str], inv: PhonemeInventory, first: int = 1) -> IngestResult:
    """Read lexicon lines, keeping entries of one or two syllables.

    ``document`` is a lexicon's text, or a run of its lines as
    ``phonology.split_lines`` cuts them, the first of which is line ``first``.
    An entry survives only if it tokenizes and ``stress_pattern`` reads
    it: every phonological word has a nucleus, the total nucleus count
    is one or two, and its stress digits are complete. Everything else
    lands in ``skipped`` with the offending line number and a reason.
    Raises EmptyCorpus when nothing in a lexicon's text survives; a run
    of its lines, as training cuts them, may keep nothing.
    """
    entries: list[LexiconEntry] = []
    skipped: list[tuple[int, str, str]] = []
    downgraded = 0
    lines = split_lines(document) if isinstance(document, str) else document
    for lineno, line in enumerate(lines, start=first):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "\t" not in line:
            skipped.append((lineno, "MalformedLine", stripped))
            continue
        orthography, raw = line.split("\t", 1)
        orthography = orthography.strip()
        try:
            t = tokenize(raw, inv)
            if t.boundary is None and len(t.stresses) == 2 and set(t.stresses) == {1, 2}:
                # a 1-2 or 2-1 nucleus pair in one word is one foot: the digit-2
                # vowel is subordinate and trains as weak (a lone 2 stays strong)
                t = t._replace(stresses=(0, 1) if t.stresses[0] == 2 else (1, 0))
                downgraded += 1
            pattern = stress_pattern(t)
        except PhonotaxError as err:
            skipped.append((lineno, type(err).__name__, orthography))
            continue
        entries.append(LexiconEntry(orthography, t, lineno, pattern))
    if not entries and isinstance(document, str):
        raise EmptyCorpus(NO_ENTRIES)
    return IngestResult(entries, skipped, downgraded)


def extract_paths(entry: LexiconEntry) -> tuple[list[PathPair], MedialPart | None]:
    """The paths of an entry's unique analysis that no onset set can change, and its medial part.

    Each path is a (cell label, terminal) pair of the template's label
    and the run of symbols its slot takes. A monosyllable or a compound
    gives all its paths and no medial part. A disyllable gives its first
    onset and last rhyme, and for ``split_medial`` its medial part: the
    labels of its first rhyme and second onset and its symbols from the
    first nucleus up to the second. Training trusts the lexicon and takes
    the first template ``templates_for`` gives: the two-word one for an
    entry with a compound boundary, the single-word one for anything
    else. Raises what ``templates_for`` raises (weak-weak words; a
    boundary without two strong monosyllables).
    """
    t = entry.transcription
    labels = templates_for(entry.pattern, t.boundary is not None)[0].labels
    if len(t.nuclei) == 1 or t.boundary is not None:
        return list(zip(labels, cut_runs(t.symbols, t.nuclei, t.boundary))), None
    n0, n1 = t.nuclei
    fixed = [(labels[0], t.symbols[:n0]), (labels[3], t.symbols[n1:])]
    return fixed, (labels[1], labels[2], t.symbols[n0:n1])


def tabulate(paths: Iterable[PathPair]) -> dict[str, dict[tuple[str, ...], int]]:
    """Count (label, terminal) paths per cell; ``paths`` may be a generator, or a Counter of them."""
    tally = Counter(paths)
    if not tally:
        raise EmptyCorpus("no paths to tabulate")
    counts: dict[str, dict[tuple[str, ...], int]] = {}
    for (label, terminal), c in tally.items():
        counts.setdefault(label, {})[terminal] = c
    return counts


class _ModelFields(NamedTuple):
    counts: dict[str, dict[tuple[str, ...], int]]  # per cell label, each terminal's count
    config: ModelConfig


class TrainedModel(_ModelFields):
    """A model is its counts and its config; the rest is derived from them once, when it is built.

    ``counts`` holds, per cell label of ``grammar.LABELS``, each seen
    terminal's count. A label outside ``LABELS``, a cell with no counts,
    a count that is not an int of at least 1, or a terminal symbol that
    is empty, holds whitespace or is reserved (see ``is_reserved``)
    raises ValueError, which names the label, or the cell and terminal;
    so ``total`` is the sum of the twelve cells' N, and every cell saves
    as it loads.

    Two attributes sit beside the fields, out of equality and the repr
    (so the class declares no slots), and nothing writes to either
    after the model is built. ``lookup`` is what ``good_turing`` derives:
    per cell label, the seen terminals' probabilities and the answer an
    unseen terminal gets. ``templates`` holds, per (stress pattern,
    compound) key that ``templates_for`` accepts, each template it gives
    with its per-slot ``lookup`` entries; ``parse_all`` only reads it.
    """

    def __new__(cls, counts: dict[str, dict[tuple[str, ...], int]], config: ModelConfig) -> TrainedModel:
        carried: set[str] = set()  # each symbol is checked once: thousands of terminals share a few dozen
        for label, cell in counts.items():
            if label not in LABELS:
                raise ValueError(f"unknown cell label {label!r}")
            if not cell:
                raise ValueError(f"cell {label}: holds no counts")
            for terminal, count in cell.items():
                if type(count) is not int:  # a bool or a float would save as text load_model rejects
                    raise ValueError(f"cell {label}: count {count!r} for terminal "
                                     f"{format_terminal(terminal)!r} is not an int")
                if count < 1:
                    raise ValueError(f"cell {label}: count {count} below 1 for terminal "
                                     f"{format_terminal(terminal)!r}")
                if not carried.issuperset(terminal):
                    if not all(symbol.split() == [symbol] and not is_reserved(symbol) for symbol in terminal):
                        raise ValueError(f"cell {label}: a model file cannot carry terminal {terminal!r}")
                    carried.update(terminal)
        self = super().__new__(cls, counts, config)
        # good_turing is read from the module when called, so a wrapper swapped in for it sees the call
        self.lookup = lookup = good_turing(self)
        self.templates = {key: [(tpl, tuple([lookup[label] for label in tpl.labels]))
                                for tpl in templates_for(*key)]
                          for key in TEMPLATE_KEYS}
        return self

    @classmethod
    def _make(cls, iterable) -> TrainedModel:  # so that _replace derives lookup and templates too
        return cls(*iterable)

    @property
    def total(self) -> int:
        """The corpus's path count: every cell's N, summed."""
        return sum(sum(cell.values()) for cell in self.counts.values())

    def n(self, label: str) -> int:
        """N: the cell's token count."""
        return sum(self.counts.get(label, {}).values())

    def n1(self, label: str) -> int:
        """N1: how many of the cell's terminals were seen once."""
        return sum(1 for c in self.counts.get(label, {}).values() if c == 1)


def good_turing(model: TrainedModel) -> Lookup:
    """Smooth a model's per-cell counts, reserving singleton mass for the unseen.

    ``TrainedModel`` calls it on the model it is building. Returns per
    cell label the seen terminals' probabilities and the answer an
    unseen terminal gets: the cell's reserved mass p0 whole, or the
    config's epsilon in a cell with no counts. In ``simple`` mode
    every seen terminal keeps its relative frequency scaled by (1 - p0).
    In ``full`` mode counts are first discounted r -> (r+1) * N_{r+1} /
    N_r where the next frequency class is populated (left alone
    otherwise), then renormalized to 1 - p0.
    """
    lookup: Lookup = {}
    for label in LABELS:
        counts = model.counts.get(label, {})
        n = model.n(label)
        if n == 0:
            lookup[label] = ({}, model.config.epsilon)
            continue
        reserved = min(0.5, max(model.n1(label) / n, 1.0 / (2 * n)))
        if model.config.gt_mode == "simple":
            probabilities = {t: (1.0 - reserved) * c / n for t, c in counts.items()}
        else:
            nr = Counter(counts.values())
            masses = {
                t: ((c + 1) * nr[c + 1] / nr[c] if nr.get(c + 1) else float(c)) / n
                for t, c in counts.items()
            }
            scale = (1.0 - reserved) / math.fsum(masses.values())
            probabilities = {t: m * scale for t, m in masses.items()}
        lookup[label] = (probabilities, reserved)
    return lookup


def top_k(model: TrainedModel, label: str, k: int) -> list[tuple[str, int]]:
    """Most frequent terminals of a cell: count descending, text ascending."""
    counts = model.counts.get(label, {})
    ranked = sorted(counts.items(), key=lambda item: (-item[1], format_terminal(item[0])))
    return [(format_terminal(t), c) for t, c in ranked[:k]]


MODEL_HEADER = "phonotax-model v1"


class FloatReprs(dict):
    """Each distinct float's repr, rendered once."""

    def __missing__(self, value: float) -> str:
        self[value] = text = repr(value)
        return text


def save_model(model: TrainedModel) -> str:
    """Serialize a model to its canonical tab-separated document.

    The layout is deterministic (cells in canonical order, terminals by
    text, floats via repr). It is the one layout load_model accepts, so
    save-load-save is byte-stable.
    """
    cfg = model.config
    lines = [
        MODEL_HEADER,
        f"config\tinventory_sha256\t{cfg.inventory_digest}",
        f"config\tmedial_split\t{cfg.medial_split}",
        f"config\tgt\t{cfg.gt_mode}",
        f"config\tepsilon\t{cfg.epsilon!r}",
        f"total\t{model.total}",
    ]
    p0_lines, records = [], []
    reprs = FloatReprs()  # a cell's probabilities take few distinct values
    for label in LABELS:
        counts, (seen, unseen) = model.counts.get(label, {}), model.lookup[label]
        for text, terminal in sorted(zip(map(format_terminal, counts), counts)):
            records.append(f"{label}\t{text}\t{counts[terminal]}\t{reprs[seen[terminal]]}")
        # an empty cell reserves its whole mass, 1.0, and is flagged
        reserved, flag = (unseen, "") if seen else (1.0, "\tall_unseen")
        p0_lines.append(f"p0\t{label}\t{reprs[reserved]}\tN\t{model.n(label)}\tN1\t{model.n1(label)}{flag}")
    lines.append(f"records\t{len(records)}")
    return "\n".join(lines + p0_lines + records) + "\n"


def load_model(document: str) -> TrainedModel:
    """The model a document's counts imply, if it reads as save_model writes that model.

    Past the header, only the config lines and each record's cell label,
    terminal and count are read. Each terminal must be written as
    format_terminal writes it and hold no symbol an inventory may not
    hold (see is_reserved), and each count must be at least 1. The model
    is the ``TrainedModel`` of those counts and that config, and none of
    its cells may answer below EPSILON_MIN. The document must then match
    save_model of that model line for line, both cut by ``split_lines``
    (so CRLF or CR line ends and a missing final newline pass), and one
    comparison checks the total, the record count, every p0 line and
    every float; the first line that differs is named in the error.
    """
    lines = split_lines(document)
    if not lines:
        raise ModelFormatError("empty model document")
    if lines[0] != MODEL_HEADER:
        if lines[0].startswith("phonotax-model"):
            raise VersionMismatch(f"expected {MODEL_HEADER!r}, got {lines[0]!r}")
        raise ModelFormatError(f"not a model document: first line {lines[0]!r}")

    config_fields: dict[str, str] = {}
    counts: dict[str, dict[tuple[str, ...], int]] = {label: {} for label in LABELS}
    terminals: dict[str, tuple[str, ...]] = {}  # text -> checked terminal, shared among cells
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        kind = parts[0]
        if kind == "config" and len(parts) == 3:
            config_fields[parts[1]] = parts[2]
        elif kind == "p0":  # all derived from the counts but its label
            if len(parts) > 1 and parts[1] not in counts:
                raise ModelFormatError(f"line {lineno}: unknown cell label {parts[1]!r}")
        elif len(parts) == 4:  # a record; its probability is derived too
            bucket = counts.get(kind)
            if bucket is None:
                raise ModelFormatError(f"line {lineno}: unknown cell label {kind!r}")
            text = parts[1]
            terminal = terminals.get(text)
            if terminal is None:
                terminal = () if text == NULL_TERMINAL else tuple(text.split())
                if format_terminal(terminal) != text:
                    raise ModelFormatError(f"line {lineno}: terminal {text!r} is not written "
                                           f"{format_terminal(terminal)!r}")
                if any(map(is_reserved, terminal)):
                    raise ModelFormatError(f"line {lineno}: terminal {text!r} holds a symbol "
                                           "that collides with the notation")
                terminals[text] = terminal
            try:
                count = int(parts[2])
            except ValueError:
                raise ModelFormatError(f"line {lineno}: bad number in {line!r}") from None
            if count < 1:
                raise ModelFormatError(f"line {lineno}: count below 1 in {line!r}")
            bucket[terminal] = count
    # every other line and field is checked by the comparison below

    try:
        config = ModelConfig(
            config_fields["inventory_sha256"], config_fields["medial_split"], config_fields["gt"],
            float(config_fields["epsilon"]),
        )
    except KeyError as err:
        raise ModelFormatError(f"missing config {err.args[0]}") from None
    except (ValueError, BadConfig) as err:
        raise ModelFormatError(f"bad config: {err}") from None
    counts = {label: bucket for label, bucket in counts.items() if bucket}
    try:
        model = TrainedModel(counts, config)
    except OverflowError:
        raise ModelFormatError("counts too large to smooth: a cell's N does not fit a float") from None
    for label, (seen, unseen) in model.lookup.items():
        if min([unseen, *seen.values()]) < EPSILON_MIN:
            raise ModelFormatError(f"cell {label}: counts so large a probability is below {EPSILON_MIN:g}")

    expected = split_lines(save_model(model))
    if lines != expected:
        # the first line that differs, or else the end of the shorter document
        i = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
                 min(len(lines), len(expected)))
        found, implied = (repr(doc[i]) if i < len(doc) else "no line" for doc in (lines, expected))
        raise ModelFormatError(f"line {i + 1}: the file has {found} where its counts imply {implied}")
    return model


class TrainResult(NamedTuple):
    model: TrainedModel
    onsets: WordOnsetSet
    retained: int  # lexicon entries ingest kept
    skipped: list[tuple[int, str, str]]  # as in IngestResult, over the whole lexicon
    downgraded: int
    unsupported: list[tuple[int, str]]  # (lineno, orthography) of kept entries left untrained

    @property
    def trained_entries(self) -> int:
        return self.retained - len(self.unsupported)

    @property
    def path_count(self) -> int:
        return self.model.total


def _span(run: tuple[int, ...]) -> slice:
    """The slice of a line's fields that a run of their positions covers."""
    return slice(run[0], run[-1] + 1) if run else slice(0)


def _plan(entry: LexiconEntry, downgraded: int) -> tuple:
    """What training takes from each line of an entry's shape, as slices of that line's fields.

    Past ``tokenize``, every rule reads an entry only through its shape,
    the classes of its fields. So ``collect_word_onsets`` and
    ``extract_paths`` run here on the entry with each symbol replaced by
    the position of its field (one further on past a ``+``), and each
    run they give is kept as the slice of fields it covers. Returns the
    fold flag, the positions of the fields that carry a stress digit,
    the word onsets' slices, the fixed paths as (label, slice) or None
    where no template takes the entry, and the medial part as (rhyme
    label, onset label, slice) or None.
    """
    t = entry.transcription
    b = len(t.symbols) if t.boundary is None else t.boundary
    positions = tuple([i + (i >= b) for i in range(len(t.symbols))])
    placed = entry._replace(transcription=t._replace(symbols=positions))
    # the fold turns one digit into another, so a nucleus has a digit where its field has one
    digited = tuple([positions[n] for n, d in zip(t.nuclei, t.stresses) if d is not None])
    heads = tuple([_span(run) for run in collect_word_onsets([placed.transcription]) if run])
    try:
        fixed, part = extract_paths(placed)
    except UnsupportedStressPattern:
        return downgraded, digited, heads, None, None
    return (downgraded, digited, heads, tuple([(label, _span(run)) for label, run in fixed]),
            part and (part[0], part[1], _span(part[2])))


def _train_chunk(lines: Iterable[str], first: int, inv: PhonemeInventory):
    """A run of lexicon lines, read once as one chunk of ``run_chunks``.

    A line's shape key is its fields' classes (consonant, vowel with its
    stress digit or none, ``+``), read from ``inv.fields``. The first
    line of each shape goes through ``ingest_lexicon`` and ``_plan``,
    which is cached; every later line of that shape maps its digited
    vowels to their symbols (every other field is its own symbol) and is
    cut by the plan. A line that fails,
    and any line without a tab or with a ``#``, goes through
    ``ingest_lexicon`` every time, so each skip is reported as it reads.
    The paths, medial parts and word onsets are counted once per block
    of ``ROWS_PER_SLICE`` lines. Returns the chunk's (label, terminal)
    counts, medial parts and onsets, and its share of the report:
    skipped lines, downgraded and retained counts, unsupported entries.
    """
    shape = {BOUNDARY_MARK: BOUNDARY_MARK}  # field text -> its class, read as tokenize reads it
    shape.update({text: str(stress) if stress is not None else "V" if vowel else "C"
                  for text, (_, stress, vowel) in inv.fields.items()})
    symbol = {text: read[0] for text, read in inv.fields.items()}
    plans: dict[tuple, tuple] = {}  # shape key -> _plan of its first line
    tally, medial = Counter(), Counter()  # (label, terminal) paths; medial parts
    onsets, skipped, unsupported, downgraded, retained = {()}, [], [], 0, 0
    lines = iter(lines)
    while block := list(islice(lines, ROWS_PER_SLICE)):
        fixed, parts, heads = [], [], []  # counted once per block: one update is cheaper than one per line
        for lineno, line in enumerate(block, first + 1):
            orthography, _, raw = line.partition("\t")
            fields = raw.split()
            key = tuple(map(shape.get, fields))
            plan = plans.get(key)
            if plan is None or "#" in line:  # ingest tells a comment; a line without a tab keys () and has no plan
                ingest = ingest_lexicon((line,), inv, lineno)
                skipped += ingest.skipped
                if not ingest.entries:
                    continue
                plan = plans[key] = _plan(ingest.entries[0], ingest.downgraded)
            folded, digited, starts, paths, part = plan
            for i in digited:
                fields[i] = symbol[fields[i]]
            symbols = tuple(fields)
            downgraded += folded
            retained += 1
            for s in starts:
                heads.append(symbols[s])
            if paths is None:
                unsupported.append((lineno, orthography.strip()))
                continue
            for label, s in paths:
                fixed.append((label, symbols[s]))
            if part:
                parts.append((part[0], part[1], symbols[part[2]]))
        first += len(block)
        tally.update(fixed)
        medial.update(parts)
        onsets.update(heads)
    return tally, medial, onsets, skipped, downgraded, retained, unsupported


def train_model(
    document: str,
    inv: PhonemeInventory,
    policy: str = ModelConfig._field_defaults["medial_split"],
    gt_mode: str = ModelConfig._field_defaults["gt_mode"],
    epsilon: float = ModelConfig._field_defaults["epsilon"],
) -> TrainResult:
    """Run the whole training pipeline over a lexicon document.

    ``run_chunks`` cuts the document's lines into contiguous chunks, a
    process each, and ``_train_chunk`` reads each chunk once. This
    process then unions the chunks' word onsets, splits each distinct
    medial part once under them, adds those paths to the summed counts,
    and tabulates and smooths once. A lexicon under
    ``2 * chunks.ROWS_PER_PROCESS`` lines is one chunk, read in this
    process. The cyclic garbage collector stays paused from the first
    chunk to the smoothed model.
    """
    config = ModelConfig(inv.digest, policy, gt_mode, epsilon)
    with paused():
        results = run_chunks(split_lines(document), lambda chunk, first: _train_chunk(chunk, first, inv))
        tallies, medials, onsets, skipped, downgraded, retained, unsupported = zip(*results)
        if not sum(retained):
            raise EmptyCorpus(NO_ENTRIES)
        onsets = frozenset().union(*onsets)
        paths, medial = Counter(), Counter()
        for tally, parts in zip(tallies, medials):  # update, not sum(): + builds a new Counter each time
            paths.update(tally)
            medial.update(parts)
        paths.update(split_medial(medial, onsets, policy))
        model = TrainedModel(tabulate(paths), config)
    return TrainResult(model, onsets, sum(retained), [*chain.from_iterable(skipped)], sum(downgraded),
                       [*chain.from_iterable(unsupported)])
