"""Train path probabilities from a pronunciation lexicon.

The pipeline is: ingest lexicon lines, collect the word-onset set,
cut each entry into onset and rhyme runs against its stress template,
emit one (cell label, terminal) pair per run, tabulate counts per
category cell, and smooth each cell into a probability table.
Probability mass is reserved for unseen terminals per cell: a cell
with N tokens of which N1 are singletons keeps p0 = N1/N (clamped to
[1/(2N), 0.5]) aside, and every unseen terminal in that cell is quoted
p0 whole, not a share of it.

Lexicon documents are line-oriented: ``orthography<TAB>transcription``,
with ``#`` comments and blank lines ignored. Bad entries are skipped
and reported, never repaired.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .errors import (
    BadConfig,
    EmptyCorpus,
    ModelFormatError,
    NoNucleus,
    OutOfScope,
    PhonotaxError,
    UnsupportedStressPattern,
    VersionMismatch,
)
from .grammar import (
    ALL_CELLS,
    CELL_OF_LABEL,
    NULL_TERMINAL,
    ConstituentKind,
    SyllableCategory,
    cell_label,
    format_terminal,
    templates_for,
)
from .phonology import (
    PhonemeInventory,
    Stress,
    Token,
    Transcription,
    is_reserved,
    nuclei_stresses,
    tokenize,
)
from .syllabify import MedialSplitPolicy, WordOnsetSet, collect_word_onsets, cut_points

Cell = tuple[SyllableCategory, ConstituentKind]
PathPair = tuple[str, tuple[str, ...]]  # (cell label, terminal), e.g. ('Osi', ('s', 't'))

GT_MODES = ("simple", "full")
# an all-unseen cell answers epsilon; four of them in one parse still
# multiply to a normal float (1e-300), so ln p(word) is always finite
EPSILON_MIN, EPSILON_MAX = 1e-75, 1e-3


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    orthography: str
    transcription: Transcription
    lineno: int
    pattern: tuple[Stress, ...]  # stress_pattern(transcription), read once at ingest


@dataclass
class IngestResult:
    entries: list[LexiconEntry]
    skipped: list[tuple[int, str, str]]  # (lineno, reason, orthography or raw line)
    downgraded: int  # entries whose secondary stress was folded into weak

    def skip_counts(self) -> dict[str, int]:
        return dict(Counter(reason for _, reason, _ in self.skipped))


def ingest_lexicon(document: str, inv: PhonemeInventory) -> IngestResult:
    """Read lexicon lines, keeping entries of one or two syllables.

    An entry survives only if it tokenizes, every phonological word has
    a nucleus, the total nucleus count is one or two, and its stress
    digits are complete. Everything else lands in ``skipped`` with the
    offending line number and a reason. Raises EmptyCorpus when nothing
    survives.
    """
    entries: list[LexiconEntry] = []
    skipped: list[tuple[int, str, str]] = []
    downgraded = 0
    for lineno, line in enumerate(document.splitlines(), start=1):
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
            tokens, boundary = t.tokens, t.boundary
            vowels = [i for i, tok in enumerate(tokens) if tok.is_vowel]
            if not vowels or boundary is not None and not vowels[0] < boundary <= vowels[-1]:
                raise NoNucleus("phonological word has no vowel")
            if len(vowels) > 2:
                raise OutOfScope("more than two nuclei")
            nuclei = [tokens[i] for i in vowels]
            if boundary is None and len(nuclei) == 2 and {tok.stress for tok in nuclei} == {1, 2}:
                # a 1-2 or 2-1 nucleus pair in one word is one foot: the digit-2
                # vowel is subordinate and trains as weak (a lone 2 stays strong)
                j = 0 if nuclei[0].stress == 2 else 1
                nuclei[j] = Token(nuclei[j].symbol, 0, True)
                t = Transcription(tokens[: vowels[j]] + (nuclei[j],) + tokens[vowels[j] + 1 :])
                downgraded += 1
            if boundary is None:
                pattern = tuple(nuclei_stresses(nuclei))
            else:  # one nucleus per word, each read on its own
                pattern = (*nuclei_stresses(nuclei[:1]), *nuclei_stresses(nuclei[1:]))
        except PhonotaxError as err:
            skipped.append((lineno, type(err).__name__, orthography))
            continue
        entries.append(LexiconEntry(orthography, t, lineno, pattern))
    if not entries:
        raise EmptyCorpus("no usable lexicon entries")
    return IngestResult(entries, skipped, downgraded)


def extract_paths(
    entry: LexiconEntry,
    onsets: WordOnsetSet,
    policy: MedialSplitPolicy = MedialSplitPolicy.MAX_ONSET,
) -> list[PathPair]:
    """The onset and rhyme paths of an entry's unique analysis.

    Each path is a (cell label, terminal) pair: the labels are the
    template's, in slot order, and each terminal is the run of symbols
    ``cut_points`` slices for that slot. Training trusts the lexicon:
    an entry with a compound boundary uses the two-word template,
    anything else the single-word template for its stress pattern.
    Raises UnsupportedStressPattern when no such template exists
    (weak-weak words; a boundary without two strong monosyllables).
    """
    t = entry.transcription
    want_words = 2 if t.boundary is not None else 1
    candidates = templates_for(entry.pattern)
    template = next((c for c in candidates if len(c.words) == want_words), None)
    if template is None:
        raise UnsupportedStressPattern(
            f"{entry.orthography}: a compound boundary needs two strong monosyllables"
        )
    symbols = tuple([tok.symbol for tok in t.tokens])
    cuts = cut_points(t, onsets, policy)
    return [(label, symbols[a:b]) for label, a, b in zip(template.labels, cuts, cuts[1:])]


@dataclass
class PathTable:
    """Per-cell terminal counts over a corpus of paths."""

    counts: dict[Cell, dict[tuple[str, ...], int]]
    total: int

    @classmethod
    def from_paths(cls, paths: Iterable[PathPair]) -> "PathTable":
        """Count (label, terminal) pairs in one pass, then key each label's counts by its cell."""
        tally = Counter(paths)
        by_label: dict[str, dict[tuple[str, ...], int]] = {}
        for (label, terminal), c in tally.items():
            by_label.setdefault(label, {})[terminal] = c
        counts = {CELL_OF_LABEL[label]: bucket for label, bucket in by_label.items()}
        return cls(counts, tally.total())

    def n(self, cell: Cell) -> int:
        return sum(self.counts.get(cell, {}).values())

    def n1(self, cell: Cell) -> int:
        return sum(1 for c in self.counts.get(cell, {}).values() if c == 1)

    def freq_of_freqs(self, cell: Cell) -> dict[int, int]:
        """How many terminal types occur r times, per r."""
        return dict(Counter(self.counts.get(cell, {}).values()))


def tabulate(paths: Iterable[PathPair]) -> PathTable:
    """Count (label, terminal) paths per cell in one pass; ``paths`` may be a generator."""
    table = PathTable.from_paths(paths)
    if not table.total:
        raise EmptyCorpus("no paths to tabulate")
    return table


@dataclass(frozen=True)
class ModelConfig:
    inventory_digest: str
    medial_split: MedialSplitPolicy = MedialSplitPolicy.MAX_ONSET
    gt_mode: str = "simple"
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.gt_mode not in GT_MODES:
            raise BadConfig(f"gt_mode must be one of {GT_MODES}")
        if not EPSILON_MIN <= self.epsilon <= EPSILON_MAX:
            raise BadConfig(f"epsilon must lie in [{EPSILON_MIN:g}, {EPSILON_MAX:g}]")


@dataclass
class TrainedModel:
    table: PathTable
    p0: dict[Cell, float]
    probabilities: dict[Cell, dict[tuple[str, ...], float]]
    all_unseen: frozenset[Cell]
    config: ModelConfig
    # per cell label: the seen terminals' probabilities and the unseen answer
    lookup: dict[str, tuple[dict[tuple[str, ...], float], float]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # unseen terminals get the cell's whole reserved mass p0; a cell
        # with no training data at all answers epsilon
        self.lookup = {
            cell_label(cell): (
                ({}, self.config.epsilon) if cell in self.all_unseen
                else (self.probabilities[cell], self.p0[cell])
            )
            for cell in ALL_CELLS
        }

    def prob(self, cell: Cell, terminal: tuple[str, ...]) -> tuple[float, bool]:
        """Probability of a terminal in a cell, plus whether it was seen."""
        seen, unseen = self.lookup[cell_label(cell)]
        p = seen.get(terminal)
        return (unseen, False) if p is None else (p, True)


def good_turing(table: PathTable, config: ModelConfig) -> TrainedModel:
    """Smooth per-cell counts, reserving singleton mass for the unseen.

    In ``simple`` mode every seen terminal keeps its relative frequency
    scaled by (1 - p0). In ``full`` mode counts are first discounted
    r -> (r+1) * N_{r+1} / N_r where the next frequency class is
    populated (left alone otherwise), then renormalized to 1 - p0.
    """
    p0: dict[Cell, float] = {}
    probabilities: dict[Cell, dict[tuple[str, ...], float]] = {}
    all_unseen: set[Cell] = set()
    for cell in ALL_CELLS:
        counts = table.counts.get(cell, {})
        n = sum(counts.values())
        if n == 0:
            all_unseen.add(cell)
            p0[cell] = 1.0
            probabilities[cell] = {}
            continue
        n1 = sum(1 for c in counts.values() if c == 1)
        reserved = min(0.5, max(n1 / n, 1.0 / (2 * n)))
        p0[cell] = reserved
        if config.gt_mode == "simple":
            probabilities[cell] = {t: (1.0 - reserved) * c / n for t, c in counts.items()}
        else:
            nr = Counter(counts.values())
            masses = {
                t: ((c + 1) * nr[c + 1] / nr[c] if nr.get(c + 1) else float(c)) / n
                for t, c in counts.items()
            }
            scale = (1.0 - reserved) / math.fsum(masses.values())
            probabilities[cell] = {t: m * scale for t, m in masses.items()}
    return TrainedModel(table, p0, probabilities, frozenset(all_unseen), config)


def top_k(model: TrainedModel, cell: Cell, k: int) -> list[tuple[str, int]]:
    """Most frequent terminals of a cell: count descending, text ascending."""
    counts = model.table.counts.get(cell, {})
    ranked = sorted(counts.items(), key=lambda item: (-item[1], format_terminal(item[0])))
    return [(format_terminal(t), c) for t, c in ranked[:k]]


MODEL_HEADER = "phonotax-model v1"


def save_model(model: TrainedModel) -> str:
    """Serialize a model to its canonical tab-separated document.

    The layout is deterministic (cells in canonical order, terminals by
    text, floats via repr), so save-load-save is byte-stable.
    """
    cfg = model.config
    lines = [
        MODEL_HEADER,
        f"config\tinventory_sha256\t{cfg.inventory_digest}",
        f"config\tmedial_split\t{cfg.medial_split.value}",
        f"config\tgt\t{cfg.gt_mode}",
        f"config\tepsilon\t{cfg.epsilon!r}",
        f"total\t{model.table.total}",
    ]
    records = []
    for cell in ALL_CELLS:
        for terminal in sorted(model.table.counts.get(cell, {}), key=format_terminal):
            count = model.table.counts[cell][terminal]
            prob = model.probabilities[cell][terminal]
            records.append(f"{cell_label(cell)}\t{format_terminal(terminal)}\t{count}\t{prob!r}")
    lines.append(f"records\t{len(records)}")
    for cell in ALL_CELLS:
        flag = "\tall_unseen" if cell in model.all_unseen else ""
        lines.append(
            f"p0\t{cell_label(cell)}\t{model.p0[cell]!r}"
            f"\tN\t{model.table.n(cell)}\tN1\t{model.table.n1(cell)}{flag}"
        )
    lines.extend(records)
    return "\n".join(lines) + "\n"


def _bad(msg: str) -> ModelFormatError:
    return ModelFormatError(msg)


def load_model(document: str) -> TrainedModel:
    """Parse and cross-check a model document.

    Terminal text must be written as format_terminal writes it, with no
    symbol an inventory may not hold (see is_reserved), counts
    must be positive and sum to the declared total, and every
    cell must carry a p0 line whose N, N1 and all_unseen flag agree with
    its records. p0 and every seen probability are then re-derived from
    the counts with good_turing under the file's config and must match
    within 1e-12. The file's own floats are kept, so save-load-save is
    byte-stable.
    """
    lines = document.splitlines()
    if not lines:
        raise _bad("empty model document")
    if lines[0] != MODEL_HEADER:
        if lines[0].startswith("phonotax-model"):
            raise VersionMismatch(f"expected {MODEL_HEADER!r}, got {lines[0]!r}")
        raise _bad(f"not a model document: first line {lines[0]!r}")

    config_fields: dict[str, str] = {}
    total: int | None = None
    declared_records: int | None = None
    # keyed by cell label until the model is assembled
    p0_of: dict[str, float] = {}
    meta: dict[str, tuple[int, int, bool]] = {}  # N, N1, all_unseen
    counts_of: dict[str, dict[tuple[str, ...], int]] = {}
    probabilities_of: dict[str, dict[tuple[str, ...], float]] = {
        label: {} for label in CELL_OF_LABEL}
    symbols: set[str] = set()  # terminal symbols already checked against the notation

    def check_label(label: str) -> str:
        if label not in CELL_OF_LABEL:
            raise _bad(f"unknown cell label {label!r}")
        return label

    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "config" and len(parts) == 3:
                config_fields[parts[1]] = parts[2]
            elif kind == "total" and len(parts) == 2:
                total = int(parts[1])
            elif kind == "records" and len(parts) == 2:
                declared_records = int(parts[1])
            elif kind == "p0" and len(parts) in (7, 8) and parts[3] == "N" and parts[5] == "N1":
                label = check_label(parts[1])
                if label in p0_of:
                    raise _bad(f"line {lineno}: duplicate p0 for {label}")
                if len(parts) == 8 and parts[7] != "all_unseen":
                    raise _bad(f"line {lineno}: unknown p0 flag {parts[7]!r}")
                p0_of[label] = float(parts[2])
                meta[label] = (int(parts[4]), int(parts[6]), len(parts) == 8)
            elif len(parts) == 4:
                label = check_label(parts[0])
                text = parts[1]
                terminal = () if text == NULL_TERMINAL else tuple(text.split())
                if format_terminal(terminal) != text:
                    raise _bad(f"line {lineno}: terminal {text!r} is not written "
                               f"{format_terminal(terminal)!r}")
                if not symbols.issuperset(terminal):  # check each symbol once
                    if any(map(is_reserved, terminal)):
                        raise _bad(f"line {lineno}: terminal {text!r} holds a symbol "
                                   "that collides with the notation")
                    symbols.update(terminal)
                bucket = counts_of.setdefault(label, {})
                if terminal in bucket:
                    raise _bad(f"line {lineno}: duplicate record for {label} {text}")
                bucket[terminal] = int(parts[2])
                if bucket[terminal] < 1:
                    raise _bad(f"line {lineno}: count below 1 in {line!r}")
                probabilities_of[label][terminal] = float(parts[3])
            else:
                raise _bad(f"line {lineno}: unrecognized line {line!r}")
        except ValueError:
            raise _bad(f"line {lineno}: bad number in {line!r}") from None

    for key in ("inventory_sha256", "medial_split", "gt", "epsilon"):
        if key not in config_fields:
            raise _bad(f"missing config {key}")
    if total is None or declared_records is None:
        raise _bad("missing total or records line")
    if len(p0_of) != len(CELL_OF_LABEL):
        raise _bad("model must carry a p0 line for each of the 12 cells")

    record_count = sum(len(b) for b in counts_of.values())
    if record_count != declared_records:
        raise _bad(f"declared {declared_records} records, found {record_count}")
    if sum(c for b in counts_of.values() for c in b.values()) != total:
        raise _bad("record counts do not sum to the declared total")

    all_unseen: set[Cell] = set()
    for label, cell in CELL_OF_LABEL.items():
        n_declared, n1_declared, flagged = meta[label]
        bucket = counts_of.get(label, {})
        n = sum(bucket.values())
        if n != n_declared or sum(1 for c in bucket.values() if c == 1) != n1_declared:
            raise _bad(f"cell {label}: N/N1 disagree with its records")
        if flagged:
            if bucket:
                raise _bad(f"cell {label}: flagged all_unseen but has records")
            all_unseen.add(cell)
            continue
        if n == 0:
            raise _bad(f"cell {label}: empty but not flagged all_unseen")

    try:
        policy = MedialSplitPolicy(config_fields["medial_split"])
        config = ModelConfig(
            config_fields["inventory_sha256"], policy,
            config_fields["gt"], float(config_fields["epsilon"]),
        )
    except (ValueError, BadConfig) as err:
        raise _bad(f"bad config: {err}") from None

    p0 = {cell: p0_of[label] for label, cell in CELL_OF_LABEL.items()}
    probabilities = {cell: probabilities_of[label] for label, cell in CELL_OF_LABEL.items()}
    table = PathTable({CELL_OF_LABEL[label]: b for label, b in counts_of.items()}, total)
    derived = good_turing(table, config)
    for label, cell in CELL_OF_LABEL.items():
        # written as "not <=" so that a NaN fails too
        if not abs(p0[cell] - derived.p0[cell]) <= 1e-12:
            raise _bad(f"cell {label}: p0 {p0[cell]!r} is not the "
                       f"{derived.p0[cell]!r} its counts imply")
        expected = derived.probabilities[cell]
        for terminal, prob in probabilities[cell].items():
            if not abs(prob - expected[terminal]) <= 1e-12:
                raise _bad(f"cell {label}: p({format_terminal(terminal)}) {prob!r} "
                           f"is not the {expected[terminal]!r} its counts imply")
    return TrainedModel(table, p0, probabilities, frozenset(all_unseen), config)


@dataclass
class TrainResult:
    model: TrainedModel
    ingest: IngestResult
    onsets: WordOnsetSet
    unsupported: list[tuple[int, str]] = field(default_factory=list)
    path_count: int = 0
    trained_entries: int = 0


def train_model(
    document: str,
    inv: PhonemeInventory,
    policy: MedialSplitPolicy = MedialSplitPolicy.MAX_ONSET,
    gt_mode: str = "simple",
    epsilon: float = 1e-9,
) -> TrainResult:
    """Run the whole training pipeline over a lexicon document."""
    config = ModelConfig(inv.digest, policy, gt_mode, epsilon)
    ingest = ingest_lexicon(document, inv)
    onsets = collect_word_onsets([e.transcription for e in ingest.entries])
    unsupported: list[tuple[int, str]] = []

    def trained_paths() -> Iterable[PathPair]:
        # streamed into the count, so no corpus-sized list of paths is built
        for entry in ingest.entries:
            try:
                paths = extract_paths(entry, onsets, policy)
            except UnsupportedStressPattern:
                unsupported.append((entry.lineno, entry.orthography))
                continue
            yield from paths

    table = tabulate(trained_paths())
    trained = len(ingest.entries) - len(unsupported)
    return TrainResult(good_turing(table, config), ingest, onsets, unsupported, table.total, trained)
