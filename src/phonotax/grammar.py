"""Syllable categories, word templates, and root-to-frontier paths.

A word expands into one or two syllables; each syllable into an onset
and a rhyme. Because onset and rhyme inventories differ at word edges,
syllable categories are indexed by stress (s/w) and by edge position:
initial (i), final (f), or both (if). Only those three position tags
exist; medial syllables would need further tags and are deliberately
not constructible, which pins the one-to-two-syllable scope at the
type level.

The unit of probability is the full root-to-frontier path, written

    U : W : Ssi : Osi : k

where U (utterance) and W (word) carry no free parameters and are
printed but not stored. A parse is rebuilt from paths by zipping
adjacent ones top-down (sequential unification); an onset must be
followed by a rhyme with the same tags, so ``Osi`` then ``Owf`` fails.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import MalformedPath, OutOfScope, TagMismatch, UnsupportedStressPattern
from .phonology import NULL_TERMINAL, Stress


class Position(enum.Enum):
    INITIAL = "i"
    FINAL = "f"
    INITIAL_FINAL = "if"


class SyllableCategory(enum.Enum):
    """The six stress-by-position syllable categories."""

    STRONG_INITIAL = "Ssi"
    STRONG_FINAL = "Ssf"
    STRONG_INITIAL_FINAL = "Ssif"
    WEAK_INITIAL = "Swi"
    WEAK_FINAL = "Swf"
    WEAK_INITIAL_FINAL = "Swif"

    @property
    def label(self) -> str:
        return self.value

    @property
    def stress(self) -> Stress:
        return Stress(self.value[1])

    @property
    def position(self) -> Position:
        return Position(self.value[2:])

    @property
    def tags(self) -> str:
        """The s/w + i/f tag string, e.g. 'si' for Ssi."""
        return self.value[1:]

    @staticmethod
    def from_parts(stress: Stress, position: Position) -> "SyllableCategory":
        return SyllableCategory("S" + stress.value + position.value)


class ConstituentKind(enum.Enum):
    ONSET = "O"
    RHYME = "R"


# canonical order for the 12 category-by-kind cells, onsets first
ALL_CELLS: tuple[tuple[SyllableCategory, ConstituentKind], ...] = tuple(
    (cat, kind) for kind in ConstituentKind for cat in SyllableCategory
)


def cell_label(cell: tuple[SyllableCategory, ConstituentKind]) -> str:
    """Constituent label for a category cell, e.g. ('Ssi', ONSET) -> 'Osi'."""
    cat, kind = cell
    return kind.value + cat.tags


# the 12 constituent labels, in ALL_CELLS order, each to its cell
CELL_OF_LABEL = {cell_label(cell): cell for cell in ALL_CELLS}


def cell_from_label(label: str) -> tuple[SyllableCategory, ConstituentKind]:
    try:
        return CELL_OF_LABEL[label]
    except KeyError:
        raise MalformedPath(f"unknown constituent label {label!r}") from None


def format_terminal(terminal: tuple[str, ...]) -> str:
    return " ".join(terminal) if terminal else NULL_TERMINAL


@dataclass(frozen=True)
class PathType:
    """One root-to-frontier path: category, constituent, terminal string.

    The terminal is a tuple of phoneme symbols, empty for a null onset.
    The constituent's tags always equal the syllable's, so only the
    syllable category and the kind are stored.
    """

    syllable: SyllableCategory
    kind: ConstituentKind
    terminal: tuple[str, ...]

    @property
    def cell(self) -> tuple[SyllableCategory, ConstituentKind]:
        return (self.syllable, self.kind)

    @property
    def constituent_label(self) -> str:
        return cell_label(self.cell)


# everything a rendered path carries before its terminal, per cell
_PATH_PREFIX = {cell: f"U : W : {cell[0].label} : {cell_label(cell)} : " for cell in ALL_CELLS}


def format_path(p: PathType) -> str:
    """Render a path, e.g. 'U : W : Ssi : Osi : k'."""
    return _PATH_PREFIX[p.syllable, p.kind] + format_terminal(p.terminal)


def parse_path(text: str) -> PathType:
    """Inverse of format_path. Raises MalformedPath or TagMismatch."""
    parts = text.split(" : ")
    if len(parts) < 5 or parts[0] != "U" or parts[1] != "W":
        raise MalformedPath(f"path must read 'U : W : <syllable> : <constituent> : <terminal>': {text!r}")
    try:
        cat = SyllableCategory(parts[2])
    except ValueError:
        raise MalformedPath(f"unknown syllable category {parts[2]!r}") from None
    ccat, kind = cell_from_label(parts[3])
    if ccat is not cat:
        raise TagMismatch(f"{cat.label} cannot dominate {parts[3]}")
    terminal_text = " : ".join(parts[4:])
    if not terminal_text:
        raise MalformedPath(f"missing terminal in {text!r} (a null onset is written {NULL_TERMINAL})")
    terminal = () if terminal_text == NULL_TERMINAL else tuple(terminal_text.split())
    return PathType(cat, kind, terminal)


@dataclass(frozen=True)
class WordTemplate:
    """One or two word slots, each an ordered run of syllable categories.

    Scope is one or two syllables in total. A one-word disyllable runs
    initial then final; a monosyllabic word slot is initial-and-final;
    a two-word template is two strong monosyllables (compounds behave
    like two monosyllabic words back to back).
    """

    words: tuple[tuple[SyllableCategory, ...], ...]
    # per path slot, onset then rhyme per syllable: the cell it fills, its
    # label and the rendered path up to its terminal ('U : W : Ssi : Osi : ')
    slots: tuple[tuple[SyllableCategory, ConstituentKind], ...] = field(
        init=False, repr=False, compare=False)
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    prefixes: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        total = sum(len(w) for w in self.words)
        if not 1 <= total <= 2 or not 1 <= len(self.words) <= 2:
            raise ValueError("template must hold one or two syllables over one or two words")
        for word in self.words:
            if len(word) == 1 and word[0].position is not Position.INITIAL_FINAL:
                raise ValueError("a monosyllabic word slot must be tagged initial-and-final")
            if len(word) == 2 and (
                word[0].position is not Position.INITIAL or word[1].position is not Position.FINAL
            ):
                raise ValueError("a disyllabic word slot must run initial then final")
        if len(self.words) == 2 and any(
            len(w) != 1 or w[0].stress is not Stress.STRONG for w in self.words
        ):
            raise ValueError("a two-word template must pair two strong monosyllables")
        slots = tuple((cat, kind) for cat in self.categories for kind in ConstituentKind)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "labels", tuple(map(cell_label, slots)))
        object.__setattr__(self, "prefixes", tuple(map(_PATH_PREFIX.__getitem__, slots)))

    @property
    def categories(self) -> tuple[SyllableCategory, ...]:
        """Flattened syllable categories across word slots."""
        return tuple(cat for word in self.words for cat in word)

    def describe(self) -> str:
        return " ".join("[" + " ".join(c.label for c in w) + "]" for w in self.words)


_CAT = SyllableCategory

_MONO_STRONG = WordTemplate(((_CAT.STRONG_INITIAL_FINAL,),))
_MONO_WEAK = WordTemplate(((_CAT.WEAK_INITIAL_FINAL,),))
_IAMB = WordTemplate(((_CAT.WEAK_INITIAL, _CAT.STRONG_FINAL),))
_TROCHEE = WordTemplate(((_CAT.STRONG_INITIAL, _CAT.WEAK_FINAL),))
_SPONDEE = WordTemplate(((_CAT.STRONG_INITIAL, _CAT.STRONG_FINAL),))
_COMPOUND = WordTemplate(((_CAT.STRONG_INITIAL_FINAL,), (_CAT.STRONG_INITIAL_FINAL,)))


def templates_for(pattern: tuple[Stress, ...]) -> tuple[WordTemplate, ...]:
    """Word templates generated for a stress pattern, order-stable.

    A double-strong pattern yields two readings: one word, or a
    compound of two strong monosyllables (single-word reading first).
    No rule generates a weak-weak word.
    """
    if len(pattern) > 2:
        raise OutOfScope(f"{len(pattern)} syllables; only one or two are supported")
    if pattern == (Stress.STRONG,):
        return (_MONO_STRONG,)
    if pattern == (Stress.WEAK,):
        # reduced function words surface as weak monosyllables
        return (_MONO_WEAK,)
    if pattern == (Stress.WEAK, Stress.STRONG):
        return (_IAMB,)
    if pattern == (Stress.STRONG, Stress.WEAK):
        return (_TROCHEE,)
    if pattern == (Stress.STRONG, Stress.STRONG):
        return (_SPONDEE, _COMPOUND)
    raise UnsupportedStressPattern("no rule generates a weak-weak word")


_CELL_OF = attrgetter("syllable", "kind")  # PathType.cell, without the property call


@dataclass(frozen=True)
class UnifiedParse:
    """A template plus the onset/rhyme paths that fill it, in order."""

    template: WordTemplate
    paths: tuple[PathType, ...]

    def __post_init__(self) -> None:
        if tuple(map(_CELL_OF, self.paths)) != self.template.slots:
            raise ValueError("paths do not fill the template in onset/rhyme order")


@dataclass(frozen=True)
class UnifyFailure:
    """First offending adjacent pair in a failed unification."""

    index: int
    left: PathType | None
    right: PathType | None
    reason: str


def sequential_unify(
    template: WordTemplate, paths: tuple[PathType, ...] | list[PathType]
) -> UnifiedParse | UnifyFailure:
    """Zip paths against a template, onset then rhyme per syllable.

    Succeeds only when every adjacent pair carries matching tags in the
    required order; otherwise returns a UnifyFailure naming the first
    offending pair. Total: never raises on bad input.
    """
    paths = tuple(paths)
    slots = template.slots
    if not paths:
        return UnifyFailure(0, None, None, "no paths to unify")
    for i in range(max(len(paths), len(slots))):
        left = paths[i - 1] if 0 < i <= len(paths) else None
        if i >= len(slots):
            return UnifyFailure(i, left, paths[i], "more paths than the template holds")
        want = template.labels[i]
        if i >= len(paths):
            return UnifyFailure(i, left, None, f"paths end where {want} is required")
        got = paths[i]
        if got.cell != slots[i]:
            if left is None:
                reason = f"parse must open with {want}, not {got.constituent_label}"
            else:
                reason = (
                    f"{left.constituent_label} is not followed by {want}, as it requires, "
                    f"but by {got.constituent_label}"
                )
            return UnifyFailure(i, left, got, reason)
    return UnifiedParse(template, paths)
