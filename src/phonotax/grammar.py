"""Constituent labels, word templates, and root-to-frontier paths.

A word expands into one or two syllables; each syllable into an onset
and a rhyme. Because onset and rhyme inventories differ at word edges,
a constituent is labelled by its kind (O onset, R rhyme), its stress
(s/w, the letter a word's stress pattern gives its syllable) and its
edge position: initial (i), final (f), or both (if). That gives the
paper's 12 labels, ``Osi`` ... ``Rwif``, one per probability cell.
The syllable that dominates a constituent carries the same tags:
``Osi`` and ``Rsi`` sit under ``Ssi``. Medial syllables would need
further tags and have none, so the six word templates below are the
whole one-to-two-syllable scope.

The unit of probability is the full root-to-frontier path, written

    U : W : Ssi : Osi : k

where U (utterance) and W (word) carry no free parameters and are
printed but not stored: a path is a constituent label and a terminal.
A parse is rebuilt from paths by zipping adjacent ones top-down
(sequential unification); an onset must be followed by a rhyme with the
same tags, so ``Osi`` then ``Owf`` fails.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import UnsupportedStressPattern
from .phonology import NULL_TERMINAL

# the 12 constituent labels, onsets first, in model-file order
LABELS = ("Osi", "Osf", "Osif", "Owi", "Owf", "Owif", "Rsi", "Rsf", "Rsif", "Rwi", "Rwf", "Rwif")


def format_terminal(terminal: tuple[str, ...]) -> str:
    return " ".join(terminal) if terminal else NULL_TERMINAL


class PathType(NamedTuple):
    """One root-to-frontier path: a constituent label and its terminal.

    The terminal is a tuple of phoneme symbols, empty for a null onset.
    The dominating syllable category is ``"S" + label[1:]``.
    """

    label: str
    terminal: tuple[str, ...]


def path_prefix(label: str) -> str:
    """Everything a rendered path carries before its terminal, e.g. 'U : W : Ssi : Osi : '."""
    return f"U : W : S{label[1:]} : {label} : "


def format_path(p: PathType) -> str:
    """Render a path, e.g. 'U : W : Ssi : Osi : k'."""
    return path_prefix(p.label) + format_terminal(p.terminal)


class _TemplateFields(NamedTuple):
    words: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]
    text: str


class WordTemplate(_TemplateFields):
    """One or two word slots, each an ordered run of syllable categories.

    A one-word disyllable runs initial then final; a monosyllabic word
    slot is initial-and-final; a two-word template is two strong
    monosyllables (compounds behave like two monosyllabic words back to
    back). Built from ``words`` alone, e.g. ``WordTemplate((("Ssi",
    "Swf"),))``, it derives the constituent label of each path slot,
    onset then rhyme per syllable, and ``text``, the whole rendered
    parse with a ``%s`` per terminal after each slot's ``path_prefix``.
    """

    __slots__ = ()

    def __new__(cls, words: tuple[tuple[str, ...], ...]) -> WordTemplate:
        labels = tuple([kind + cat[1:] for word in words for cat in word for kind in "OR"])
        return super().__new__(cls, words, labels, " ; ".join([path_prefix(label) + "%s" for label in labels]))

    def __getnewargs__(self) -> tuple:
        return (self.words,)

    def __repr__(self) -> str:
        return f"WordTemplate(words={self.words!r})"


# A double-strong pattern reads as one word or as a compound of two strong
# monosyllables, the single word first. Reduced function words surface as
# weak monosyllables.
_TEMPLATES = {
    "s": (WordTemplate((("Ssif",),)),),
    "w": (WordTemplate((("Swif",),)),),
    "ws": (WordTemplate((("Swi", "Ssf"),)),),
    "sw": (WordTemplate((("Ssi", "Swf"),)),),
    "ss": (WordTemplate((("Ssi", "Ssf"),)), WordTemplate((("Ssif",), ("Ssif",)))),
}
_COMPOUND = _TEMPLATES["ss"][1:]  # what a boundary commits a strong-strong word to
# every (stress pattern, compound) key templates_for accepts
TEMPLATE_KEYS = (*[(pattern, False) for pattern in _TEMPLATES], ("ss", True))


def templates_for(pattern: str, compound: bool = False) -> tuple[WordTemplate, ...]:
    """Word templates generated for a one- or two-syllable stress pattern, order-stable.

    The pattern is ``stress_pattern``'s string, one letter per syllable,
    and each template's syllables carry those letters in order. A
    compound boundary commits the word to the two-word template. No rule
    generates a weak-weak word, and a boundary needs two strong
    monosyllables; either raises UnsupportedStressPattern, the weak-weak
    error first.
    """
    try:
        templates = _TEMPLATES[pattern]
    except KeyError:
        raise UnsupportedStressPattern("no rule generates a weak-weak word") from None
    if not compound:
        return templates
    if pattern != "ss":
        raise UnsupportedStressPattern("a compound boundary needs two strong monosyllables")
    return _COMPOUND


class _ParseFields(NamedTuple):
    template: WordTemplate
    paths: tuple[PathType, ...]


class UnifiedParse(_ParseFields):
    """A template plus the onset/rhyme paths that fill it, in order."""

    __slots__ = ()

    def __new__(cls, template: WordTemplate, paths: tuple[PathType, ...]) -> UnifiedParse:
        if tuple([p.label for p in paths]) != template.labels:
            raise ValueError("paths do not fill the template in onset/rhyme order")
        return super().__new__(cls, template, paths)

    @classmethod
    def _make(cls, iterable) -> UnifiedParse:  # so that _replace checks the paths too
        return cls(*iterable)


class UnifyFailure(NamedTuple):
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
    labels = template.labels
    if not paths:
        return UnifyFailure(0, None, None, "no paths to unify")
    for i in range(max(len(paths), len(labels))):
        left = paths[i - 1] if 0 < i <= len(paths) else None
        if i >= len(labels):
            return UnifyFailure(i, left, paths[i], "more paths than the template holds")
        want = labels[i]
        if i >= len(paths):
            return UnifyFailure(i, left, None, f"paths end where {want} is required")
        got = paths[i]
        if got.label != want:
            if left is None:
                reason = f"parse must open with {want}, not {got.label}"
            else:
                reason = f"{left.label} is not followed by {want}, as it requires, but by {got.label}"
            return UnifyFailure(i, left, got, reason)
    return UnifiedParse(template, paths)
