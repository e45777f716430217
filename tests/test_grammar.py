from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax.errors import UnsupportedStressPattern
from phonotax.grammar import (
    LABELS,
    TEMPLATE_KEYS,
    PathType,
    UnifiedParse,
    UnifyFailure,
    WordTemplate,
    format_path,
    path_prefix,
    sequential_unify,
    templates_for,
)
from phonotax.parse import parse_all
from phonotax.phonology import _PATTERNS, load_inventory, tokenize
from phonotax.train import train_model

from conftest import INVENTORY_TEXT
from oracles import random_lexicon, random_transcription_text


def test_category_parts():
    assert len(LABELS) == len(set(LABELS)) == 12
    assert LABELS[:6] == ("Osi", "Osf", "Osif", "Owi", "Owf", "Owif")
    assert LABELS[6:] == tuple("R" + label[1:] for label in LABELS[:6])
    assert path_prefix("Rwif") == "U : W : Swif : Rwif : "


def test_a_word_template_derives_its_slots_and_shows_only_its_words():
    template = WordTemplate((("Ssi", "Swf"),))
    assert template.labels == ("Osi", "Rsi", "Owf", "Rwf")
    assert WordTemplate._fields == ("words", "labels", "text")
    assert template.text == " ; ".join([path_prefix(label) + "%s" for label in template.labels])
    assert repr(template) == "WordTemplate(words=(('Ssi', 'Swf'),))"
    assert template == templates_for("sw")[0]
    assert pickle.loads(pickle.dumps(template)) == template


def _describe(template):
    return " ".join("[" + " ".join(w) + "]" for w in template.words)


def test_templates_for_all_patterns():
    assert [_describe(t) for t in templates_for("s")] == ["[Ssif]"]
    assert [_describe(t) for t in templates_for("w")] == ["[Swif]"]
    assert [_describe(t) for t in templates_for("ws")] == ["[Swi Ssf]"]
    assert [_describe(t) for t in templates_for("sw")] == ["[Ssi Swf]"]
    # double strong: one word or a compound, single-word reading first
    assert [_describe(t) for t in templates_for("ss")] == ["[Ssi Ssf]", "[Ssif] [Ssif]"]
    with pytest.raises(UnsupportedStressPattern):
        templates_for("ww")
    # a boundary commits a double-strong word to the compound; weak-weak fails first
    assert [_describe(t) for t in templates_for("ss", True)] == ["[Ssif] [Ssif]"]
    for pattern in ("sw", "ws"):
        with pytest.raises(UnsupportedStressPattern, match="^a compound boundary needs two strong monosyllables$"):
            templates_for(pattern, True)
    with pytest.raises(UnsupportedStressPattern, match="^no rule generates a weak-weak word$"):
        templates_for("ww", True)


def test_every_template_slot_carries_its_syllable_s_stress_letter():
    # over every stress pattern stress_pattern can give: syllable i of each
    # template has onset and rhyme labels tagged with the pattern's letter i
    accepted = set()
    for (_, compound), pattern in _PATTERNS.items():
        if pattern is None:
            continue
        try:
            templates = templates_for(pattern, compound)
        except UnsupportedStressPattern:
            continue
        accepted.add((pattern, compound))
        for template in templates:
            assert [label[:2] for label in template.labels] == [
                kind + letter for letter in pattern for kind in "OR"]
    assert accepted == set(TEMPLATE_KEYS)


def test_template_slots():
    iamb = templates_for("ws")[0]
    assert iamb.labels == ("Owi", "Rwi", "Osf", "Rsf")
    assert iamb.text == " ; ".join([path_prefix(label) + "%s" for label in iamb.labels])
    assert iamb.text.startswith("U : W : Swi : Owi : %s ; ")
    compound = templates_for("ss")[1]
    assert compound.labels == ("Osif", "Rsif", "Osif", "Rsif")


def test_format_path():
    assert format_path(PathType("Osi", ("k",))) == "U : W : Ssi : Osi : k"
    assert format_path(PathType("Osi", ())) == "U : W : Ssi : Osi : ∅"
    assert format_path(PathType("Rwf", ("ə", "l"))) == "U : W : Swf : Rwf : ə l"


def _paths_for(template):
    return [PathType(label, ("t",) if label[0] == "O" else ("æ",)) for label in template.labels]


def test_unify_success():
    template = templates_for("sw")[0]
    paths = _paths_for(template)
    result = sequential_unify(template, paths)
    assert isinstance(result, UnifiedParse)
    assert result.paths == tuple(paths)


def test_unify_rejects_tag_mismatch():
    template = templates_for("sw")[0]
    paths = _paths_for(template)
    # swap the second rhyme for one with the wrong tags
    paths[3] = PathType("Rsf", ("æ",))
    result = sequential_unify(template, paths)
    assert isinstance(result, UnifyFailure)
    assert result.index == 3
    assert result.left == paths[2]
    assert result.right == paths[3]
    assert "Rwf" in result.reason and "Rsf" in result.reason


def test_unify_rejects_wrong_order():
    template = templates_for("s")[0]
    onset = PathType("Osif", ("k",))
    result = sequential_unify(template, [onset, onset])
    assert isinstance(result, UnifyFailure)
    assert result.index == 1
    assert "Rsif" in result.reason


def test_unify_rejects_wrong_lengths():
    template = templates_for("s")[0]
    paths = _paths_for(template)
    short = sequential_unify(template, paths[:1])
    assert isinstance(short, UnifyFailure)
    assert short.right is None
    long = sequential_unify(template, paths + [paths[0]])
    assert isinstance(long, UnifyFailure)
    assert long.index == 2
    empty = sequential_unify(template, [])
    assert isinstance(empty, UnifyFailure)


def test_unify_reports_first_offending_pair():
    template = templates_for("ss")[0]
    good = _paths_for(template)
    bad = [good[0], PathType("Rwf", ("æ",)), good[2], good[3]]
    result = sequential_unify(template, bad)
    assert isinstance(result, UnifyFailure)
    assert result.index == 1
    assert (result.left, result.right) == (bad[0], bad[1])


def test_unified_parse_validates():
    template = templates_for("s")[0]
    with pytest.raises(ValueError):
        UnifiedParse(template, (PathType("Rsif", ("æ",)),))
    parse = UnifiedParse(template, (PathType("Osif", ()), PathType("Rsif", ("æ",))))
    with pytest.raises(ValueError):
        parse._replace(paths=parse.paths[1:])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_every_parse_unifies_and_a_swapped_label_fails_there(seed):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    for _ in range(5):
        for sp in parse_all(tokenize(random_transcription_text(rng), inventory), model):
            assert sequential_unify(sp.template, sp.paths) == sp.parse
            paths = list(sp.paths)
            i = rng.randrange(len(paths))
            paths[i] = paths[i]._replace(label=rng.choice([x for x in LABELS if x != paths[i].label]))
            failure = sequential_unify(sp.template, paths)
            assert isinstance(failure, UnifyFailure)
            assert (failure.index, failure.right) == (i, paths[i])
