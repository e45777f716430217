from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from phonotax.errors import MalformedPath, OutOfScope, TagMismatch, UnsupportedStressPattern
from phonotax.grammar import (
    ALL_CELLS,
    ConstituentKind,
    PathType,
    Position,
    SyllableCategory,
    UnifiedParse,
    UnifyFailure,
    WordTemplate,
    cell_from_label,
    cell_label,
    format_path,
    parse_path,
    sequential_unify,
    templates_for,
)
from phonotax.phonology import Stress

SC = SyllableCategory
ON, RH = ConstituentKind.ONSET, ConstituentKind.RHYME
S, W = Stress.STRONG, Stress.WEAK


def test_category_parts():
    assert SC.STRONG_INITIAL.label == "Ssi"
    assert SC.WEAK_INITIAL_FINAL.stress is W
    assert SC.STRONG_FINAL.position is Position.FINAL
    assert len(ALL_CELLS) == 12
    assert [cell_label(c) for c in ALL_CELLS[:6]] == ["Osi", "Osf", "Osif", "Owi", "Owf", "Owif"]


def _describe(template):
    return " ".join("[" + " ".join(c.label for c in w) + "]" for w in template.words)


def test_templates_for_all_patterns():
    assert [_describe(t) for t in templates_for((S,))] == ["[Ssif]"]
    assert [_describe(t) for t in templates_for((W,))] == ["[Swif]"]
    assert [_describe(t) for t in templates_for((W, S))] == ["[Swi Ssf]"]
    assert [_describe(t) for t in templates_for((S, W))] == ["[Ssi Swf]"]
    # double strong: one word or a compound, single-word reading first
    assert [_describe(t) for t in templates_for((S, S))] == ["[Ssi Ssf]", "[Ssif] [Ssif]"]
    with pytest.raises(UnsupportedStressPattern):
        templates_for((W, W))
    with pytest.raises(OutOfScope):
        templates_for((S, W, S))


def test_template_validation():
    with pytest.raises(ValueError):
        WordTemplate(((SC.STRONG_INITIAL,),))  # monosyllable must carry 'if'
    with pytest.raises(ValueError):
        WordTemplate(((SC.STRONG_FINAL, SC.STRONG_INITIAL),))  # order reversed
    with pytest.raises(ValueError):
        WordTemplate(((SC.STRONG_INITIAL_FINAL,), (SC.WEAK_INITIAL_FINAL,)))  # weak half
    with pytest.raises(ValueError):
        WordTemplate(())


def test_template_slots():
    iamb = templates_for((W, S))[0]
    assert iamb.labels == ("Owi", "Rwi", "Osf", "Rsf")
    assert iamb.slots == tuple(cell_from_label(label) for label in iamb.labels)
    compound = templates_for((S, S))[1]
    assert compound.labels == ("Osif", "Rsif", "Osif", "Rsif")


def test_format_path():
    p = PathType(SC.STRONG_INITIAL, ON, ("k",))
    assert format_path(p) == "U : W : Ssi : Osi : k"
    empty = PathType(SC.STRONG_INITIAL, ON, ())
    assert format_path(empty) == "U : W : Ssi : Osi : ∅"
    rhyme = PathType(SC.WEAK_FINAL, RH, ("ə", "l"))
    assert format_path(rhyme) == "U : W : Swf : Rwf : ə l"


def test_parse_path_round_trip():
    for text in (
        "U : W : Ssi : Osi : k",
        "U : W : Ssif : Rsif : æ t",
        "U : W : Swif : Owif : ∅",
    ):
        assert format_path(parse_path(text)) == text


def test_parse_path_errors():
    with pytest.raises(TagMismatch):
        parse_path("U : W : Ssi : Owf : d")  # constituent tags disagree
    with pytest.raises(MalformedPath):
        parse_path("U : Ssi : Osi : k")
    with pytest.raises(MalformedPath):
        parse_path("X : W : Ssi : Osi : k")
    with pytest.raises(MalformedPath):
        parse_path("U : W : Sxx : Oxx : k")
    with pytest.raises(MalformedPath):
        parse_path("U : W : Ssi : Xsi : k")
    with pytest.raises(MalformedPath):
        parse_path("U : W : Ssi : Osi : ")


@given(
    st.sampled_from(list(SyllableCategory)),
    st.sampled_from(list(ConstituentKind)),
    st.lists(st.sampled_from(["p", "t", "æ", "ɪ", "s"]), max_size=4).map(tuple),
)
def test_path_text_inverse(cat, kind, terminal):
    p = PathType(cat, kind, terminal)
    assert parse_path(format_path(p)) == p


def _paths_for(template):
    out = []
    for cat in template.categories:
        out.append(PathType(cat, ON, ("t",)))
        out.append(PathType(cat, RH, ("æ",)))
    return out


def test_unify_success():
    template = templates_for((S, W))[0]
    paths = _paths_for(template)
    result = sequential_unify(template, paths)
    assert isinstance(result, UnifiedParse)
    assert result.paths == tuple(paths)


def test_unify_rejects_tag_mismatch():
    template = templates_for((S, W))[0]
    paths = _paths_for(template)
    # swap the second rhyme for one with the wrong tags
    paths[3] = PathType(SC.STRONG_FINAL, RH, ("æ",))
    result = sequential_unify(template, paths)
    assert isinstance(result, UnifyFailure)
    assert result.index == 3
    assert result.left == paths[2]
    assert result.right == paths[3]
    assert "Rwf" in result.reason and "Rsf" in result.reason


def test_unify_rejects_wrong_order():
    template = templates_for((S,))[0]
    onset = PathType(SC.STRONG_INITIAL_FINAL, ON, ("k",))
    result = sequential_unify(template, [onset, onset])
    assert isinstance(result, UnifyFailure)
    assert result.index == 1
    assert "Rsif" in result.reason


def test_unify_rejects_wrong_lengths():
    template = templates_for((S,))[0]
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
    template = templates_for((S, S))[0]
    good = _paths_for(template)
    bad = [good[0], PathType(SC.WEAK_FINAL, RH, ("æ",)), good[2], good[3]]
    result = sequential_unify(template, bad)
    assert isinstance(result, UnifyFailure)
    assert result.index == 1
    assert (result.left, result.right) == (bad[0], bad[1])


def test_unified_parse_validates():
    template = templates_for((S,))[0]
    with pytest.raises(ValueError):
        UnifiedParse(template, (PathType(SC.STRONG_INITIAL_FINAL, RH, ("æ",)),))
