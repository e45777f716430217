from __future__ import annotations

import random
from collections import Counter

import pytest

from phonotax.errors import BadConfig, NoNucleus, OutOfScope
from phonotax.phonology import load_inventory, tokenize
from phonotax.syllabify import collect_word_onsets, split_medial, syllabify
from phonotax.train import ingest_lexicon

from conftest import INVENTORY_TEXT
from oracles import random_transcription_text

MAX = "max-onset"
SPLIT = "always-split-cc"


def _onsets(*runs):
    return frozenset({()} | {tuple(r.split()) for r in runs})


def _shape(t, onsets, policy=MAX):
    """Render syllables as 'onset|rhyme' strings per word."""
    words = syllabify(t, onsets, policy)
    return [
        [" ".join(s.onset) + "|" + " ".join(s.rhyme)
         for s in word]
        for word in words
    ]


def test_collect_word_onsets(inv):
    doc = "".join(f"w\t{raw}\n" for raw in ("k æ1 t", "s t ɪ1 l", "æ1 t", "b ʌ1 s + b ɔɪ1"))
    onsets = collect_word_onsets(e.transcription for e in ingest_lexicon(doc, inv).entries)
    assert ("k",) in onsets
    assert ("s", "t") in onsets
    assert () in onsets
    assert ("b",) in onsets
    assert ("s",) not in onsets  # only whole prefixes count


def test_vcv_splits_before_consonant(inv):
    # a single medial consonant opens the second syllable when attested
    t = tokenize("æ1 t ə0", inv)
    assert _shape(t, _onsets("t")) == [["|æ", "t|ə"]]


def test_max_onset_takes_longest_attested_suffix(inv):
    t = tokenize("k æ1 n d ə0 l", inv)
    assert _shape(t, _onsets("n d")) == [["k|æ", "n d|ə l"]]
    assert _shape(t, _onsets("d")) == [["k|æ n", "d|ə l"]]
    assert _shape(t, _onsets()) == [["k|æ n d", "|ə l"]]


def test_always_split_cc_keeps_s_clusters(inv):
    t = tokenize("m ʌ1 s t ə0", inv)
    # 'st' opens with s and is attested, so the cluster survives whole
    assert _shape(t, _onsets("s t", "t"), SPLIT) == [["m|ʌ", "s t|ə"]]
    # attested but not s-initial: at most one consonant crosses
    t2 = tokenize("æ1 t r ə0", inv)
    assert _shape(t2, _onsets("t r", "r"), SPLIT) == [["|æ t", "r|ə"]]
    assert _shape(t2, _onsets("t r"), SPLIT) == [["|æ t r", "|ə"]]


def test_always_split_cc_single_consonant(inv):
    t = tokenize("æ1 t ə0", inv)
    assert _shape(t, _onsets("t"), SPLIT) == [["|æ", "t|ə"]]
    assert _shape(t, _onsets(), SPLIT) == [["|æ t", "|ə"]]


def test_a_policy_outside_medial_splits_is_refused_where_it_is_read(inv):
    # an unknown name does not split like max-onset: "tr" is an onset, so
    # max-onset would cut æ | t r ə
    message = r"^medial_split must be one of \('max-onset', 'always-split-cc'\)$"
    onsets, part = _onsets("t r"), Counter({("Rsi", "Owf", ("æ", "t", "r")): 1})
    assert split_medial(part, onsets, MAX) == {("Rsi", ("æ",)): 1, ("Owf", ("t", "r")): 1}
    with pytest.raises(BadConfig, match=message):
        split_medial(part, onsets, "bogus")
    with pytest.raises(BadConfig, match=message):
        syllabify(tokenize("æ1 t r ə0", inv), onsets, "always_split_cc")


def test_compound_halves_split_independently(inv):
    t = tokenize("b ʌ1 s + b ɔɪ1", inv)
    assert _shape(t, _onsets("b")) == [["b|ʌ s"], ["b|ɔɪ"]]


def test_syllable_stress_assignment(inv):
    t = tokenize("k æ0 n ə1", inv)
    (first, second), = syllabify(t, _onsets("n"))
    assert first.stress == "w"
    assert second.stress == "s"


def test_syllabify_errors(inv):
    with pytest.raises(NoNucleus):
        syllabify(tokenize("k + æ1", inv), _onsets())
    with pytest.raises(OutOfScope, match="3 syllables"):
        syllabify(tokenize("b ə0 n æ1 n ə0", inv), _onsets())


def test_symbols_conserved_over_random_words():
    inventory = load_inventory(INVENTORY_TEXT)
    rng = random.Random(99)
    onsets = _onsets("s t", "t", "k", "s", "p l")
    for _ in range(300):
        t = tokenize(random_transcription_text(rng), inventory)
        for policy in (MAX, SPLIT):
            words = syllabify(t, onsets, policy)
            rebuilt = [symbol for word in words for s in word for symbol in s.onset + s.rhyme]
            assert tuple(rebuilt) == t.symbols
            for word in words:
                for s in word:
                    assert not any(map(inventory.is_vowel, s.onset))
                    assert inventory.is_vowel(s.rhyme[0])
                    assert not any(map(inventory.is_vowel, s.rhyme[1:]))
