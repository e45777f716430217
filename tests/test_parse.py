from __future__ import annotations

import math
import pickle
import pickletools
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax import parse as parse_module
from phonotax.errors import OutOfScope, UnsupportedStressPattern
from phonotax.grammar import format_path
from phonotax.parse import ScoredParse, enumerate_segmentations, parse_all
from phonotax.phonology import load_inventory, tokenize
from phonotax.score import score_batch, score_word
from phonotax.syllabify import MEDIAL_SPLITS, collect_word_onsets
from phonotax.train import ingest_lexicon, train_model

from conftest import INVENTORY_TEXT, entry_paths
from oracles import (
    ORACLE_TEMPLATES,
    _oracle_stress,
    _oracle_word_splits,
    oracle_best,
    random_lexicon,
    random_transcription_text,
    read_fields,
)


def _texts(runs):
    texts = [" ".join(run) for run in runs]
    return list(zip(texts[::2], texts[1::2]))  # (onset, rhyme) per syllable


def _segmentations(raw, inv):
    return enumerate_segmentations(tokenize(raw, inv))


def test_enumerate_monosyllable(inv):
    segs = _segmentations("s t ɪ1 l", inv)
    assert [_texts(s) for s in segs] == [[("s t", "ɪ l")]]


def test_enumerate_disyllable_order(inv):
    segs = _segmentations("k æ1 n d ə0", inv)
    # the second onset takes the whole cluster first, nothing last
    assert [_texts(s) for s in segs] == [
        [("k", "æ"), ("n d", "ə")],
        [("k", "æ n"), ("d", "ə")],
        [("k", "æ n d"), ("", "ə")],
    ]


def test_enumerate_compound_is_single(inv):
    segs = _segmentations("b ʌ1 s + b ɔɪ1", inv)
    assert [_texts(s) for s in segs] == [[("b", "ʌ s"), ("b", "ɔɪ")]]


def test_parse_all_forest_size_and_order(inv, toy_model):
    # strong-strong disyllable: 2 templates x (m+1) segmentations
    forest = parse_all(tokenize("k æ1 n ə1", inv), toy_model)
    assert len(forest) == 2 * 2
    products = [sp.product for sp in forest]
    assert products == sorted(products, reverse=True)
    # deterministic tie-break on rendered path text
    tied = [sp.path_text for sp in forest if sp.product == products[0]]
    assert tied == sorted(tied)


def test_parse_all_respects_boundary(inv, toy_model):
    forest = parse_all(tokenize("b ʌ1 s + b ɔɪ1", inv), toy_model)
    assert len(forest) == 1
    assert all(len(sp.parse.template.words) == 2 for sp in forest)
    with pytest.raises(UnsupportedStressPattern):
        parse_all(tokenize("k æ1 + t ə0", inv), toy_model)


def test_parse_all_error_propagation(inv, toy_model):
    with pytest.raises(UnsupportedStressPattern):
        parse_all(tokenize("ə0 z ə0", inv), toy_model)
    with pytest.raises(OutOfScope):
        parse_all(tokenize("b ə0 n æ1 n ə0", inv), toy_model)


def test_segmentation_longer_than_its_template_raises(inv, toy_model, monkeypatch):
    # one syllable too many must not be cut to the template's length in silence
    real = parse_module.enumerate_segmentations
    monkeypatch.setattr(parse_module, "enumerate_segmentations",
                        lambda t: [seg + seg for seg in real(t)])
    with pytest.raises(ValueError):
        parse_all(tokenize("k æ1 t", inv), toy_model)


def test_unseen_terminals_flagged(inv, toy_model):
    # /ml/ is not an attested onset in the toy lexicon
    forest = parse_all(tokenize("m l æ1 ʃ", inv), toy_model)
    top = forest[0]
    onset = top.paths[0]
    assert onset.terminal == ("m", "l")
    assert onset.terminal not in toy_model.lookup[onset.label][0]


def test_all_unseen_product_is_p0_product(inv, toy_model):
    # every constituent novel: product must be exactly the p0 product
    forest = parse_all(tokenize("ʃ ɔɪ1 ʃ", inv), toy_model)
    top = forest[0]
    assert not any(p.terminal in toy_model.lookup[p.label][0] for p in top.paths)
    cells = [p.label for p in top.paths]
    assert top.product == math.prod(unseen if seen else 1.0 for seen, unseen in map(toy_model.lookup.get, cells))


def test_a_forest_entry_is_a_value(inv, toy_model):
    # an entry holds nothing of the model: it hashes and pickles as its four fields
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "b ʌ1 s + b ɔɪ1", "m l æ1 ʃ"):
        forest = parse_all(tokenize(raw, inv), toy_model)
        for entry in (forest[0], *forest):
            assert hash(entry) == hash(tuple(entry))
            data = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
            assert pickle.loads(data) == entry
            assert not [op.name for op, _, _ in pickletools.genops(data) if "DICT" in op.name]
    assert ScoredParse._fields == ("template", "runs", "probabilities", "product")


def test_product_law(inv, toy_model):
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "b ʌ1 s + b ɔɪ1", "m l æ1 ʃ"):
        for sp in parse_all(tokenize(raw, inv), toy_model):
            log_sum = math.fsum(math.log(p) for p in sp.probabilities)
            assert math.log(sp.product) == pytest.approx(log_sum, rel=1e-12)


def test_agrees_with_oracle_spot_checks(inv, toy_model):
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "s t ɪ1 l ə0", "b ʌ1 s + b ɔɪ1", "k æ1 n ə1"):
        got = parse_all(tokenize(raw, inv), toy_model)[0]
        want_product, want_paths = oracle_best(raw, inv, toy_model)
        assert got.product == pytest.approx(want_product, rel=1e-12)
        assert got.path_text.split(" ; ") == want_paths


def test_agrees_with_oracle_randomized():
    inventory = load_inventory(INVENTORY_TEXT)
    rng = random.Random(424242)
    for _ in range(25):
        model = train_model(random_lexicon(rng, rng.randint(4, 18)), inventory).model
        for _ in range(4):
            raw = random_transcription_text(rng)
            got = parse_all(tokenize(raw, inventory), model)[0]
            want_product, want_paths = oracle_best(raw, inventory, model)
            assert got.product == pytest.approx(want_product, rel=1e-12)
            assert got.path_text.split(" ; ") == want_paths


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_forest_order_is_product_then_text(seed):
    # toy lexica leave many cells empty, so exact product ties are common
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    for _ in range(5):
        forest = parse_all(tokenize(random_transcription_text(rng), inventory), model)
        assert list(forest) == sorted(forest, key=lambda sp: (-sp.product, sp.path_text))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_every_parse_carries_its_paths_lookups(seed):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    for _ in range(5):
        t = tokenize(random_transcription_text(rng), inventory)
        forest = parse_all(t, model)
        for sp in forest:
            paths = sp.paths
            assert [p.label for p in paths] == list(sp.parse.template.labels)
            for i, path in enumerate(paths):
                seen, unseen = model.lookup[path.label]
                assert sp.probabilities[i] == seen.get(path.terminal, unseen)
            assert sp.product == math.prod(sp.probabilities)
        winner = forest[0]
        report = score_word(model, t)
        assert report == (winner.product, math.log(winner.product), min(winner.probabilities),
                          max(winner.probabilities), winner)
        assert report.path_text == winner.path_text


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_winner_read_first_is_the_ranked_first(seed):
    rng = random.Random(seed)
    inventory = load_inventory(INVENTORY_TEXT)
    model = train_model(random_lexicon(rng, rng.randint(3, 12)), inventory).model
    for _ in range(5):
        raw = random_transcription_text(rng)
        t = tokenize(raw, inventory)
        winner = parse_all(t, model)[0]  # a fresh forest: nothing ranked yet
        forest = parse_all(t, model)
        assert list(forest)[0] == winner == forest[0]
        words = read_fields(raw, inventory)
        templates = ORACLE_TEMPLATES[tuple(s for w in words for s in _oracle_stress(w))]
        if len(words) == 2:
            templates = [tpl for tpl in templates if tpl[0] == 2]
        assert len(forest) == len(templates) * math.prod(len(_oracle_word_splits(w)) for w in words)
        for sp in forest:
            assert sp.path_text == " ; ".join(map(format_path, sp.paths))


# per input: the score command's error column and the train command's skip reason
EDGE_INPUTS = [
    ("k æ n ə + t", "NoNucleus: phonological word has no vowel", "NoNucleus"),
    ("b ə n æ1 n ə0", "OutOfScope: 3 syllables; only one or two are supported", "OutOfScope"),
    ("b ə0 n æ1 n ə0", "OutOfScope: 3 syllables; only one or two are supported", "OutOfScope"),
    ("k æ1 + t ɪ1 n æ1", "OutOfScope: 3 syllables; only one or two are supported", "OutOfScope"),
    ("k + æ1", "NoNucleus: phonological word has no vowel", "NoNucleus"),
    ("t", "NoNucleus: phonological word has no vowel", "NoNucleus"),
    ("k æ2 n ɪ1 + t", "NoNucleus: phonological word has no vowel", "NoNucleus"),
    ("æ ɪ", "MissingStress: vowel 'æ' lacks a stress digit", "MissingStress"),
]


@pytest.mark.parametrize("raw, score_error, skip_reason", EDGE_INPUTS)
def test_edge_inputs_fail_as_pinned_in_both_commands(inv, toy_model, raw, score_error, skip_reason):
    (row,) = score_batch(toy_model, [("x", raw)], inv)
    assert row.error == score_error
    assert ingest_lexicon(f"cat\tk æ1 t\nx\t{raw}\n", inv).skipped == [(2, skip_reason, "x")]


@pytest.mark.parametrize("raw, score_error", [
    ("k æ1 + t ə0", "UnsupportedStressPattern: a compound boundary needs two strong monosyllables"),
    ("k ə0 + t æ1", "UnsupportedStressPattern: a compound boundary needs two strong monosyllables"),
    ("k ə0 + t ə0", "UnsupportedStressPattern: no rule generates a weak-weak word"),
])
def test_a_boundary_needs_two_strong_monosyllables_in_both_commands(inv, toy_model, raw, score_error):
    (row,) = score_batch(toy_model, [("x", raw)], inv)
    assert row.error == score_error
    result = train_model(f"cat\tk æ1 t\nx\t{raw}\n", inv)
    assert result.unsupported == [(2, "x")]


def test_vowel_initial_second_word_is_cut_at_the_boundary(inv, toy_model):
    # the second word's nucleus sits at the boundary index, so its onset is empty
    runs = ((), ("æ",), (), ("ɪ",))
    (row,) = score_batch(toy_model, [("x", "æ1 + ɪ1")], inv)
    assert row.error is None and parse_all(tokenize("æ1 + ɪ1", inv), toy_model)[0].runs == runs
    result = ingest_lexicon("x\tæ1 + ɪ1\n", inv)
    assert result.skipped == []
    paths = entry_paths(result.entries[0], frozenset({()}))
    assert tuple(terminal for _, terminal in paths) == runs


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 30))
def test_training_cut_is_one_of_the_scoring_cuts(seed, size):
    inventory = load_inventory(INVENTORY_TEXT)
    entries = ingest_lexicon(random_lexicon(random.Random(seed), size), inventory).entries
    onsets = collect_word_onsets(entries)
    for entry in entries:
        candidates = enumerate_segmentations(entry.transcription)
        for policy in MEDIAL_SPLITS:
            try:
                paths = entry_paths(entry, onsets, policy)
            except UnsupportedStressPattern:
                continue
            assert tuple(terminal for _, terminal in paths) in candidates
