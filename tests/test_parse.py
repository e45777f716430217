from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax import parse as parse_module
from phonotax.errors import OutOfScope, UnsupportedStressPattern
from phonotax.grammar import SyllableCategory, sequential_unify
from phonotax.parse import best_parse, enumerate_segmentations, parse_all
from phonotax.phonology import load_inventory, tokenize
from phonotax.score import score_word
from phonotax.train import train_model

from conftest import INVENTORY_TEXT
from oracles import oracle_best, random_lexicon, random_transcription_text

SC = SyllableCategory


def _texts(seg):
    return [(" ".join(t.symbol for t in o), " ".join(t.symbol for t in r)) for o, r in seg]


def test_enumerate_monosyllable(inv):
    segs = enumerate_segmentations(tokenize("s t ɪ1 l", inv))
    assert [_texts(s) for s in segs] == [[("s t", "ɪ l")]]


def test_enumerate_disyllable_order(inv):
    segs = enumerate_segmentations(tokenize("k æ1 n d ə0", inv))
    # the second onset takes the whole cluster first, nothing last
    assert [_texts(s) for s in segs] == [
        [("k", "æ"), ("n d", "ə")],
        [("k", "æ n"), ("d", "ə")],
        [("k", "æ n d"), ("", "ə")],
    ]


def test_enumerate_compound_is_single(inv):
    segs = enumerate_segmentations(tokenize("b ʌ1 s + b ɔɪ1", inv))
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
    top = best_parse(forest)
    onset = top.paths[0]
    assert onset.terminal == ("m", "l")
    assert top.seen[0] is False


def test_all_unseen_product_is_p0_product(inv, toy_model):
    # every constituent novel: product must be exactly the p0 product
    forest = parse_all(tokenize("ʃ ɔɪ1 ʃ", inv), toy_model)
    top = best_parse(forest)
    assert all(flag is False for flag in top.seen)
    cells = [p.cell for p in top.paths]
    assert top.product == math.prod(toy_model.p0[c] for c in cells)


def test_product_law(inv, toy_model):
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "b ʌ1 s + b ɔɪ1", "m l æ1 ʃ"):
        for sp in parse_all(tokenize(raw, inv), toy_model):
            log_sum = math.fsum(math.log(p) for p in sp.probabilities)
            assert math.log(sp.product) == pytest.approx(log_sum, rel=1e-12)


def test_best_parse_empty():
    with pytest.raises(ValueError):
        best_parse([])


def test_agrees_with_oracle_spot_checks(inv, toy_model):
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "s t ɪ1 l ə0", "b ʌ1 s + b ɔɪ1", "k æ1 n ə1"):
        t = tokenize(raw, inv)
        got = best_parse(parse_all(t, toy_model))
        want_product, want_paths = oracle_best(t, toy_model)
        assert got.product == pytest.approx(want_product, rel=1e-12)
        assert got.path_text.split(" ; ") == want_paths


def test_agrees_with_oracle_randomized():
    inventory = load_inventory(INVENTORY_TEXT)
    rng = random.Random(424242)
    for _ in range(25):
        model = train_model(random_lexicon(rng, rng.randint(4, 18)), inventory).model
        for _ in range(4):
            t = tokenize(random_transcription_text(rng), inventory)
            got = best_parse(parse_all(t, model))
            want_product, want_paths = oracle_best(t, model)
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
        assert forest == sorted(forest, key=lambda sp: (-sp.product, sp.path_text))
        for sp in forest:
            assert sequential_unify(sp.parse.template, sp.paths) == sp.parse


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
            assert [p.constituent_label for p in paths] == list(sp.parse.template.labels)
            for i, path in enumerate(paths):
                assert (sp.probabilities[i], sp.seen[i]) == model.prob(path.cell, path.terminal)
            assert sp.product == math.prod(sp.probabilities)
        assert score_word(model, t).best == forest[0]
