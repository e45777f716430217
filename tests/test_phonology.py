from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax.errors import (
    BadStressDigit,
    DuplicateSymbol,
    EmptyDocument,
    EmptyTranscription,
    MissingStress,
    NoNucleus,
    ReservedSymbol,
    TooManyBoundaries,
    UnknownClass,
    UnknownSymbol,
)
from phonotax.phonology import (
    Stress,
    format_transcription,
    load_inventory,
    stress_pattern,
    tokenize,
)

from conftest import INVENTORY_TEXT
from oracles import GEN_CONSONANTS, GEN_VOWELS, random_transcription_text


def test_load_inventory_basics(inv):
    assert "k" in inv
    assert inv.is_vowel("æ")
    assert not inv.is_vowel("k")
    assert set(inv.vowels).isdisjoint(inv.consonants)
    assert len(inv.symbols) == len(inv.vowels) + len(inv.consonants)


def test_inventory_digest_ignores_comments():
    noisy = "# a comment\n\n" + INVENTORY_TEXT + "\n# trailing\n"
    assert load_inventory(noisy).digest == load_inventory(INVENTORY_TEXT).digest


def test_inventory_digest_tracks_content(inv):
    changed = INVENTORY_TEXT.replace("k\tC", "k\tV")
    assert load_inventory(changed).digest != inv.digest


def test_load_inventory_errors():
    with pytest.raises(DuplicateSymbol):
        load_inventory("k\tC\nk\tC\n")
    with pytest.raises(UnknownClass):
        load_inventory("k\tX\n")
    with pytest.raises(UnknownClass):
        load_inventory("k\n")
    with pytest.raises(EmptyDocument):
        load_inventory("# nothing here\n")


@pytest.mark.parametrize("symbol", ["∅", "+", ";", ":", "a1", "ʃ0"])
def test_load_inventory_rejects_notation_symbols(symbol):
    with pytest.raises(ReservedSymbol):
        load_inventory(INVENTORY_TEXT + f"{symbol}\tC\n")


def test_tokenize_stress_and_boundary(inv):
    t = tokenize("b ʌ1 s + b ɔɪ1", inv)
    assert [tok.symbol for tok in t.tokens] == ["b", "ʌ", "s", "b", "ɔɪ"]
    assert t.tokens[1].stress == 1
    assert t.boundary == 3
    first, second = t.words()
    assert [tok.symbol for tok in first] == ["b", "ʌ", "s"]
    assert [tok.symbol for tok in second] == ["b", "ɔɪ"]


def test_tokenize_errors(inv):
    with pytest.raises(EmptyTranscription):
        tokenize("   ", inv)
    with pytest.raises(UnknownSymbol):
        tokenize("q æ1 t", inv)
    with pytest.raises(BadStressDigit):
        tokenize("k æ3 t", inv)
    with pytest.raises(BadStressDigit):
        tokenize("k1 æ1 t", inv)  # digit on a consonant
    with pytest.raises(TooManyBoundaries):
        tokenize("k æ1 + t ʌ1 + m æ1", inv)
    with pytest.raises(EmptyTranscription):
        tokenize("+ k æ1", inv)
    with pytest.raises(EmptyTranscription):
        tokenize("k æ1 +", inv)


def test_format_round_trip(inv):
    for raw in ("k æ1 t", "b ʌ1 s + b ɔɪ1", "s æ1 n d ə0 l", "æ1 t"):
        assert format_transcription(tokenize(raw, inv)) == raw


def test_stress_pattern_rules(inv):
    S, W = Stress.STRONG, Stress.WEAK
    assert stress_pattern(tokenize("k æ t", inv)) == (S,)  # bare monosyllable
    assert stress_pattern(tokenize("k æ1 t", inv)) == (S,)
    assert stress_pattern(tokenize("k æ2 t", inv)) == (S,)
    assert stress_pattern(tokenize("k æ1 n ə0", inv)) == (S, W)
    assert stress_pattern(tokenize("k æ0 n ə1", inv)) == (W, S)
    # compound halves default independently
    assert stress_pattern(tokenize("k æ + t ʌ", inv)) == (S, S)


def test_stress_pattern_errors(inv):
    with pytest.raises(MissingStress):
        stress_pattern(tokenize("k æ n ə", inv))
    with pytest.raises(MissingStress):
        stress_pattern(tokenize("k æ1 n ə", inv))
    with pytest.raises(NoNucleus):
        stress_pattern(tokenize("k + æ1", inv))


@st.composite
def transcription_texts(draw):
    cons = st.sampled_from(["p", "t", "k", "s", "m", "l"])
    vows = st.sampled_from(["æ", "ɪ", "ʌ", "ə"])
    digits = st.sampled_from(["0", "1", "2"])
    n = draw(st.integers(1, 8))
    fields = []
    for _ in range(n):
        if draw(st.booleans()):
            fields.append(draw(cons))
        else:
            fields.append(draw(vows) + draw(st.one_of(st.just(""), digits)))
    return " ".join(fields)


@given(transcription_texts())
def test_tokenize_format_inverse(raw):
    inventory = load_inventory(INVENTORY_TEXT)
    t = tokenize(raw, inventory)
    assert format_transcription(t) == raw
    assert tokenize(format_transcription(t), inventory) == t


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**32), min_size=1, max_size=6))
def test_tokenize_is_stable_across_its_memo(seeds):
    inventory = load_inventory(INVENTORY_TEXT)  # a fresh, empty memo
    texts = [random_transcription_text(random.Random(seed)) for seed in seeds]
    first = [tokenize(x, inventory) for x in texts]
    second = [tokenize(x, inventory) for x in texts]
    unshared = [tokenize(x, load_inventory(INVENTORY_TEXT)) for x in texts]
    assert first == second == unshared
    assert [format_transcription(t) for t in first] == texts
    # only valid fields are kept: one per consonant, four per vowel at most
    assert len(inventory.tokens) <= 4 * len(inventory.symbols)
    assert "+" not in inventory.tokens


INVALID_FIELDS = (
    [(c + "1", BadStressDigit) for c in GEN_CONSONANTS]
    + [(v + "3", BadStressDigit) for v in GEN_VOWELS]
    + [("q", UnknownSymbol), ("q1", UnknownSymbol), ("+1", UnknownSymbol)]
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(INVALID_FIELDS), st.integers(0, 20))
def test_invalid_field_raises_on_every_call(seed, invalid, at):
    field, error = invalid
    inventory = load_inventory(INVENTORY_TEXT)
    text = random_transcription_text(random.Random(seed))
    expected = tokenize(text, inventory)  # fills the memo with valid fields
    fields = text.split()
    fields.insert(at % (len(fields) + 1), field)
    for _ in range(3):
        with pytest.raises(error):
            tokenize(" ".join(fields), inventory)
    assert field not in inventory.tokens
    assert tokenize(text, inventory) == expected
