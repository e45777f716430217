from __future__ import annotations

import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonotax import errors
from phonotax.parse import parse_all
from phonotax.phonology import tokenize
from phonotax.score import parse_stimuli, score_batch, score_word
from phonotax.train import ModelConfig, TrainedModel, train_model

from oracles import random_transcription_text


def _hand_model(counts):
    """The model of hand-set per-cell counts; every other cell is empty."""
    return TrainedModel(counts, ModelConfig("y" * 64))


def test_score_word_equal_constituents(inv):
    model = _hand_model({
        "Osif": {("k",): 1, ("p",): 1},
        "Rsif": {("æ", "t"): 1, ("ɪ", "p"): 1},
    })
    p = model.lookup["Osif"][0][("k",)]
    assert model.lookup["Rsif"][0][("æ", "t")] == p
    rep = score_word(model, tokenize("k æ1 t", inv))
    assert rep.p_word == pytest.approx(p * p, abs=1e-15)
    assert rep.ln_p_word == pytest.approx(math.log(p * p), abs=1e-15)
    assert rep.p_worst == p
    assert rep.p_best == p


def test_score_word_worst_and_best(inv):
    # no medial consonant, so the segmentation is forced
    model = _hand_model({
        "Osi": {("k",): 1, ("p",): 1},
        "Rsi": {("æ",): 1, ("ɪ",): 9},
        "Owf": {(): 3},
        "Rwf": {("ə",): 1, ("ɪ",): 1},
    })
    onset, rhyme, weak_onset, weak_rhyme = (model.lookup[label][0][terminal] for label, terminal in (
        ("Osi", ("k",)), ("Rsi", ("æ",)), ("Owf", ()), ("Rwf", ("ə",))))
    assert rhyme < min(onset, weak_rhyme) <= max(onset, weak_rhyme) < weak_onset
    t = tokenize("k æ1 ə0", inv)
    rep = score_word(model, t)
    assert rep.p_word == pytest.approx(onset * rhyme * weak_onset * weak_rhyme, abs=1e-15)
    assert rep.p_worst == rhyme
    assert rep.p_best == weak_onset
    assert len(parse_all(t, model)[0].probabilities) == 4


def test_exp_ln_inverse(inv, toy_model):
    for raw in ("k æ1 t", "k æ1 n d ə0 l", "m l æ1 ʃ"):
        t = tokenize(raw, inv)
        rep = score_word(toy_model, t)
        winner = parse_all(t, toy_model)[0]
        assert math.exp(rep.ln_p_word) == pytest.approx(rep.p_word, rel=1e-12)
        assert rep.p_worst <= rep.p_best
        assert rep.p_worst in winner.probabilities
        assert rep.p_best in winner.probabilities


def test_degrading_one_constituent_is_monotone(inv):
    model = _hand_model({
        "Osif": {("k",): 3, ("s",): 1},
        "Rsif": {("æ", "t"): 4},
    })
    onsets, _ = model.lookup["Osif"]
    assert onsets[("s",)] < onsets[("k",)] < model.lookup["Rsif"][0][("æ", "t")]
    good = score_word(model, tokenize("k æ1 t", inv))
    worse = score_word(model, tokenize("s æ1 t", inv))
    assert worse.p_word < good.p_word
    assert worse.p_worst < good.p_worst
    assert worse.p_best == good.p_best  # the untouched rhyme still wins


def test_unseen_onset_twin(inv):
    """A twin with an unseen onset drops p_word and p_worst, not p_best."""
    lexicon = "".join(
        f"{o}{i}\t{o} æ1 t\n" for o in ("k", "b", "s", "m", "p") for i in range(3)
    )
    model = train_model(lexicon, inv).model
    seen = score_word(model, tokenize("k æ1 t", inv))
    twin = score_word(model, tokenize("g æ1 t", inv))
    onset = parse_all(tokenize("g æ1 t", inv), model)[0].paths[0]
    assert onset.terminal not in model.lookup[onset.label][0]
    assert twin.p_word < seen.p_word
    assert twin.p_worst < seen.p_worst
    assert twin.p_best == seen.p_best


def test_parse_stimuli():
    rows = parse_stimuli("# header comment\nw1\tk æ1 t\n\nw2\tæ1\nbad-row\n")
    assert rows == [("w1", "k æ1 t"), ("w2", "æ1"), ("bad-row", "")]
    assert parse_stimuli("") == []
    assert parse_stimuli("# only comments\n") == []


def test_parse_stimuli_keeps_an_empty_id():
    rows = parse_stimuli("\tz ɪ1 p\n \t k æ1 t \n  w3\tæ1\t\n")
    assert rows == [("", "z ɪ1 p"), ("", " k æ1 t"), ("w3", "æ1")]


def test_score_batch_order_and_errors(inv, toy_model):
    rows = [
        ("w1", "k æ1 t"),
        ("w2", "ə0 z ə0"),     # weak-weak: no template
        ("w3", "z z z"),       # no nucleus
        ("w4", "æ1 t"),
    ]
    out = score_batch(toy_model, rows, inv)
    assert [r.word_id for r in out] == ["w1", "w2", "w3", "w4"]
    assert out[0].report is not None and out[0].error is None
    assert out[1].report is None and "UnsupportedStressPattern" in out[1].error
    assert out[2].report is None and "NoNucleus" in out[2].error
    assert out[3].report is not None


def test_score_batch_empty(inv, toy_model):
    assert score_batch(toy_model, [], inv) == []


# one row per error class a score row can report, then rows that score
EVERY_ERROR_ROWS = [
    ("e1", "k æ3 t"),                    # BadStressDigit
    ("e2", "q æ1 t"),                    # UnknownSymbol
    ("e3", "  "),                        # EmptyTranscription
    ("e4", "k æ1 + t æ1 + t æ1"),        # TooManyBoundaries
    ("e5", "æ ɪ"),                       # MissingStress
    ("e6", "t"),                         # NoNucleus
    ("e7", "b ə0 n æ1 n ə0"),            # OutOfScope
    ("e8", "ə0 z ə0"),                   # UnsupportedStressPattern
    ("w1", "k æ1 t"),
    ("w2", "k æ1 n d ə0 l"),
    ("w3", "b ʌ1 s + b ɔɪ1"),
    ("w4", "k æ1 n ə1"),
]


def test_scoring_makes_no_reference_cycles(inv, toy_model):
    # the premise of the score command's collector pause: with the
    # collector off, a batch leaves nothing that only it could free
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        batch = score_batch(toy_model, EVERY_ERROR_ROWS, inv)
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert [row.error.split(":")[0] for row in batch if row.error] == [
        "BadStressDigit", "UnknownSymbol", "EmptyTranscription", "TooManyBoundaries",
        "MissingStress", "NoNucleus", "OutOfScope", "UnsupportedStressPattern",
    ]
    assert all(row.report is not None for row in batch[8:])
    assert unreachable == 0


# row text: in-scope words from the oracle generator, the same with one
# field spliced in, or fields drawn from inventory symbols with and
# without stress digits, compound marks, stray digits, junk and arbitrary
# text, joined by assorted whitespace
_SYMBOLS = ["p", "b", "t", "d", "k", "s", "n", "l", "r", "æ", "ɪ", "ə", "aɪ", "ɔɪ"]
_FIELDS = st.one_of(
    st.sampled_from(_SYMBOLS),
    st.builds(lambda s, d: s + d, st.sampled_from(_SYMBOLS), st.sampled_from("0123456789")),
    st.sampled_from(["+", "++", "0", "1", "2", "7", "#", ";", ":", "∅", "q", "x1"]),
    st.text(max_size=4),
)
_WORDS = st.integers(0, 10**6).map(lambda seed: random_transcription_text(random.Random(seed)))
_ROW_TEXT = st.one_of(
    _WORDS,
    st.builds(lambda word, at, field: " ".join(word.split()[:at] + [field] + word.split()[at:]),
              _WORDS, st.integers(0, 8), _FIELDS),
    st.builds(lambda fields, gaps: "".join(f + g for f, g in zip(fields, gaps)),
              st.lists(_FIELDS, max_size=7),
              st.lists(st.sampled_from([" ", "  ", "\t", "\n", "\u00a0", ""]),
                       min_size=7, max_size=7)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW_TEXT, max_size=6))
def test_score_batch_reports_each_row_once_and_its_ranked_winner(inv, toy_model, texts):
    rows = [(f"w{i}", raw) for i, raw in enumerate(texts)]
    batch = score_batch(toy_model, rows, inv)
    assert [row.word_id for row in batch] == [word_id for word_id, _ in rows]
    for (_, raw), (_, report, error) in zip(rows, batch, strict=True):
        assert (report is None) != (error is None)
        if report is None:
            assert issubclass(getattr(errors, error.split(":")[0]), errors.PhonotaxError)
            continue
        ranked = list(parse_all(tokenize(raw, inv), toy_model))
        assert report.path_text == ranked[0].path_text
        assert "tables" not in repr(ranked[0])
        assert report.p_word == ranked[0].product
        assert (report.p_worst, report.p_best) == (min(ranked[0].probabilities),
                                                   max(ranked[0].probabilities))
